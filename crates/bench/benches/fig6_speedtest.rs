//! Fig 6: Speedtest1-style database suite, normalized to native REE.
//! Paper: native TEE 1.31x, Wasm REE ~2.1x, Wasm TEE ~2.12x; writes
//! (~2.23x) slower than reads (~2.04x) relative to native.

use std::time::Instant;
use watz_bench::{header, scale};
use watz_runtime::{run_native_ta, AppConfig, WatzRuntime};
use watz_wasm::exec::Value;
use workloads::speedtest::{self, Kind};

fn main() {
    header(
        "Fig 6: Speedtest1 normalized run time",
        "writes slower than reads; TEE ~ REE for Wasm (wasm mode: register engine)",
    );
    let n = scale(150); // the paper scales to 60% for memory reasons
    let rt = WatzRuntime::new_device(b"fig6").unwrap();

    let guest_wasm = minic::compile(speedtest::MINISQL_GUEST).unwrap();

    println!(
        "  {:<5} {:<6} {:>12} {:>10} {:>10} {:>10}",
        "exp", "kind", "native REE", "native TEE", "wasm REE", "wasm TEE"
    );
    let mut read_r = Vec::new();
    let mut write_r = Vec::new();
    for exp in speedtest::experiments() {
        // Native REE.
        let mut db = microdb::Database::new();
        speedtest::setup_native(&mut db, n);
        let t = Instant::now();
        std::hint::black_box(speedtest::run_native(&mut db, exp.id, n));
        let native_ree = t.elapsed();

        // Native TEE.
        let mut db = microdb::Database::new();
        speedtest::setup_native(&mut db, n);
        let t = Instant::now();
        run_native_ta(rt.os(), 25 << 20, || {
            std::hint::black_box(speedtest::run_native(&mut db, exp.id, n));
        })
        .unwrap();
        let native_tee = t.elapsed();

        // Wasm REE (plain engine).
        let module = watz_wasm::load(&guest_wasm).unwrap();
        let mut inst = watz_wasm::exec::Instance::instantiate(
            &module,
            watz_wasm::ExecMode::Aot,
            &mut watz_wasm::exec::NoHost,
        )
        .unwrap();
        inst.invoke(
            &mut watz_wasm::exec::NoHost,
            "setup",
            &[Value::I32(n as i32)],
        )
        .unwrap();
        let t = Instant::now();
        std::hint::black_box(
            inst.invoke(
                &mut watz_wasm::exec::NoHost,
                "run_exp",
                &[Value::I32(exp.id as i32), Value::I32(n as i32)],
            )
            .unwrap(),
        );
        let wasm_ree = t.elapsed();

        // Wasm TEE (WaTZ).
        let mut app = rt
            .load(
                &guest_wasm,
                &AppConfig {
                    heap_bytes: 25 << 20,
                    mode: watz_wasm::ExecMode::Aot,
                },
            )
            .unwrap();
        app.invoke("setup", &[Value::I32(n as i32)]).unwrap();
        let t = Instant::now();
        std::hint::black_box(
            app.invoke(
                "run_exp",
                &[Value::I32(exp.id as i32), Value::I32(n as i32)],
            )
            .unwrap(),
        );
        let wasm_tee = t.elapsed();

        let base = native_ree.as_secs_f64().max(1e-9);
        let ratio = wasm_tee.as_secs_f64() / base;
        match exp.kind {
            Kind::Read => read_r.push(ratio),
            Kind::Write => write_r.push(ratio),
            Kind::Schema => {}
        }
        println!(
            "  {:<5} {:<6} {:>12} {:>10.2} {:>10.2} {:>10.2}",
            exp.id,
            format!("{:?}", exp.kind),
            watz_bench::fmt(native_ree),
            native_tee.as_secs_f64() / base,
            wasm_ree.as_secs_f64() / base,
            ratio,
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "  average Wasm-TEE slowdown: reads {:.2}x, writes {:.2}x (paper: 2.04x / 2.23x)",
        avg(&read_r),
        avg(&write_r)
    );
}
