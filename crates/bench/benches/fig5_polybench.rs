//! Fig 5: PolyBench/C, normalized against native execution in the REE.
//! Paper: Wasm ~1.34x native on average; TEE ~= REE for both native and
//! Wasm (TrustZone adds no compute slowdown). The Wasm columns run
//! `ExecMode::Aot` — the register engine (`watz_wasm::reg`), the portable
//! stand-in for WAMR's AOT mode. Our Wasm/native ratio is larger than the
//! paper's (no native codegen) — see EXPERIMENTS.md.

use std::time::Instant;
use watz_bench::{header, reps, scale};
use watz_runtime::{run_native_ta, AppConfig, WatzRuntime};
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use workloads::polybench;

fn main() {
    header(
        "Fig 5: PolyBench/C normalized run time",
        "Wasm ~1.34x native; TEE ~ REE (wasm mode: register engine)",
    );
    let n = scale(24);
    let r = reps(3);
    let rt = WatzRuntime::new_device(b"fig5").unwrap();
    println!(
        "  {:<16} {:>12} {:>10} {:>10} {:>10}   (normalized to native REE)",
        "kernel", "native REE", "native TEE", "wasm REE", "wasm TEE"
    );
    let mut ratios = Vec::new();
    for k in polybench::suite() {
        // Native, normal world.
        let t = Instant::now();
        for _ in 0..r {
            std::hint::black_box((k.native)(n));
        }
        let native_ree = t.elapsed();

        // Native, secure world (native TA).
        let t = Instant::now();
        for _ in 0..r {
            run_native_ta(rt.os(), 12 << 20, || std::hint::black_box((k.native)(n))).unwrap();
        }
        let native_tee = t.elapsed();

        // Wasm, normal world (plain engine, like WAMR in the REE).
        let wasm = minic::compile(k.minic).unwrap();
        let module = watz_wasm::load(&wasm).unwrap();
        let mut inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).unwrap();
        let t = Instant::now();
        for _ in 0..r {
            std::hint::black_box(
                inst.invoke(&mut NoHost, "kernel", &[Value::I32(n as i32)])
                    .unwrap(),
            );
        }
        let wasm_ree = t.elapsed();

        // Wasm, secure world (WaTZ).
        let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
        let t = Instant::now();
        for _ in 0..r {
            std::hint::black_box(app.invoke("kernel", &[Value::I32(n as i32)]).unwrap());
        }
        let wasm_tee = t.elapsed();

        let base = native_ree.as_secs_f64();
        let ratio = wasm_tee.as_secs_f64() / base;
        ratios.push(ratio);
        println!(
            "  {:<16} {:>12.3} {:>10.2} {:>10.2} {:>10.2}",
            k.name,
            1.0,
            native_tee.as_secs_f64() / base,
            wasm_ree.as_secs_f64() / base,
            ratio,
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("  geomean-ish average Wasm-TEE slowdown: {mean:.2}x (paper: 1.34x with native AOT; wasm mode: register engine)");
}
