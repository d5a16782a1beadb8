//! Fig 8: Genann training time vs dataset size (100 kB - 1 MB).
//! Paper: linear in dataset size; WaTZ within ~1.4% of WAMR (TEE ~ REE).

use std::time::Instant;
use watz_bench::{fmt, header, scale};
use watz_runtime::{AppConfig, WatzRuntime};
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use workloads::genann_guest;

fn main() {
    header(
        "Fig 8: Genann training time vs dataset size",
        "linear; WaTZ ~= WAMR (wasm mode: register engine)",
    );
    let epochs = scale(20) as i32;
    let rt = WatzRuntime::new_device(b"fig8").unwrap();
    let src = genann_guest::source();
    let wasm = minic::compile_with_options(
        &src,
        &minic::Options {
            min_pages: 128,
            max_pages: None,
        },
    )
    .unwrap();

    println!(
        "  {:>8} {:>8} {:>12} {:>12} {:>12}",
        "dataset", "samples", "native", "WAMR (REE)", "WaTZ (TEE)"
    );
    for size_kb in [100usize, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
        // ~30 bytes per CSV record, 4 features + label.
        let csv = genann_rs::iris::replicated_csv(size_kb * 1024);
        let samples = genann_rs::iris::from_csv(&csv);
        let n = samples.len() as i32;
        let (features, labels) = genann_guest::flatten(&samples);

        // Native baseline.
        let mut nn = genann_rs::Genann::new(4, 1, 4, 3);
        let t = Instant::now();
        for _ in 0..epochs {
            for s in &samples {
                nn.train(&s.features, &s.one_hot(), 0.5);
            }
        }
        let native = t.elapsed();

        // Wasm in the normal world (WAMR role).
        let module = watz_wasm::load(&wasm).unwrap();
        let mut inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).unwrap();
        let fp = inst
            .invoke(&mut NoHost, "buf_alloc", &[Value::I32(n)])
            .unwrap()[0]
            .as_u32();
        let lp = inst.invoke(&mut NoHost, "labels_ptr", &[]).unwrap()[0].as_u32();
        inst.memory_mut().write_bytes(fp, &features).unwrap();
        inst.memory_mut().write_bytes(lp, &labels).unwrap();
        let t = Instant::now();
        inst.invoke(&mut NoHost, "train", &[Value::I32(n), Value::I32(epochs)])
            .unwrap();
        let wamr = t.elapsed();

        // Wasm in the secure world (WaTZ).
        let mut app = rt
            .load(
                &wasm,
                &AppConfig {
                    heap_bytes: 17 << 20,
                    mode: ExecMode::Aot,
                },
            )
            .unwrap();
        let fp = app.invoke("buf_alloc", &[Value::I32(n)]).unwrap()[0].as_u32();
        let lp = app.invoke("labels_ptr", &[]).unwrap()[0].as_u32();
        app.write_memory(fp, &features).unwrap();
        app.write_memory(lp, &labels).unwrap();
        let t = Instant::now();
        app.invoke("train", &[Value::I32(n), Value::I32(epochs)])
            .unwrap();
        let watz = t.elapsed();

        println!(
            "  {:>6}kB {:>8} {:>12} {:>12} {:>12}   (watz/wamr = {:.3})",
            size_kb,
            n,
            fmt(native),
            fmt(wamr),
            fmt(watz),
            watz.as_secs_f64() / wamr.as_secs_f64()
        );
    }
}
