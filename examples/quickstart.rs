//! Quickstart: boot a device, load a Wasm application into the secure
//! world, run it, and inspect its measurement.
//!
//! Run with: `cargo run --example quickstart`

use watz::runtime::{AppConfig, WatzRuntime};
use watz::wasm::exec::Value;

fn main() {
    // 1. "Manufacture" a device: fuse an OTPMK, run the secure boot chain,
    //    boot the trusted OS and install the WaTZ runtime.
    let runtime = WatzRuntime::new_device(b"quickstart-device").expect("boot");
    println!(
        "device attestation key: {:02x?}...",
        &runtime.device_public_key()[..8]
    );

    // 2. Compile a guest. The paper compiles C with WASI-SDK; this
    //    reproduction ships MiniC, a small C-like language.
    let wasm = watz::compiler::compile(
        r#"
        extern void print_str(int s);
        int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        int main() { print_str("hello from the secure world\n"); return fib(25); }
        "#,
    )
    .expect("compile");

    // 3. Load: the bytecode crosses the world boundary through shared
    //    memory, is measured (SHA-256) and instantiated.
    let mut app = runtime.load(&wasm, &AppConfig::default()).expect("load");
    println!("measurement: {:02x?}...", &app.measurement()[..8]);

    // 4. Run.
    let result = app.invoke("main", &[]).expect("run");
    print!("{}", String::from_utf8_lossy(app.stdout()));
    println!("fib(25) = {:?}", result);
    assert_eq!(result, vec![Value::I32(75025)]);

    // 5. The Fig 4-style startup breakdown comes for free.
    let b = app.startup_breakdown();
    println!(
        "startup: loading {:?}, hashing {:?}, instantiate {:?}",
        b.loading, b.hashing, b.instantiate
    );

    // 6. Launching the same bytes again starts from the artifact the first
    //    launch left resident: measured again, not decoded, validated or
    //    compiled again.
    let again = runtime
        .load(&wasm, &AppConfig::default())
        .expect("relaunch");
    let r = again.startup_breakdown();
    assert!(r.cached && !b.cached && again.measurement() == app.measurement());
    println!(
        "relaunch: loading {:?}, hashing {:?}, instantiate {:?}",
        r.loading, r.hashing, r.instantiate
    );
}
