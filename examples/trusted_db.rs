//! A trusted in-memory database: the microdb engine running as a Wasm
//! workload inside WaTZ (the Fig 6 scenario, interactively).
//!
//! Run with: `cargo run --example trusted_db`

use watz::bench_workloads::speedtest;
use watz::runtime::{AppConfig, WatzRuntime};
use watz::wasm::exec::Value;

fn main() {
    let runtime = WatzRuntime::new_device(b"db-device").expect("boot");

    // Native side: the SQL engine.
    let mut db = watz::db::Database::new();
    db.execute("CREATE TABLE sensors(id INT, reading INT, site TEXT)")
        .unwrap();
    db.execute("CREATE INDEX by_reading ON sensors(reading)")
        .unwrap();
    for i in 0..1000 {
        db.execute(&format!(
            "INSERT INTO sensors VALUES ({i}, {}, 'site {}')",
            (i * 37) % 500,
            i % 7
        ))
        .unwrap();
    }
    let r = db
        .execute("SELECT COUNT(*) FROM sensors WHERE reading BETWEEN 100 AND 200")
        .unwrap();
    println!("native microdb: readings in [100,200] = {:?}", r.rows[0][0]);

    // Wasm side: the minisql guest inside the TEE.
    let wasm = watz::compiler::compile(speedtest::MINISQL_GUEST).expect("compile minisql");
    let mut app = runtime
        .load(
            &wasm,
            &AppConfig {
                heap_bytes: 25 << 20,
                mode: watz::wasm::ExecMode::Aot,
            },
        )
        .expect("load");
    app.invoke("setup", &[Value::I32(1000)]).unwrap();
    println!(
        "minisql guest measurement: {:02x?}...",
        &app.measurement()[..8]
    );

    for exp in speedtest::experiments().iter().take(6) {
        let t = std::time::Instant::now();
        let check = app
            .invoke("run_exp", &[Value::I32(exp.id as i32), Value::I32(1000)])
            .unwrap();
        println!(
            "  experiment {:>3} ({:<40}) check={:?} in {:?}",
            exp.id,
            exp.description,
            check[0],
            t.elapsed()
        );
    }
}
