//! Fig 4: startup breakdown of Wasm applications (1-9 MB).
//! Paper: loading ~73%, init ~16%, alloc ~5%, hashing ~4%, rest <1%.

use std::time::Duration;

use tz_hal::PlatformConfig;
use watz_bench::header;
use watz_runtime::{AppConfig, StartupBreakdown, WatzRuntime};

/// Loads of each size after the warm-up one; each column is the median.
const LOADS: usize = 5;

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    header(
        "Fig 4: startup breakdown vs application size",
        "load phase dominates (~73%)",
    );
    let loads_per_size = watz_bench::reps(LOADS).max(1);
    println!(
        "    one warm-up load, then the median of {loads_per_size} loads per size; lower..analysis split \"instantiate\""
    );
    println!(
        "  {:<6} {:>10} {:>11} {:>10} {:>8} {:>6} {:>8} {:>12} {:>6} | {:>7} {:>9} {:>9}   total",
        "size",
        "bytes",
        "transition",
        "mem alloc",
        "hashing",
        "init",
        "loading",
        "instantiate",
        "exec",
        "lower",
        "register",
        "analysis",
    );
    let rt = WatzRuntime::new_device_with(b"fig4", PlatformConfig::with_paper_latencies()).unwrap();
    for mb in 1..=9 {
        let app_bytes = watz_bench::fig4_app(mb);
        let config = AppConfig {
            heap_bytes: 27 * 1024 * 1024,
            mode: watz_wasm::ExecMode::Aot,
        };
        // The first load of a size pays for the allocator's first touch of
        // every page it will use; a single shot measures that, not the
        // pipeline (back-to-back single shots at 4 MB read 612 and 242 ms).
        let mut loads = Vec::new();
        for _ in 0..=loads_per_size {
            match rt.load(&app_bytes, &config) {
                Ok(mut app) => {
                    app.invoke("main", &[]).unwrap();
                    loads.push(app.startup_breakdown());
                }
                Err(e) => {
                    println!("  {mb} MB: {e}");
                    break;
                }
            }
        }
        if loads.len() < 2 {
            continue;
        }
        loads.remove(0);
        let col = |f: fn(&StartupBreakdown) -> Duration| median(loads.iter().map(f).collect());
        let total = col(StartupBreakdown::total);
        let pct = |f: fn(&StartupBreakdown) -> Duration| {
            format!("{:.1}%", 100.0 * col(f).as_secs_f64() / total.as_secs_f64())
        };
        println!(
            "  {:<6} {:>10} {:>11} {:>10} {:>8} {:>6} {:>8} {:>12} {:>6} | {:>7} {:>9} {:>9}   {}",
            format!("{mb} MB"),
            app_bytes.len(),
            pct(|b| b.transition),
            pct(|b| b.memory_allocation),
            pct(|b| b.hashing),
            pct(|b| b.init),
            pct(|b| b.loading),
            pct(|b| b.instantiate),
            pct(|b| b.execution),
            pct(|b| b.compile.lower),
            pct(|b| b.compile.reg),
            pct(|b| b.compile.analysis),
            watz_bench::fmt(total),
        );
    }
}
