//! Fig 4: startup breakdown of Wasm applications (1-9 MB).
//! Paper: loading ~73%, init ~16%, alloc ~5%, hashing ~4%, rest <1%.

use std::time::Duration;

use tz_hal::PlatformConfig;
use watz_bench::header;
use watz_runtime::{AppConfig, StartupBreakdown, WatzRuntime};

/// Launches of each kind per size; each column is their median.
const LOADS: usize = 5;

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// One table row: each phase's share of the median total, then the total.
fn row(label: &str, bytes: usize, loads: &[StartupBreakdown]) {
    let col = |f: fn(&StartupBreakdown) -> Duration| median(loads.iter().map(f).collect());
    let total = col(StartupBreakdown::total);
    let pct = |f: fn(&StartupBreakdown) -> Duration| {
        format!("{:.1}%", 100.0 * col(f).as_secs_f64() / total.as_secs_f64())
    };
    println!(
        "  {:<10} {:>10} {:>11} {:>10} {:>8} {:>6} {:>8} {:>12} {:>6} | {:>7} {:>9} {:>9}   {}",
        label,
        bytes,
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

fn main() {
    header(
        "Fig 4: startup breakdown vs application size",
        "load phase dominates (~73%)",
    );
    let loads_per_size = watz_bench::reps(LOADS).max(1);
    println!(
        "    per size: one warm-up launch, then the median of {loads_per_size} first launches, each on a freshly booted runtime,"
    );
    println!(
        "    and of the {loads_per_size} relaunches that followed them (artifact resident); lower..analysis split \"instantiate\""
    );
    println!(
        "  {:<10} {:>10} {:>11} {:>10} {:>8} {:>6} {:>8} {:>12} {:>6} | {:>7} {:>9} {:>9}   total",
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
    let boot =
        || WatzRuntime::new_device_with(b"fig4", PlatformConfig::with_paper_latencies()).unwrap();
    for mb in 1..=9 {
        let app_bytes = watz_bench::fig4_app(mb);
        let config = AppConfig {
            heap_bytes: 27 * 1024 * 1024,
            mode: watz_wasm::ExecMode::Aot,
        };
        let launch = |rt: &WatzRuntime| {
            let mut app = rt.load(&app_bytes, &config)?;
            app.invoke("main", &[]).unwrap();
            Ok::<_, watz_runtime::WatzError>(app.startup_breakdown())
        };
        // The first launch of a size pays for the allocator's first touch
        // of every page it will use; a single shot measures that, not the
        // pipeline (back-to-back single shots at 4 MB read 612 and 242 ms).
        if let Err(e) = launch(&boot()) {
            println!("  {mb} MB: {e}");
            continue;
        }
        let (mut first, mut again) = (Vec::new(), Vec::new());
        for _ in 0..loads_per_size {
            let rt = boot();
            first.push(launch(&rt).expect("launched once already"));
            again.push(launch(&rt).expect("launched once already"));
        }
        assert!(first.iter().all(|b| !b.cached) && again.iter().all(|b| b.cached));
        row(&format!("{mb} MB"), app_bytes.len(), &first);
        row("  relaunch", app_bytes.len(), &again);
    }
}
