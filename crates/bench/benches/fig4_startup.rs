//! Fig 4: startup breakdown of Wasm applications (1-9 MB).
//! Paper: loading ~73%, init ~16%, alloc ~5%, hashing ~4%, rest <1%.

use std::time::Duration;

use tz_hal::PlatformConfig;
use watz_bench::{header, median};
use watz_runtime::{AppConfig, StartupBreakdown, WatzRuntime};

/// Launches of each kind per size; each column is their median.
const LOADS: usize = 5;

/// One table row: each phase's share of the median total, then the total.
/// With `us`, each phase's median in microseconds follows its share.
fn row(label: &str, bytes: usize, loads: &[StartupBreakdown], us: bool) {
    let col = |f: fn(&StartupBreakdown) -> Duration| median(loads.iter().map(f).collect());
    let total = col(StartupBreakdown::total);
    let pct = |f: fn(&StartupBreakdown) -> Duration| {
        format!("{:.1}%", 100.0 * col(f).as_secs_f64() / total.as_secs_f64())
    };
    let phase = |f: fn(&StartupBreakdown) -> Duration| {
        if us {
            format!("{} {}us", pct(f), col(f).as_micros())
        } else {
            pct(f)
        }
    };
    println!(
        "  {:<10} {:>10} {:>12} {:>13} {:>13} {:>9} {:>9} {:>12} {:>12} | {:>7} {:>7}   {}",
        label,
        bytes,
        phase(|b| b.transition),
        phase(|b| b.memory_allocation),
        phase(|b| b.hashing),
        phase(|b| b.init),
        phase(|b| b.loading),
        phase(|b| b.instantiate),
        phase(|b| b.execution),
        pct(|b| b.compile.lower),
        pct(|b| b.compile.verify),
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
        "    and of the {loads_per_size} relaunches that followed them (artifact resident); lower (the one walk to register code, fusion included) and verify (the IR verifier over it) are the compile part of \"instantiate\""
    );
    println!(
        "    relaunch rows add each phase's median in us, and their hash/recall is the recall: the secure copy compared with the resident bytes"
    );
    println!(
        "  {:<10} {:>10} {:>12} {:>13} {:>13} {:>9} {:>9} {:>12} {:>12} | {:>7} {:>7}   total",
        "size",
        "bytes",
        "transition",
        "mem alloc",
        "hash/recall",
        "init",
        "loading",
        "instantiate",
        "exec",
        "lower",
        "verify",
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
        row(&format!("{mb} MB"), app_bytes.len(), &first, false);
        row("  relaunch", app_bytes.len(), &again, true);
    }
}
