//! Shared helpers for the WaTZ benchmark harness.
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper
//! (README.md's "Paper figure / table ↔ bench mapping" is the index).
//! Targets print the same rows / series the paper reports; BENCHMARKS.md
//! records what was measured against the paper's figures.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Number of repetitions, scalable via `WATZ_BENCH_REPS`.
#[must_use]
pub fn reps(default: usize) -> usize {
    std::env::var("WATZ_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Problem-size scale, via `WATZ_BENCH_N`.
#[must_use]
pub fn scale(default: usize) -> usize {
    std::env::var("WATZ_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Times `f`, returning the median of `reps` runs.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Formats a duration compactly.
#[must_use]
pub fn fmt(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

/// Fig 4's synthetic application, mirroring the paper's loop-unrolling
/// generator: `target_mb * 100` functions of 1200 unrolled
/// `i64.const; i64.add` pairs each (~4.7 KB of code per function, so the
/// "1 MB" point is 474 KB on disk), the last one exported as `main`.
#[must_use]
pub fn fig4_app(target_mb: usize) -> Vec<u8> {
    use watz_wasm::instr::Instr;
    let mut b = watz_wasm::builder::ModuleBuilder::new();
    let ty = b.add_type(&[], &[watz_wasm::types::ValType::I64]);
    let per_func = 1200;
    let mut main_idx = 0;
    for f in 0..target_mb * 100 {
        let mut code = Vec::with_capacity(per_func * 2 + 2);
        code.push(Instr::I64Const(f as i64));
        for k in 0..per_func {
            code.push(Instr::I64Const(k as i64));
            code.push(Instr::I64Add);
        }
        code.push(Instr::End);
        main_idx = b.add_func(ty, &[], code);
    }
    b.export_func("main", main_idx);
    b.add_memory(1, None);
    b.build()
}

/// Prints a bench header.
pub fn header(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("    paper reference: {paper}");
}

/// The machine a measurement was taken on, recorded alongside every
/// newly appended `BENCH_*.json` entry so trajectories stay comparable
/// across machine classes.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPU count.
    pub cores: usize,
    /// Target architecture (`x86_64`, `aarch64`, ...).
    pub arch: &'static str,
    /// OS kernel release, e.g. `6.18.5`.
    pub kernel: String,
    /// `rustc --version` of the toolchain that built the harness.
    pub rustc: String,
}

impl HostInfo {
    /// The `host` object for a `BENCH_*.json` entry.
    #[must_use]
    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"arch\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\"}}",
            self.cores, self.arch, self.kernel, self.rustc
        )
    }
}

impl std::fmt::Display for HostInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host: {} cores, {}, kernel {}, {}",
            self.cores, self.arch, self.kernel, self.rustc
        )
    }
}

/// Probes the current machine; fields degrade to `"unknown"` rather
/// than failing (benches must run on stripped-down CI hosts too).
#[must_use]
pub fn host_info() -> HostInfo {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .or_else(|_| {
            std::process::Command::new("uname")
                .arg("-r")
                .output()
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
            .arg("--version")
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
    HostInfo {
        cores,
        arch: std::env::consts::ARCH,
        kernel,
        rustc,
    }
}
