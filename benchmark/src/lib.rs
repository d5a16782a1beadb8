//! The WaTZ-rs benchmark: five workloads, the same four end-to-end metrics
//! on each, and a traced run that takes per-layer numbers from outside the
//! program. See `README.md` for the commands and the glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Version of the benchmark itself; bump when a definition changes, since
/// results across versions do not compare.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Input sizes. They are fixed, never scaled by the host; `quick` is the
/// 1/20-size smoke configuration the tests run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// PolyBench problem size.
    pub polybench_n: i32,
    /// Rows per minisql table.
    pub minisql_n: i32,
    /// Functions in `large_unrolled` (100 = Fig 4's "1 MB" point).
    pub unrolled_funcs: usize,
    /// Kernel-suite permutations in `large_loopy`.
    pub loopy_cycles: usize,
    /// Endorsed, rogue and stale devices of the fleet.
    pub devices: (usize, usize, usize),
    /// Sessions per closed-loop round of the fleet workload.
    pub fleet_round: usize,
    /// Secret sizes of the provisioning workload, bytes.
    pub blobs: [usize; 3],
}

impl Sizes {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Self {
        Sizes {
            polybench_n: 48,
            minisql_n: 600,
            unrolled_funcs: 100,
            loopy_cycles: 16,
            devices: (38, 5, 5),
            fleet_round: 50,
            blobs: [64 << 10, 512 << 10, 2 << 20],
        }
    }

    /// Roughly a twentieth of everything, for the smoke test.
    #[must_use]
    pub fn quick() -> Self {
        Sizes {
            polybench_n: 12,
            minisql_n: 30,
            unrolled_funcs: 5,
            loopy_cycles: 1,
            devices: (4, 1, 1),
            fleet_round: 12,
            blobs: [4 << 10, 16 << 10, 96 << 10],
        }
    }
}

/// What one measured run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations wrong, refused or errored.
    pub failed: u64,
    /// One line per failed operation: workload, op id, what went wrong.
    pub failures: Vec<String>,
    /// The workload's headline latency, milliseconds: the fast tail of
    /// its samples (see [`stats::fast`]).
    pub op_ms: f64,
    /// The samples behind the headline, for the printed median, quartiles
    /// and tail.
    pub op_samples: Vec<f64>,
    /// Correct operations per second, from the same fast tails.
    pub ops_per_s: f64,
    /// Secure-world entries the run cost, over all its operations.
    pub enters: u64,
    /// Rounds completed.
    pub rounds: usize,
    /// Named sub-measurements: `(name, unit, value)`. Names that
    /// [`metrics::PER_LAYER`] declares are also reported by the traced run.
    pub detail: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Counts one attempted operation; `problem` is `Some` when it failed,
    /// and only then is the operation's label built.
    pub fn check(&mut self, workload: &str, op: impl FnOnce() -> String, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            self.failures.push(format!("{workload} {}: {why}", op()));
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
