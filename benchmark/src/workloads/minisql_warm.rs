//! `minisql_warm` (Fig 6): the Speedtest1-style suite on the MiniC SQL
//! guest. The same dispatch loop as `polybench_warm`, used differently:
//! integer compares, branches, calls, stores and `memory.grow`. Reads are
//! reported beside writes, so an engine change tuned to loop nests that
//! costs branchy code, or a write-path gain that costs reads, shows. Each
//! pass runs on a fresh database: load + `setup(n)` count towards the
//! pass's throughput but not its latency.

use std::time::{Duration, Instant};

use watz_runtime::{AppConfig, WatzRuntime};
use watz_wasm::exec::{ExecMode, Value};
use workloads::speedtest::{self, Kind};

use super::{boot_device, expect_of, mismatch, Workload};
use crate::gen::Expect;
use crate::layers::{self, Call, RuntimePhases};
use crate::metrics::Layers;
use crate::stats::fast;
use crate::trace::Tracer;
use crate::{Outcome, Sizes};

const NAME: &str = "minisql_warm";

/// See the module documentation.
pub struct MinisqlWarm {
    rt: WatzRuntime,
    wasm: Vec<u8>,
    config: AppConfig,
    /// `setup(n)` followed by the 31 experiments in id order.
    calls: Vec<Call>,
    kinds: Vec<Kind>,
    /// The tree oracle's answer to each call.
    expect: Vec<Expect>,
    oracle_secs: f64,
    /// Samples of `load` and of each call, milliseconds.
    load: Vec<f64>,
    samples: Vec<Vec<f64>>,
    /// Fast tail of `setup(n)`.
    populate_ms: f64,
    phases: RuntimePhases,
}

impl MinisqlWarm {
    /// Compiles the guest and runs the whole call list once on the tree
    /// interpreter for the reference answers.
    ///
    /// # Errors
    ///
    /// Compile, boot or oracle failures as text.
    pub fn setup(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let n = sizes.minisql_n;
        let wasm = minic::compile_with_options(
            speedtest::MINISQL_GUEST,
            &minic::Options {
                min_pages: 256, // 16 MiB for the tables
                max_pages: None,
            },
        )
        .map_err(|e| e.to_string())?;
        let experiments = speedtest::experiments();
        let mut calls: Vec<Call> = vec![("setup".to_string(), vec![Value::I32(n)])];
        calls.extend(experiments.iter().map(|e| {
            (
                "run_exp".to_string(),
                vec![Value::I32(e.id as i32), Value::I32(n)],
            )
        }));
        let oracle = layers::run_guest(&wasm, ExecMode::Interpreted, false, &calls)?;
        let expect = oracle
            .results
            .iter()
            .map(|r| expect_of(r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MinisqlWarm {
            rt: boot_device(seed, NAME)?,
            wasm,
            config: AppConfig {
                heap_bytes: 25 << 20,
                mode: ExecMode::Aot,
            },
            calls,
            kinds: experiments.iter().map(|e| e.kind).collect(),
            expect,
            oracle_secs: oracle.elapsed.as_secs_f64(),
            load: Vec::new(),
            samples: Vec::new(),
            populate_ms: 0.0,
            phases: RuntimePhases::default(),
        })
    }
}

impl Workload for MinisqlWarm {
    fn run(&mut self, budget: Duration, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        let enters0 = layers::enters(self.rt.platform());
        self.samples = vec![Vec::new(); self.calls.len()];
        loop {
            let round = out.rounds as u64;
            let pass = tr.begin("pass", "benchmark", round, None);
            let s = tr.begin("load", "watz-runtime", round, pass);
            let t = Instant::now();
            let loaded = self.rt.load(&self.wasm, &self.config);
            let took = t.elapsed();
            tr.end(s);
            let mut app = match loaded {
                Ok(app) => app,
                Err(e) => {
                    out.check(NAME, || format!("pass {round} load"), Some(e.to_string()));
                    break;
                }
            };
            self.load.push(took.as_secs_f64() * 1e3);
            let b = app.startup_breakdown();
            layers::startup_phase_spans(tr, s, round, &b);
            self.phases.add(took, &b);
            self.phases.end_round();

            let mut pass_ms = 0.0;
            for (i, ((name, args), expect)) in self.calls.iter().zip(&self.expect).enumerate() {
                let span = if i == 0 { "setup" } else { "run_exp" };
                let s = tr.begin(span, "watz-wasm", round, pass);
                let t = Instant::now();
                let got = app.invoke(name, args);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tr.end(s);
                self.samples[i].push(ms);
                if i > 0 {
                    pass_ms += ms;
                }
                let problem = match got {
                    Ok(v) => mismatch(&v, *expect),
                    Err(e) => Some(e.to_string()),
                };
                out.check(NAME, || format!("pass {round} {name}{args:?}"), problem);
            }
            tr.end(pass);
            out.op_samples.push(pass_ms);
            out.rounds += 1;
            if started.elapsed() >= budget {
                break;
            }
        }
        out.enters = layers::enters(self.rt.platform()) - enters0;
        // A pass is the sum of its experiments' fast tails.
        let load_ms = fast(&self.load);
        let times: Vec<f64> = self.samples.iter().map(|s| fast(s)).collect();
        self.populate_ms = times[0];
        let of_kind = |kind: Kind| -> f64 {
            times[1..]
                .iter()
                .zip(&self.kinds)
                .filter(|(_, k)| **k == kind)
                .map(|(m, _)| m)
                .sum()
        };
        out.op_ms = times[1..].iter().sum();
        out.ops_per_s = self.calls.len() as f64 / ((load_ms + self.populate_ms + out.op_ms) / 1e3);
        out.detail.push(("op.pass_ms", "ms", out.op_ms));
        out.detail.push(("op.read_ms", "ms", of_kind(Kind::Read)));
        out.detail.push(("op.write_ms", "ms", of_kind(Kind::Write)));
        out.detail.push(("load", "ms", load_ms));
        out.detail.push(("populate", "ms", self.populate_ms));
        out
    }

    fn layers(&mut self, outcome: &Outcome, out: &mut Layers) -> Result<(), String> {
        layers::record_compile(out, &[layers::compile_cost(&self.wasm, 5)?]);

        let counted = layers::run_guest(&self.wasm, ExecMode::Aot, true, &self.calls)?;
        let plain = layers::run_guest(&self.wasm, ExecMode::Aot, false, &self.calls)?;
        // The counted calls are setup + experiments, so rate them against
        // the untraced time of the same calls.
        let op_secs = (outcome.op_ms + self.populate_ms) / 1e3;
        layers::record_exec(out, &counted.profile.unwrap_or_default(), op_secs);
        out.set(
            "watz-wasm.interp_x",
            self.oracle_secs / plain.elapsed.as_secs_f64(),
        );
        out.set(
            "watz-wasm.profile_overhead_x",
            counted.elapsed.as_secs_f64() / plain.elapsed.as_secs_f64(),
        );

        self.phases.record(out);
        layers::record_runtime_host(out, &self.rt, outcome)?;
        layers::record_sha256(out);
        Ok(())
    }
}
