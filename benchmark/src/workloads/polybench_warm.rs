//! `polybench_warm` (Fig 5): the 30 PolyBench kernels, already loaded,
//! invoked pass after pass. The register dispatch loop does nearly all the
//! work; compile, crypto and transport do none. A pass gets freshly loaded
//! modules (untimed) because the guests' bump allocator never frees, and
//! memory that grew with the pass count would tie peak RSS to speed.

use std::time::{Duration, Instant};

use watz_runtime::{AppConfig, WatzApp, WatzRuntime};
use watz_wasm::exec::{ExecMode, Value};
use watz_wasm::ExecProfile;
use workloads::polybench;

use super::{boot_device, mismatch, Workload};
use crate::gen::Expect;
use crate::layers::{self, RuntimePhases};
use crate::metrics::Layers;
use crate::stats::{fast, geomean};
use crate::trace::Tracer;
use crate::{Outcome, Sizes};

const NAME: &str = "polybench_warm";
/// Problem size of the tree-oracle comparison (the oracle is ~6x slower).
const INTERP_N: i32 = 16;

struct Kernel {
    name: &'static str,
    wasm: Vec<u8>,
    native: fn(usize) -> f64,
    /// The native kernel's checksum at the benchmark's problem size.
    expect: f64,
    /// Wall time of each timed invoke of the last run, milliseconds.
    samples: Vec<f64>,
    /// Their fast tail.
    wasm_ms: f64,
}

/// See the module documentation.
pub struct PolybenchWarm {
    rt: WatzRuntime,
    n: i32,
    kernels: Vec<Kernel>,
    phases: RuntimePhases,
}

impl PolybenchWarm {
    /// Compiles the suite, computes the native checksums, boots the device.
    ///
    /// # Errors
    ///
    /// A kernel that fails to compile or a device that fails to boot.
    pub fn setup(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let n = sizes.polybench_n;
        let kernels = polybench::suite()
            .into_iter()
            .map(|k| {
                Ok(Kernel {
                    name: k.name,
                    wasm: minic::compile(k.minic).map_err(|e| format!("{}: {e}", k.name))?,
                    native: k.native,
                    expect: (k.native)(n as usize),
                    samples: Vec::new(),
                    wasm_ms: 0.0,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PolybenchWarm {
            rt: boot_device(seed, NAME)?,
            n,
            kernels,
            phases: RuntimePhases::default(),
        })
    }

    fn load_all(&mut self, tr: &mut Tracer, round: u64) -> Result<Vec<WatzApp>, String> {
        let mut apps = Vec::with_capacity(self.kernels.len());
        for k in &self.kernels {
            let s = tr.begin("load", "watz-runtime", round, None);
            let t = Instant::now();
            let app = self
                .rt
                .load(&k.wasm, &AppConfig::default())
                .map_err(|e| format!("{}: {e}", k.name))?;
            let took = t.elapsed();
            tr.end(s);
            let b = app.startup_breakdown();
            layers::startup_phase_spans(tr, s, round, &b);
            self.phases.add(took, &b);
            apps.push(app);
        }
        self.phases.end_round();
        Ok(apps)
    }
}

impl Workload for PolybenchWarm {
    fn run(&mut self, budget: Duration, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        let enters0 = layers::enters(self.rt.platform());
        let args = [Value::I32(self.n)];
        loop {
            let round = out.rounds as u64;
            let mut apps = match self.load_all(tr, round) {
                Ok(apps) => apps,
                Err(e) => {
                    out.check(NAME, || "load".to_string(), Some(e));
                    break;
                }
            };
            let pass = tr.begin("pass", "benchmark", round, None);
            let mut pass_ms = 0.0;
            for (k, app) in self.kernels.iter_mut().zip(&mut apps) {
                let s = tr.begin("invoke", "watz-wasm", round, pass);
                let t = Instant::now();
                let got = app.invoke("kernel", &args);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tr.end(s);
                k.samples.push(ms);
                pass_ms += ms;
                let problem = match got {
                    Ok(v) => mismatch(&v, Expect::F64(k.expect)),
                    Err(e) => Some(e.to_string()),
                };
                out.check(NAME, || format!("pass {round} {}", k.name), problem);
            }
            tr.end(pass);
            out.op_samples.push(pass_ms);
            out.rounds += 1;
            if started.elapsed() >= budget {
                break;
            }
        }
        out.enters = layers::enters(self.rt.platform()) - enters0;
        // A pass is the sum of its kernels' fast tails: an undisturbed
        // 300 ms stretch is rare on a busy host, a few milliseconds are not.
        for k in &mut self.kernels {
            k.wasm_ms = fast(&k.samples);
        }
        out.op_ms = self.kernels.iter().map(|k| k.wasm_ms).sum();
        out.ops_per_s = self.kernels.len() as f64 / (out.op_ms / 1e3);
        out.detail.push(("op.pass_ms", "ms", out.op_ms));
        for k in &self.kernels {
            out.detail.push((k.name, "ms", k.wasm_ms));
        }
        out
    }

    fn layers(&mut self, outcome: &Outcome, out: &mut Layers) -> Result<(), String> {
        // Native reference in the normal world, repeated inside each sample
        // until the sample is at least 2 ms long.
        let n = self.n as usize;
        let mut ratios = Vec::new();
        for k in &self.kernels {
            let once = layers::fast_secs(3, || {
                std::hint::black_box((k.native)(n));
            });
            let reps = ((2e-3 / once.max(1e-9)).ceil() as usize).max(1);
            let native_ms =
                1e3 * layers::fast_secs(5, || {
                    for _ in 0..reps {
                        std::hint::black_box((k.native)(std::hint::black_box(n)));
                    }
                }) / reps as f64;
            let wasm_ms = k.wasm_ms;
            println!(
                "  {:<16} wasm-TEE {:>9.3} ms  native-REE {:>9.4} ms  ratio {:>7.2}",
                k.name,
                wasm_ms,
                native_ms,
                wasm_ms / native_ms
            );
            ratios.push(wasm_ms / native_ms);
        }
        out.set("op.wasm_native_x", geomean(&ratios));

        let costs = self
            .kernels
            .iter()
            .map(|k| layers::compile_cost(&k.wasm, 5))
            .collect::<Result<Vec<_>, _>>()?;
        layers::record_compile(out, &costs);

        let call = |n: i32| vec![("kernel".to_string(), vec![Value::I32(n)])];
        let mut profile = ExecProfile::default();
        let (mut counted, mut plain, mut oracle, mut register) = (0.0, 0.0, 0.0, 0.0);
        for k in &self.kernels {
            let run = layers::run_guest(&k.wasm, ExecMode::Aot, true, &call(self.n))?;
            profile.merge(&run.profile.unwrap_or_default());
            counted += run.elapsed.as_secs_f64();
            plain += layers::run_guest(&k.wasm, ExecMode::Aot, false, &call(self.n))?
                .elapsed
                .as_secs_f64();
            oracle += layers::run_guest(&k.wasm, ExecMode::Interpreted, false, &call(INTERP_N))?
                .elapsed
                .as_secs_f64();
            register += layers::run_guest(&k.wasm, ExecMode::Aot, false, &call(INTERP_N))?
                .elapsed
                .as_secs_f64();
        }
        layers::record_exec(out, &profile, outcome.op_ms / 1e3);
        out.set("watz-wasm.interp_x", oracle / register);
        out.set("watz-wasm.profile_overhead_x", counted / plain);

        self.phases.record(out);
        layers::record_runtime_host(out, &self.rt, outcome)?;
        layers::record_sha256(out);
        Ok(())
    }
}
