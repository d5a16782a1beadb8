//! `cold_start` (Fig 4): launching modules, where a launch is
//! `WatzRuntime::load` plus the first invoke. Decode, validate, lower,
//! fuse, regalloc and analysis do ~90 % of the work and the dispatch loop
//! under 1 %. A round launches 32 small real modules (the 30 PolyBench
//! kernels, minisql, the Genann guest; 1-6 KB), which isolate the fixed
//! cost of a launch (world switch, TA heap, WASI env, hash), and two of
//! ~480 KB, which isolate the per-byte compile cost: `large_unrolled` is
//! straight-line code, `large_loopy` is loop nests, so a pass that scales
//! with control flow separates from one that scales with bytes. This is
//! the workload that pays for any optimisation `polybench_warm` gains from.

use std::time::{Duration, Instant};

use watz_runtime::{AppConfig, WatzRuntime};
use watz_wasm::exec::{ExecMode, Value};
use watz_wasm::ExecProfile;
use workloads::{genann_guest, polybench, speedtest};

use super::{boot_device, expect_of, mismatch, Workload};
use crate::gen::{self, Expect, GuestModule, Rng, LAUNCH_N};
use crate::layers::{self, RuntimePhases};
use crate::metrics::Layers;
use crate::stats::fast;
use crate::trace::Tracer;
use crate::{Outcome, Sizes};

const NAME: &str = "cold_start";

struct Launch {
    module: GuestModule,
    config: AppConfig,
    /// SHA-256 of the bytes: what `measurement()` must return.
    measurement: [u8; 32],
    large: bool,
    /// Launch times of this module, milliseconds (large modules only; the
    /// small ones share one series).
    ms: Vec<f64>,
}

/// See the module documentation.
pub struct ColdStart {
    rt: WatzRuntime,
    /// Small modules in seeded order, then the two large ones.
    launches: Vec<Launch>,
    phases: RuntimePhases,
}

fn first_call(m: &GuestModule) -> layers::Call {
    (m.entry.clone(), m.arg.map(Value::I32).into_iter().collect())
}

impl ColdStart {
    /// Compiles the small modules, generates the large ones and computes
    /// every first invoke's answer (native kernel or tree oracle).
    ///
    /// # Errors
    ///
    /// Compile, boot or oracle failures as text.
    pub fn setup(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let default = AppConfig::default();
        let roomy = AppConfig {
            heap_bytes: optee_sim::TA_HEAP_CAP,
            mode: ExecMode::Aot,
        };
        let mut small: Vec<(GuestModule, AppConfig)> = Vec::new();
        for k in polybench::suite() {
            small.push((
                GuestModule {
                    name: k.name,
                    wasm: minic::compile(k.minic).map_err(|e| format!("{}: {e}", k.name))?,
                    entry: "kernel".to_string(),
                    arg: Some(LAUNCH_N),
                    expect: Expect::F64((k.native)(LAUNCH_N as usize)),
                },
                default.clone(),
            ));
        }
        let minisql = minic::compile_with_options(
            speedtest::MINISQL_GUEST,
            &minic::Options {
                min_pages: 256,
                max_pages: None,
            },
        )
        .map_err(|e| e.to_string())?;
        let genann = minic::compile(&genann_guest::source()).map_err(|e| e.to_string())?;
        for (name, wasm, entry, arg, config) in [
            ("minisql", minisql, "setup", 10, roomy.clone()),
            ("genann", genann, "buf_alloc", 4, default.clone()),
        ] {
            let mut module = GuestModule {
                name,
                wasm,
                entry: entry.to_string(),
                arg: Some(arg),
                expect: Expect::I32(0),
            };
            let oracle = layers::run_guest(
                &module.wasm,
                ExecMode::Interpreted,
                false,
                &[first_call(&module)],
            )?;
            module.expect = expect_of(&oracle.results[0])?;
            small.push((module, config));
        }
        Rng::new(seed, "launch_order").shuffle(&mut small);
        let large = [
            gen::large_unrolled(seed, sizes.unrolled_funcs),
            gen::large_loopy(seed, sizes.loopy_cycles),
        ];
        let launches = small
            .into_iter()
            .map(|(m, c)| (m, c, false))
            .chain(large.into_iter().map(|m| (m, roomy.clone(), true)))
            .map(|(module, config, large)| Launch {
                measurement: layers::sha256(&module.wasm),
                module,
                config,
                large,
                ms: Vec::new(),
            })
            .collect();
        Ok(ColdStart {
            rt: boot_device(seed, NAME)?,
            launches,
            phases: RuntimePhases::default(),
        })
    }

    /// The generated large modules (for the determinism tests).
    #[must_use]
    pub fn large_modules(&self) -> Vec<&GuestModule> {
        self.launches
            .iter()
            .filter(|l| l.large)
            .map(|l| &l.module)
            .collect()
    }
}

impl Workload for ColdStart {
    fn run(&mut self, budget: Duration, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        let enters0 = layers::enters(self.rt.platform());
        let mut small = Vec::new();
        loop {
            let round = out.rounds as u64;
            for l in &mut self.launches {
                let (name, args) = first_call(&l.module);
                let launch = tr.begin("launch", "benchmark", round, None);
                let s = tr.begin("load", "watz-runtime", round, launch);
                let t = Instant::now();
                let loaded = self.rt.load(&l.module.wasm, &l.config);
                let load_time = t.elapsed();
                tr.end(s);
                let problem = match loaded {
                    Err(e) => Some(e.to_string()),
                    Ok(mut app) => {
                        let i = tr.begin("first_invoke", "watz-wasm", round, launch);
                        let got = app.invoke(&name, &args);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tr.end(i);
                        if l.large {
                            l.ms.push(ms);
                        } else {
                            small.push(ms);
                        }
                        let b = app.startup_breakdown();
                        layers::startup_phase_spans(tr, s, round, &b);
                        self.phases.add(load_time, &b);
                        match got {
                            Err(e) => Some(e.to_string()),
                            Ok(_) if app.measurement() != l.measurement => {
                                Some("measurement is not the SHA-256 of the bytes".to_string())
                            }
                            Ok(v) => mismatch(&v, l.module.expect),
                        }
                    }
                };
                tr.end(launch);
                out.check(NAME, || format!("round {round} {}", l.module.name), problem);
            }
            self.phases.end_round();
            out.rounds += 1;
            if started.elapsed() >= budget {
                break;
            }
        }
        out.enters = layers::enters(self.rt.platform()) - enters0;
        out.op_ms = fast(&small);
        out.op_samples = small;
        out.detail.push(("op.launch_small_ms", "ms", out.op_ms));
        // A round's time from the fast tails of its launches: the small
        // modules share one, each large module has its own.
        let n_small = self.launches.iter().filter(|l| !l.large).count();
        let mut round_ms = n_small as f64 * out.op_ms;
        let (mut large_ms, mut large_bytes) = (0.0, 0usize);
        for l in self.launches.iter().filter(|l| l.large) {
            let ms = fast(&l.ms);
            let name = if l.module.name == "large_unrolled" {
                "op.launch_unrolled_ms"
            } else {
                "op.launch_loopy_ms"
            };
            out.detail.push((name, "ms", ms));
            out.detail
                .push((l.module.name, "B", l.module.wasm.len() as f64));
            large_ms += ms;
            large_bytes += l.module.wasm.len();
        }
        round_ms += large_ms;
        out.ops_per_s = self.launches.len() as f64 / (round_ms / 1e3);
        out.detail.push((
            "op.launch_mb_per_s",
            "MB/s",
            large_bytes as f64 / 1e6 / (large_ms / 1e3),
        ));
        out
    }

    fn layers(&mut self, outcome: &Outcome, out: &mut Layers) -> Result<(), String> {
        let costs = self
            .launches
            .iter()
            .map(|l| layers::compile_cost(&l.module.wasm, 3))
            .collect::<Result<Vec<_>, _>>()?;
        for (l, c) in self.launches.iter().zip(&costs).filter(|(l, _)| l.large) {
            println!(
                "  {:<15} {:>7} B  decode {:.2}  validate {:.2}  lower {:.2}  fuse {:.2}  regalloc {:.2}  elide {:.2}  verify {:.2} ms",
                l.module.name, c.bytes, c.decode_ms, c.validate_ms, c.lower_ms, c.fuse_ms,
                c.regalloc_ms, c.elide_ms, c.verify_ms
            );
        }
        layers::record_compile(out, &costs);

        let mut profile = ExecProfile::default();
        for l in &self.launches {
            let run = layers::run_guest(
                &l.module.wasm,
                ExecMode::Aot,
                true,
                &[first_call(&l.module)],
            )?;
            profile.merge(&run.profile.unwrap_or_default());
        }
        self.phases.record(out);
        // The counted calls are one round's first invokes.
        layers::record_exec(out, &profile, out.get("watz-runtime.first_invoke_us") / 1e6);
        layers::record_runtime_host(out, &self.rt, outcome)?;
        layers::record_sha256(out);
        Ok(())
    }
}
