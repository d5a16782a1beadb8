//! The op-set ledger: dynamic dispatches per [`RegOp`] variant over the
//! benchmark's two guest suites, and the rule every specialised or fused
//! family is held to — it carries at least 1 % of the dispatches of one
//! suite, or it is deleted. Choosing superinstructions and specialisations
//! from a dynamic dispatch profile, not by hand, is the standard practice
//! for interpreters (Casey, Ertl & Gregg, *Optimizing indirect branch
//! prediction accuracy in virtual machine interpreters*, TOPLAS 2007).
//!
//! The counting arm of [`super::run_loop`] calls [`tally`] in test builds
//! only, so the shipped dispatch loop is unchanged.

use std::cell::RefCell;

use super::RegOp;
use crate::exec::{EngineConfig, ExecMode, Instance, NoHost, Value};
use crate::profile::{ExecProfile, ProfileMode};
use workloads::{polybench, speedtest};

/// What the ledger holds a variant to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Duty {
    /// Not held to a share, for the reason given.
    Exempt(&'static str),
    /// Its family — named here, the checked form for a check-free `*N`
    /// twin — carries >= 1 % of the dispatches of at least one suite.
    Pays(&'static str),
}

const WASM: Duty = Duty::Exempt("implements Wasm semantics");
const ELISION: Duty = Duty::Exempt("the bounds-check elision decision owns it");

/// Every [`RegOp`] variant, in declaration order, with its duty.
const VARIANTS: [(&str, Duty); 50] = [
    ("Unreachable", WASM),
    ("Jump", WASM),
    ("BrIf", WASM),
    ("BrMoves", WASM),
    ("BrIfMoves", WASM),
    ("BrTable", WASM),
    ("Return", WASM),
    ("CallLocal", WASM),
    ("CallImport", WASM),
    ("CallIndirect", WASM),
    ("Select", WASM),
    ("Move", WASM),
    ("Const", WASM),
    ("GlobalGet", WASM),
    ("GlobalSet", WASM),
    ("Load", WASM),
    ("Store", WASM),
    ("MemorySize", WASM),
    ("MemoryGrow", WASM),
    ("MemoryCopy", WASM),
    ("MemoryFill", WASM),
    ("Unop", WASM),
    ("Binop", WASM),
    ("BinopK", WASM),
    ("AddI32", Duty::Pays("AddI32")),
    ("MulI32", Duty::Pays("MulI32")),
    ("AddI32K", Duty::Pays("AddI32K")),
    ("AddF64", Duty::Pays("AddF64")),
    ("SubF64", Duty::Pays("SubF64")),
    ("MulF64", Duty::Pays("MulF64")),
    ("LoadI32R", ELISION),
    ("LoadF64R", ELISION),
    ("StoreI32R", ELISION),
    ("StoreF64R", ELISION),
    ("ScaleAddLoadI32", Duty::Pays("ScaleAddLoadI32")),
    ("ScaleAddLoadF64", Duty::Pays("ScaleAddLoadF64")),
    ("IdxLAddLoadF64", Duty::Pays("IdxLAddLoadF64")),
    ("AddStoreF64", Duty::Pays("AddStoreF64")),
    ("LoadI32N", ELISION),
    ("LoadF64N", ELISION),
    ("StoreI32N", ELISION),
    ("StoreF64N", ELISION),
    ("ScaleAddLoadI32N", Duty::Pays("ScaleAddLoadI32")),
    ("ScaleAddLoadF64N", Duty::Pays("ScaleAddLoadF64")),
    ("IdxLAddLoadF64N", Duty::Pays("IdxLAddLoadF64")),
    ("AddStoreF64N", Duty::Pays("AddStoreF64")),
    ("CmpBrLtSZ", Duty::Pays("CmpBrLtSZ")),
    ("CmpBr", Duty::Pays("CmpBr")),
    ("ScaleAdd", Duty::Pays("ScaleAdd")),
    ("IdxLAdd", Duty::Pays("IdxLAdd")),
];

/// The position of `op`'s variant in [`VARIANTS`].
fn index(op: &RegOp) -> usize {
    use RegOp as R;
    match op {
        R::Unreachable => 0,
        R::Jump { .. } => 1,
        R::BrIf { .. } => 2,
        R::BrMoves { .. } => 3,
        R::BrIfMoves { .. } => 4,
        R::BrTable { .. } => 5,
        R::Return { .. } => 6,
        R::CallLocal { .. } => 7,
        R::CallImport { .. } => 8,
        R::CallIndirect { .. } => 9,
        R::Select { .. } => 10,
        R::Move { .. } => 11,
        R::Const { .. } => 12,
        R::GlobalGet { .. } => 13,
        R::GlobalSet { .. } => 14,
        R::Load { .. } => 15,
        R::Store { .. } => 16,
        R::MemorySize { .. } => 17,
        R::MemoryGrow { .. } => 18,
        R::MemoryCopy { .. } => 19,
        R::MemoryFill { .. } => 20,
        R::Unop { .. } => 21,
        R::Binop { .. } => 22,
        R::BinopK { .. } => 23,
        R::AddI32 { .. } => 24,
        R::MulI32 { .. } => 25,
        R::AddI32K { .. } => 26,
        R::AddF64 { .. } => 27,
        R::SubF64 { .. } => 28,
        R::MulF64 { .. } => 29,
        R::LoadI32R { .. } => 30,
        R::LoadF64R { .. } => 31,
        R::StoreI32R { .. } => 32,
        R::StoreF64R { .. } => 33,
        R::ScaleAddLoadI32 { .. } => 34,
        R::ScaleAddLoadF64 { .. } => 35,
        R::IdxLAddLoadF64 { .. } => 36,
        R::AddStoreF64 { .. } => 37,
        R::LoadI32N { .. } => 38,
        R::LoadF64N { .. } => 39,
        R::StoreI32N { .. } => 40,
        R::StoreF64N { .. } => 41,
        R::ScaleAddLoadI32N { .. } => 42,
        R::ScaleAddLoadF64N { .. } => 43,
        R::IdxLAddLoadF64N { .. } => 44,
        R::AddStoreF64N { .. } => 45,
        R::CmpBrLtSZ { .. } => 46,
        R::CmpBr { .. } => 47,
        R::ScaleAdd { .. } => 48,
        R::IdxLAdd { .. } => 49,
    }
}

thread_local! {
    /// Dispatches per [`VARIANTS`] entry of this thread's counting runs.
    static TALLY: RefCell<[u64; VARIANTS.len()]> = const { RefCell::new([0; VARIANTS.len()]) };
}

/// Counts one dispatch of `op` (the counting loop's test-build hook).
pub(super) fn tally(op: &RegOp) {
    let i = index(op);
    TALLY.with_borrow_mut(|t| {
        if t[i] == 0 {
            let name = format!("{op:?}");
            assert!(
                name.starts_with(VARIANTS[i].0)
                    && !name[VARIANTS[i].0.len()..].starts_with(char::is_alphanumeric),
                "VARIANTS[{i}] is {}, not the variant of {name}",
                VARIANTS[i].0
            );
        }
        t[i] += 1;
    });
}

/// One suite's dispatches per variant and its profile.
struct Suite {
    name: String,
    dispatches: [u64; VARIANTS.len()],
    profile: ExecProfile,
}

impl Suite {
    /// Runs `calls` on each module of `modules`, on a fresh counting
    /// register instance per module (the default configuration).
    fn run(name: String, modules: &[Vec<u8>], calls: &[(&str, Vec<Value>)]) -> Suite {
        TALLY.with_borrow_mut(|t| t.fill(0));
        let cfg = EngineConfig {
            profile: ProfileMode::Count,
            ..EngineConfig::default()
        };
        let mut profile = ExecProfile::default();
        for wasm in modules {
            let module = crate::load(wasm).expect("suite module loads");
            let mut inst = Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost)
                .expect("suite module instantiates");
            assert!(
                inst.reg_stats().is_some(),
                "{name} runs on the register engine"
            );
            for (export, args) in calls {
                inst.invoke(&mut NoHost, export, args)
                    .unwrap_or_else(|e| panic!("{name} {export}{args:?}: {e}"));
            }
            profile.merge(inst.profile().expect("counting"));
        }
        let dispatches = TALLY.with_borrow(|t| *t);
        assert_eq!(
            dispatches.iter().sum::<u64>(),
            profile.host_ops,
            "{name}: the ledger counts every dispatch"
        );
        Suite {
            name,
            dispatches,
            profile,
        }
    }

    /// The 30 PolyBench kernels at problem size `n`.
    fn polybench(n: i32) -> Suite {
        let modules: Vec<Vec<u8>> = polybench::suite()
            .iter()
            .map(|k| minic::compile(k.minic).expect("kernel compiles"))
            .collect();
        Suite::run(
            format!("polybench n={n}"),
            &modules,
            &[("kernel", vec![Value::I32(n)])],
        )
    }

    /// The speedtest guest: `setup(n)`, then the experiments in id order.
    fn minisql(n: i32) -> Suite {
        let options = minic::Options {
            min_pages: 256,
            max_pages: None,
        };
        let wasm = minic::compile_with_options(speedtest::MINISQL_GUEST, &options)
            .expect("speedtest guest compiles");
        let mut calls = vec![("setup", vec![Value::I32(n)])];
        calls.extend(
            speedtest::experiments()
                .iter()
                .map(|e| ("run_exp", vec![Value::I32(e.id as i32), Value::I32(n)])),
        );
        Suite::run(format!("minisql n={n}"), &[wasm], &calls)
    }

    /// `count` as a share of this suite's dispatches.
    fn share(&self, count: u64) -> f64 {
        100.0 * count as f64 / self.profile.host_ops as f64
    }

    /// Dispatches of every variant `duty` holds to family `family`.
    fn family(&self, family: &str) -> u64 {
        VARIANTS
            .iter()
            .zip(&self.dispatches)
            .filter(|((_, duty), _)| matches!(duty, Duty::Pays(f) if *f == family))
            .map(|(_, n)| n)
            .sum()
    }
}

/// The paying families, in declaration order.
fn families() -> Vec<&'static str> {
    let mut out = Vec::new();
    for (_, duty) in VARIANTS {
        if let Duty::Pays(f) = duty {
            if !out.contains(&f) {
                out.push(f);
            }
        }
    }
    out
}

/// The ledger of `suites` as a table: every variant, then every family.
fn table(suites: &[Suite]) -> String {
    let mut out = format!("{:<18}{:<18}", "variant", "counted with");
    for s in suites {
        out += &format!("{:>26}", s.name);
    }
    out.push('\n');
    let cell = |s: &Suite, n: u64| format!("{n:>16} {:>7.3} %", s.share(n));
    for (i, (name, duty)) in VARIANTS.iter().enumerate() {
        let with = match duty {
            Duty::Exempt(_) => "(exempt)",
            Duty::Pays(f) => f,
        };
        out += &format!("{name:<18}{with:<18}");
        for s in suites {
            out += &format!(" {}", cell(s, s.dispatches[i]));
        }
        if let Duty::Exempt(why) = duty {
            out += &format!("  {why}");
        }
        out.push('\n');
    }
    out += "\nfamily (>= 1 % of one suite, or deleted)\n";
    for f in families() {
        out += &format!("{f:<36}");
        for s in suites {
            out += &format!(" {}", cell(s, s.family(f)));
        }
        out.push('\n');
    }
    out += "\n";
    for s in suites {
        out += &format!(
            "{}: host_ops {}, instret {}\n",
            s.name, s.profile.host_ops, s.profile.instret
        );
    }
    out
}

/// The families that carry < 1 % of the dispatches of every suite.
fn below_one_percent(suites: &[Suite]) -> Vec<&'static str> {
    families()
        .into_iter()
        .filter(|f| suites.iter().all(|s| s.share(s.family(f)) < 1.0))
        .collect()
}

#[test]
fn every_specialised_or_fused_family_carries_one_percent() {
    // The benchmark's `--quick` sizes.
    let suites = [Suite::polybench(12), Suite::minisql(30)];
    let ledger = table(&suites);
    println!("{ledger}");
    assert_eq!(
        below_one_percent(&suites),
        Vec::<&str>::new(),
        "families below 1 % of every suite's dispatches:\n{ledger}"
    );
    // Exact `(host_ops, instret)`: instret is the tree oracle's count and
    // moves only with the guests; host_ops moves with every rule or
    // specialisation added or removed.
    let counts = |s: &Suite| (s.profile.host_ops, s.profile.instret);
    assert_eq!(counts(&suites[0]), (1_269_358, 4_173_612), "\n{ledger}");
    assert_eq!(counts(&suites[1]), (234_113, 576_323), "\n{ledger}");
}

#[test]
#[ignore = "the benchmark's sizes: run in release with --ignored --nocapture"]
fn ledger_at_benchmark_sizes() {
    let suites = [Suite::polybench(48), Suite::minisql(600)];
    println!("{}", table(&suites));
}
