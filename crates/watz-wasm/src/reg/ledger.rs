//! The op-set ledger: dynamic dispatches per [`RegOp`] variant over the
//! benchmark's guest suites (PolyBench, the speedtest, Genann), and the
//! rule every specialised or fused variant is held to — it carries at
//! least 1 % of the dispatches of one suite, at the benchmark's `--quick`
//! sizes and at its full sizes, or it is deleted. Choosing superinstructions and specialisations
//! from a dynamic dispatch profile, not by hand, is the standard practice
//! for interpreters (Casey, Ertl & Gregg, *Optimizing indirect branch
//! prediction accuracy in virtual machine interpreters*, TOPLAS 2007).
//!
//! The counting arm of [`super::run_loop`] calls [`tally`] in test builds
//! only, so the shipped dispatch loop is unchanged. It also counts each
//! dynamic successor pair (the variant dispatched, after the one dispatched
//! before it in the same invocation): a pair that carries a large share is
//! the candidate for the next superinstruction.

use std::cell::{Cell, RefCell};

use super::{Duty, RegOp, RULES};
use crate::exec::{EngineConfig, ExecMode, Instance, NoHost, Value};
use crate::profile::{ExecProfile, ProfileMode};
use workloads::{genann_guest, polybench, speedtest};

const WASM: Duty = Duty::Exempt("implements Wasm semantics");

/// Every [`RegOp`] variant, in declaration order: the first [`GENERIC`]
/// implement Wasm semantics one instruction at a time, the rest are
/// specialised or fused.
const VARIANTS: [&str; 39] = [
    "Unreachable",
    "Jump",
    "BrIf",
    "BrMoves",
    "BrIfMoves",
    "BrTable",
    "Return",
    "CallLocal",
    "CallImport",
    "CallIndirect",
    "Select",
    "Move",
    "Const",
    "GlobalGet",
    "GlobalSet",
    "Load",
    "Store",
    "MemorySize",
    "MemoryGrow",
    "MemoryCopy",
    "MemoryFill",
    "Unop",
    "Binop",
    "BinopK",
    "AddI32K",
    "AddF64",
    "SubF64",
    "MulF64",
    "StoreI32R",
    "StoreF64R",
    "ScaleAddLoadI32",
    "ScaleAddLoadF64",
    "IdxLAddLoadF64",
    "AddStoreF64",
    "CmpBr",
    "IncBrLtS",
    "ScaleAdd",
    "IdxLAdd",
    "MulAddI32",
];

/// How many of [`VARIANTS`], from the first, are generic.
const GENERIC: usize = 24;

/// The specialised forms lowering picks for every op of their operator or
/// width, fused or not (`sel_binop`, `sel_store`): they pay as the rules'
/// forms do, but no rule is why they exist.
const SPECIALISED: [&str; 5] = ["AddF64", "SubF64", "MulF64", "StoreI32R", "StoreF64R"];

/// What the ledger holds `VARIANTS[i]` to, read off the registry: a
/// generic variant is exempt, a specialised one pays, and any other takes
/// the duty of the rows of [`RULES`] that may emit it (it pays if one of
/// them pays). `None`: nothing accounts for the variant.
fn duty(i: usize) -> Option<Duty> {
    let name = VARIANTS[i];
    if i < GENERIC {
        return Some(WASM);
    }
    if SPECIALISED.contains(&name) {
        return Some(Duty::Pays);
    }
    RULES
        .iter()
        .filter(|row| row.2.split(' ').any(|v| v == name))
        .map(|row| row.3)
        .max_by_key(|d| *d == Duty::Pays)
}

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
        R::AddI32K { .. } => 24,
        R::AddF64 { .. } => 25,
        R::SubF64 { .. } => 26,
        R::MulF64 { .. } => 27,
        R::StoreI32R { .. } => 28,
        R::StoreF64R { .. } => 29,
        R::ScaleAddLoadI32 { .. } => 30,
        R::ScaleAddLoadF64 { .. } => 31,
        R::IdxLAddLoadF64 { .. } => 32,
        R::AddStoreF64 { .. } => 33,
        R::CmpBr { .. } => 34,
        R::IncBrLtS { .. } => 35,
        R::ScaleAdd { .. } => 36,
        R::IdxLAdd { .. } => 37,
        R::MulAddI32 { .. } => 38,
    }
}

/// `VARIANTS.len()`.
const N: usize = VARIANTS.len();

/// [`PREV`] before the first dispatch of an invocation.
const START: usize = N;

thread_local! {
    /// Dispatches per [`VARIANTS`] entry of this thread's counting runs.
    static TALLY: RefCell<[u64; N]> = const { RefCell::new([0; N]) };
    /// The [`VARIANTS`] entry dispatched last, or [`START`].
    static PREV: Cell<usize> = const { Cell::new(START) };
    /// Dispatches per `(previous, this)` pair of [`VARIANTS`] entries.
    static PAIRS: RefCell<[[u64; N]; N]> = const { RefCell::new([[0; N]; N]) };
}

/// Counts one dispatch of `op` (the counting loop's test-build hook).
pub(super) fn tally(op: &RegOp) {
    let i = index(op);
    let prev = PREV.replace(i);
    if prev != START {
        PAIRS.with_borrow_mut(|p| p[prev][i] += 1);
    }
    TALLY.with_borrow_mut(|t| {
        if t[i] == 0 {
            let name = format!("{op:?}");
            assert!(
                name.starts_with(VARIANTS[i])
                    && !name[VARIANTS[i].len()..].starts_with(char::is_alphanumeric),
                "VARIANTS[{i}] is {}, not the variant of {name}",
                VARIANTS[i]
            );
        }
        t[i] += 1;
    });
}

/// One suite's dispatches per variant and per successor pair, and its
/// profile.
struct Suite {
    name: String,
    dispatches: [u64; N],
    pairs: Box<[[u64; N]; N]>,
    profile: ExecProfile,
}

impl Suite {
    /// Runs `calls` on each module of `modules`, on a fresh counting
    /// register instance per module (the default configuration), after
    /// `prepare` (whose dispatches count too) has set the instance up.
    fn run(
        name: String,
        modules: &[Vec<u8>],
        prepare: impl Fn(&mut Instance),
        calls: &[(&str, Vec<Value>)],
    ) -> Suite {
        TALLY.with_borrow_mut(|t| t.fill(0));
        PAIRS.with_borrow_mut(|p| p.iter_mut().for_each(|row| row.fill(0)));
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
            PREV.set(START);
            prepare(&mut inst);
            for (export, args) in calls {
                PREV.set(START);
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
            pairs: Box::new(PAIRS.with_borrow(|p| *p)),
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
            |_| {},
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
        Suite::run(format!("minisql n={n}"), &[wasm], |_| {}, &calls)
    }

    /// The Genann guest: `epochs` of training on Fig 8's `kb` kB dataset.
    fn genann(kb: usize, epochs: i32) -> Suite {
        let options = minic::Options {
            min_pages: 128,
            max_pages: None,
        };
        let wasm = minic::compile_with_options(&genann_guest::source(), &options)
            .expect("Genann guest compiles");
        let samples = genann_rs::iris::from_csv(&genann_rs::iris::replicated_csv(kb * 1024));
        let n = samples.len() as i32;
        let (features, labels) = genann_guest::flatten(&samples);
        let prepare = |inst: &mut Instance| {
            let mut ptr = |export, args: &[Value]| {
                inst.invoke(&mut NoHost, export, args)
                    .expect("Genann set-up")[0]
                    .as_u32()
            };
            let (fp, lp) = (ptr("buf_alloc", &[Value::I32(n)]), ptr("labels_ptr", &[]));
            let memory = inst.memory_mut();
            memory.write_bytes(fp, &features).expect("features fit");
            memory.write_bytes(lp, &labels).expect("labels fit");
        };
        Suite::run(
            format!("genann {kb} kB x{epochs}"),
            &[wasm],
            prepare,
            &[("train", vec![Value::I32(n), Value::I32(epochs)])],
        )
    }

    /// `count` as a share of this suite's dispatches.
    fn share(&self, count: u64) -> f64 {
        100.0 * count as f64 / self.profile.host_ops as f64
    }
}

/// The ledger of `suites` as a table: every variant, its dispatches and
/// share per suite, and why an exempt one is exempt.
fn table(suites: &[Suite]) -> String {
    let mut out = format!("{:<18}{:<10}", "variant", "duty");
    for s in suites {
        out += &format!("{:>26}", s.name);
    }
    out.push('\n');
    for (i, name) in VARIANTS.iter().enumerate() {
        let duty = duty(i).unwrap_or(Duty::Exempt("no rule emits it"));
        let pays = match duty {
            Duty::Exempt(_) => "(exempt)",
            Duty::Pays => ">= 1 %",
        };
        out += &format!("{name:<18}{pays:<10}");
        for s in suites {
            let n = s.dispatches[i];
            out += &format!(" {n:>16} {:>7.3} %", s.share(n));
        }
        if let Duty::Exempt(why) = duty {
            out += &format!("  {why}");
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

/// Each suite's `top` most frequent successor pairs `(previous -> variant)`
/// with their share of its dispatches.
fn pair_table(suites: &[Suite], top: usize) -> String {
    let mut out = String::new();
    for s in suites {
        let mut pairs: Vec<(u64, usize, usize)> = (0..N)
            .flat_map(|p| (0..N).map(move |i| (p, i)))
            .map(|(p, i)| (s.pairs[p][i], p, i))
            .filter(|&(n, _, _)| n > 0)
            .collect();
        pairs.sort_unstable_by(|a, b| b.cmp(a));
        out += &format!("{}: top {top} successor pairs\n", s.name);
        for (n, p, i) in pairs.into_iter().take(top) {
            let pair = format!("{} -> {}", VARIANTS[p], VARIANTS[i]);
            out += &format!("  {pair:<40}{n:>16} {:>7.3} %\n", s.share(n));
        }
    }
    out
}

/// The paying variants that carry < 1 % of the dispatches of every suite.
fn below_one_percent(suites: &[Suite]) -> Vec<&'static str> {
    (0..N)
        .filter(|&i| {
            duty(i) == Some(Duty::Pays) && suites.iter().all(|s| s.share(s.dispatches[i]) < 1.0)
        })
        .map(|i| VARIANTS[i])
        .collect()
}

#[test]
fn every_variant_and_doc_row_is_accounted_for_by_the_registry() {
    for (i, (rule, name, emits, _)) in RULES.iter().enumerate() {
        assert_eq!(*rule as usize, i, "RULES row {i} ({name}) is out of order");
        for v in emits.split(' ') {
            assert!(
                VARIANTS.contains(&v),
                "{name} emits {v}, not a RegOp variant"
            );
        }
    }
    for (i, name) in VARIANTS.iter().enumerate() {
        assert!(
            duty(i).is_some(),
            "{name} is neither generic-exempt, specialised nor emitted by a RULES row"
        );
    }
    // The module docs' rule table: one row per rule, in `RULES` order,
    // naming the rule and exactly the variants it may emit.
    let doc: Vec<(String, Vec<String>)> = include_str!("../reg.rs")
        .lines()
        .map_while(|line| line.strip_prefix("//!"))
        .filter_map(|line| line.trim().strip_prefix("| `"))
        .map(|row| {
            let cells: Vec<&str> = row.split(" | ").collect();
            let ops = cells[cells.len() - 1].split('`').skip(1).step_by(2);
            let name = cells[0].trim_end_matches('`').to_string();
            (name, ops.map(str::to_string).collect())
        })
        .collect();
    let registry: Vec<(String, Vec<String>)> = RULES
        .iter()
        .map(|(_, name, emits, _)| {
            (
                name.to_string(),
                emits.split(' ').map(str::to_string).collect(),
            )
        })
        .collect();
    assert_eq!(
        doc, registry,
        "the reg.rs module-doc table is not the registry"
    );
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
        "variants below 1 % of every suite's dispatches:\n{ledger}"
    );
    // Exact `(host_ops, instret)`: instret is the tree oracle's count and
    // moves only with the guests; host_ops moves with every rule or
    // specialisation added or removed.
    let counts = |s: &Suite| (s.profile.host_ops, s.profile.instret);
    // PolyBench was (878 550, 4 173 612) and minisql (169 791, 576 323)
    // before code motion: loop-invariant ops moved in front of their
    // loops, and heads that compared with one got a latch. They were
    // (990 017, …) and (185 881, …) before the `latch` rule: a counted
    // loop's step, back edge and head test became one op. minisql was
    // (234 113, 576 323) before global hoisting: its table pointers and
    // row counts are globals read in call-free loops.
    assert_eq!(counts(&suites[0]), (663_535, 4_173_612), "\n{ledger}");
    assert_eq!(counts(&suites[1]), (162_845, 576_323), "\n{ledger}");
}

#[test]
#[ignore = "the benchmark's sizes: run in release with --ignored --nocapture"]
fn ledger_at_benchmark_sizes() {
    // PolyBench and the speedtest at the benchmark's sizes, Genann on Fig
    // 8's smallest dataset.
    let suites = [
        Suite::polybench(48),
        Suite::minisql(600),
        Suite::genann(100, 2),
    ];
    let ledger = table(&suites);
    println!("{ledger}");
    println!("{}", pair_table(&suites, 20));
    // The 1 % rule holds at these sizes too: a variant that pays only at
    // the quick sizes does not pay in the benchmark.
    assert_eq!(
        below_one_percent(&suites),
        Vec::<&str>::new(),
        "variants below 1 % of every suite's dispatches:\n{ledger}"
    );
    // Exact `(host_ops, instret)`, as in the quick-size test.
    let counts = |s: &Suite| (s.profile.host_ops, s.profile.instret);
    // Before code motion the three took 84 016 006, 39 680 516 and
    // 34 381 215 dispatches for the same instructions, and before the
    // `latch` rule 98 230 833, 42 575 496 and 34 400 416. PolyBench was
    // (98 230 808, 453 109 857) while MiniC declared 32 pages: from one
    // page, five allocations (2mm, 3mm, doitgen, heat-3d twice) take
    // `alloc`'s grow path, 7 instructions and 5 ops each.
    assert_eq!(counts(&suites[0]), (60_704_177, 453_109_892), "\n{ledger}");
    assert_eq!(counts(&suites[1]), (36_649_538, 146_012_282), "\n{ledger}");
    assert_eq!(counts(&suites[2]), (30_915_617, 88_342_619), "\n{ledger}");
}
