//! The bounded-exhaustive window checker: every short instruction window
//! the fusion rules of [`RULES`] can read, lowered fused and unfused and
//! run against the tree oracle.
//!
//! The per-rule tests in `reg.rs` are hand-picked shapes. This module
//! checks a rule over its whole small domain instead, as Alive proves each
//! peephole rewrite (Lopes, Menendez, Nagarakatte and Regehr, PLDI 2015),
//! but by enumeration: the small-scope hypothesis (Jackson, *Software
//! Abstractions*) says most lowering bugs show on a short window.
//!
//! * **Alphabet.** [`letters`] is an exhaustive `match` over [`Rule`], so a
//!   rule cannot be added without saying what it reads: its instructions
//!   (a multi-instruction tail or row it joins is one letter), its operand
//!   sources (two `i32` locals and an `f64` one; values computed inside the
//!   window sit in operand slots) and its edge constants (0, 1, -1,
//!   `i32::MIN` and a small `k`). [`extra`] adds what no rule joins but a
//!   rule must not break: the trapping `div_s`/`rem_s`, `i32.eqz`, two
//!   `local.set`s, a full-width load and a store.
//! * **Windows.** Every word over the alphabet up to length `L` that
//!   validates from an empty operand stack and leaves at most one value,
//!   the function's result (a deeper stack is the prefix of the words that
//!   consume it). Each runs in four contexts: straight-line code (a `br_if 0`
//!   is then a conditional return), the body of a loop that a back edge
//!   runs twice and the body of a counted loop, whose `br`s back are the
//!   `latch` rule's (both for words without a `br_if`), and, for each
//!   inner split, a block ending at the split whose early exit, taken on
//!   some inputs, lands inside the window. The counted loop has six shapes
//!   ([`Shape`]: two back edges, a `br_if` continue, a param, a head
//!   that is not `i < n`, a step that wraps past `i32::MAX`, a head `i <
//!   i`); each window runs in one of them, the next window in the next.
//! * **Checks.** Each window runs on the tree oracle and on fused and
//!   unfused register code, both accepted by `verify.rs`, with [`ARGS`]:
//!   result, trap, instret, back edges and the whole linear memory must
//!   agree.
//!   Windows run [`BATCH`] to a module, one function each, on one instance
//!   per engine, so they share the memory in the same order on every
//!   engine. A failure is re-run alone, then names the window, its
//!   context, its inputs, each outcome and the fused register code.
//!
//! Tier 1 runs `L = 4` and a seeded 1-in-16 sample of `L = 5`, and asserts
//! that code motion moves ops out of both loop contexts' loops; the ignored
//! `every_window_up_to_six_agrees` runs `L = 6` in release (CI runs it).
//! The latch's own letters are the loops' step and `br`, so the `latch`
//! row adds contexts, not letters.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::{lower_func, FusionStats, RegScratch, Rule, RULES};
use crate::artifact::Artifact;
use crate::builder::ModuleBuilder;
use crate::exec::{EngineConfig, ExecMode, Instance, NoHost, Trap, Value};
use crate::instr::{Instr as I, MemArg};
use crate::profile::ProfileMode;
use crate::types::{BlockType, ValType};

use ValType::{F64, I32};

/// The function's locals: params `x`, `y` (the `i32` sources), `d` (the
/// `f64` one) and `m` (the block context's exit condition, and the loop
/// contexts' choice of path), then the scratch local `s`, the loop
/// counter, a counted loop's `i` and `n`, and where a counted loop keeps
/// the window's `i32` or `f64` result. No letter names the last five.
const LOCALS: [ValType; 10] = [I32, I32, F64, I32, I32, I32, I32, I32, I32, F64];
const PARAMS: usize = 4;
const EXIT: u32 = 3;
const SCRATCH: u32 = 4;
const COUNTER: u32 = 5;
const LOOP_I: u32 = 6;
const LOOP_N: u32 = 7;
const RESULT_I32: u32 = 8;
const RESULT_F64: u32 = 9;

/// The argument sets `(x, y, d, m)`: in-bounds addresses and ordinary
/// values, then zero and -1 (division by zero, an address past the end),
/// `i32::MIN / -1`, and addresses whose access straddles the memory's end;
/// `m` takes the block context's early exit on two of them.
const ARGS: [(i32, i32, f64, i32); 4] = [
    (5, 3, 1.5, 0),
    (0, -1, -0.0, 1),
    (i32::MIN, -1, f64::NAN, 0),
    (65533, 8, 1e300, 1),
];

/// The edge constants of the const-k rules.
const CONSTS: [i32; 5] = [0, 1, -1, i32::MIN, 3];

/// The `i32` accesses' immediate; the `f64` ones' ([`m8`]) has an offset.
fn m4() -> MemArg {
    MemArg::new(2, 0)
}

fn m8() -> MemArg {
    MemArg::new(3, 8)
}

/// What no rule joins but every rule must keep its meaning around.
fn extra() -> Vec<Vec<I>> {
    vec![
        vec![I::I32DivS],
        vec![I::I32RemS],
        vec![I::I32Eqz],
        vec![I::LocalSet(0)],
        vec![I::LocalSet(SCRATCH)],
        vec![I::I32Load(m4())],
        vec![I::I32Store(m4())],
    ]
}

/// The letters `rule` contributes: its instructions, its operand sources
/// and its edge constants.
fn letters(rule: Rule) -> Vec<Vec<I>> {
    let locals = || vec![vec![I::LocalGet(0)], vec![I::LocalGet(1)]];
    let consts = || CONSTS.map(|k| vec![I::I32Const(k)]).to_vec();
    let mut out = match rule {
        // `base + idx*k` and its trailing loads.
        Rule::IdxLoad | Rule::IdxAddr => vec![
            vec![I::I32Const(3), I::I32Mul, I::I32Add],
            vec![I::I32Load(m4())],
            vec![I::F64Load(m8())],
        ],
        // The row `y*n + z` after its multiply.
        Rule::MulAdd => vec![vec![I::I32Mul], vec![I::I32Mul, I::LocalGet(1), I::I32Add]],
        Rule::BinopSet => vec![vec![I::I32Add], vec![I::LocalSet(0)]],
        Rule::BinopK => {
            let mut out = consts();
            out.push(vec![I::I32Add]);
            out
        }
        Rule::BinopStore => vec![vec![I::LocalGet(2)], vec![I::F64Add, I::F64Store(m8())]],
        Rule::AddLoad => vec![vec![I::I32Add], vec![I::I32Load(m4())]],
        Rule::CmpBr => vec![
            vec![I::I32LtS],
            vec![I::BrIf(0)],
            vec![
                I::If(BlockType::Value(I32)),
                I::I32Const(1),
                I::Else,
                I::I32Const(2),
                I::End,
            ],
        ],
        Rule::EqzBr => vec![vec![I::I32Eqz], vec![I::BrIf(0)]],
        // The loop contexts' `br` back to their head is the latch.
        Rule::Latch => Vec::new(),
    };
    out.extend(locals());
    out
}

/// One letter: its instructions and their operand types.
#[derive(Debug)]
struct Letter {
    code: Vec<I>,
    pops: Vec<ValType>,
    pushes: Vec<ValType>,
    br_if: bool,
    stores: bool,
}

/// What `instr` pops and pushes (the alphabet's instructions only).
fn effect(instr: &I) -> (&'static [ValType], &'static [ValType]) {
    match instr {
        I::LocalGet(i) if LOCALS[*i as usize] == F64 => (&[], &[F64]),
        I::LocalGet(_) | I::I32Const(_) => (&[], &[I32]),
        I::LocalSet(_) | I::BrIf(_) => (&[I32], &[]),
        I::I32Add | I::I32Mul | I::I32LtS | I::I32DivS | I::I32RemS => (&[I32, I32], &[I32]),
        I::I32Eqz | I::I32Load(_) => (&[I32], &[I32]),
        I::F64Load(_) => (&[I32], &[F64]),
        I::F64Add => (&[F64, F64], &[F64]),
        I::I32Store(_) => (&[I32, I32], &[]),
        I::F64Store(_) => (&[I32, F64], &[]),
        other => panic!("{other:?} is not in the checker's alphabet"),
    }
}

impl Letter {
    fn new(code: Vec<I>) -> Letter {
        let (mut pops, mut pushes) = (Vec::new(), Vec::new());
        if let I::If(_) = code[0] {
            // `if (result i32) … else … end`: a condition in, a value out.
            (pops, pushes) = (vec![I32], vec![I32]);
        } else {
            for instr in &code {
                let (pop, push) = effect(instr);
                for t in pop.iter().rev() {
                    match pushes.pop() {
                        Some(have) => assert_eq!(have, *t, "ill-typed letter {code:?}"),
                        None => pops.insert(0, *t),
                    }
                }
                pushes.extend_from_slice(push);
            }
        }
        let br_if = matches!(code[..], [I::BrIf(_)]);
        let stores = code
            .iter()
            .any(|i| matches!(i, I::I32Store(_) | I::F64Store(_)));
        Letter {
            code,
            pops,
            pushes,
            br_if,
            stores,
        }
    }
}

/// The checker's alphabet: every rule's letters in [`RULES`] order, then
/// [`extra`], each letter once.
fn alphabet() -> Vec<Letter> {
    let mut out: Vec<Vec<I>> = Vec::new();
    let all = RULES.iter().flat_map(|row| letters(row.0)).chain(extra());
    for code in all {
        if !out.contains(&code) {
            out.push(code);
        }
    }
    out.into_iter().map(Letter::new).collect()
}

/// Where a window runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Context {
    Straight,
    /// The body of a loop its back edge runs twice.
    Loop,
    /// The body of a loop that tests its counter at its head, so each
    /// `br` back to it is a latch (see [`Shape`]).
    Counted(Shape),
    /// A block around the first `n` letters, its early exit landing
    /// between letter `n - 1` and letter `n`.
    Target(usize),
}

/// The loops of [`Context::Counted`]: `i = i0; n = n0; block; loop; br_if
/// 1 when !(i < n); window; …; br 0; end; end`, the window's result kept
/// in a local, with `i` and `n` locals no letter names. Each shape is a
/// latch the `latch` rule must get right, or one it must leave alone.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Two `i += 1; br` latches, `m` picking which one runs.
    TwoBackEdges,
    /// `i += 1`, then a `br_if` back to the head when `m` is set (no
    /// latch), else `i += 1; br`.
    Continue,
    /// A loop with an `i32` param, which the head's exit carries out and
    /// the `br` back carries round: no latch.
    Params,
    /// The head tests `n > i`, not `i < n`: a latch that cannot join the
    /// step.
    NotCounted,
    /// `i += 3` from `i32::MAX - 1` against `n = i32::MAX`: the step wraps
    /// and the loop goes on, until a second counter ends it.
    Wraps,
    /// The head tests `i < i`: a latch whose `n` is `i`.
    SelfBound,
}

const SHAPES: [Shape; 6] = [
    Shape::TwoBackEdges,
    Shape::Continue,
    Shape::Params,
    Shape::NotCounted,
    Shape::Wraps,
    Shape::SelfBound,
];

impl Shape {
    /// The loop around `window` (which leaves `result`), in `b`.
    fn around(self, b: &mut ModuleBuilder, window: Vec<I>, result: &[ValType]) -> Vec<I> {
        use Shape as S;
        let step = |k| {
            [
                I::LocalGet(LOOP_I),
                I::I32Const(k),
                I::I32Add,
                I::LocalSet(LOOP_I),
            ]
        };
        let (i0, n0) = match self {
            S::Wraps => (i32::MAX - 1, i32::MAX),
            _ => (0, 2),
        };
        let mut body = vec![
            I::I32Const(i0),
            I::LocalSet(LOOP_I),
            I::I32Const(n0),
            I::LocalSet(LOOP_N),
            I::I32Const(2),
            I::LocalSet(COUNTER),
        ];
        if self == S::Params {
            let ty = b.add_type(&[I32], &[I32]);
            body.extend([
                I::Block(BlockType::Value(I32)),
                I::I32Const(0),
                I::Loop(BlockType::Func(ty)),
            ]);
        } else {
            body.extend([I::Block(BlockType::Empty), I::Loop(BlockType::Empty)]);
        }
        body.extend(match self {
            S::NotCounted => [I::LocalGet(LOOP_N), I::LocalGet(LOOP_I), I::I32GtS],
            S::SelfBound => [I::LocalGet(LOOP_I), I::LocalGet(LOOP_I), I::I32LtS],
            _ => [I::LocalGet(LOOP_I), I::LocalGet(LOOP_N), I::I32LtS],
        });
        body.extend([I::I32Eqz, I::BrIf(1)]);
        body.extend(window);
        let keep = match result {
            [] => None,
            [F64] => Some(RESULT_F64),
            _ => Some(RESULT_I32),
        };
        body.extend(keep.map(I::LocalSet));
        match self {
            S::TwoBackEdges => {
                body.extend([I::Block(BlockType::Empty), I::LocalGet(EXIT), I::I32Eqz]);
                body.push(I::BrIf(0));
                body.extend(step(1));
                body.extend([I::Br(1), I::End]);
            }
            S::Continue => {
                body.extend(step(1));
                body.extend([I::LocalGet(EXIT), I::BrIf(0)]);
            }
            S::Params => body.extend([I::I32Const(1), I::I32Add]),
            S::Wraps => body.extend([
                I::LocalGet(COUNTER),
                I::I32Const(-1),
                I::I32Add,
                I::LocalTee(COUNTER),
                I::I32Eqz,
                I::BrIf(1),
            ]),
            S::NotCounted | S::SelfBound => {}
        }
        body.extend(step(if self == S::Wraps { 3 } else { 1 }));
        body.extend([I::Br(0), I::End, I::End]);
        if self == S::Params {
            body.push(I::Drop);
        }
        body.extend(keep.map(I::LocalGet));
        body
    }
}

/// The block type of a frame yielding `ts`.
fn block_type(b: &mut ModuleBuilder, ts: &[ValType]) -> BlockType {
    match ts {
        [] => BlockType::Empty,
        [t] => BlockType::Value(*t),
        _ => BlockType::Func(b.add_type(&[], ts)),
    }
}

/// A window in a context: its letters, and the operand types before each
/// letter and after the last.
#[derive(Clone)]
struct Window {
    word: Vec<usize>,
    stacks: Vec<Vec<ValType>>,
    ctx: Context,
}

impl Window {
    fn result(&self) -> &[ValType] {
        &self.stacks[self.word.len()]
    }

    /// Whether every `br_if 0` finds its label's values under its
    /// condition: the block's (those of the split) inside the block, the
    /// function's results elsewhere.
    fn branches_validate(&self, alpha: &[Letter]) -> bool {
        self.word.iter().enumerate().all(|(i, &l)| {
            let below = &self.stacks[i][..self.stacks[i].len().saturating_sub(1)];
            let label = match self.ctx {
                Context::Target(n) if i < n => &self.stacks[n],
                _ => self.result(),
            };
            !alpha[l].br_if || below.ends_with(label)
        })
    }

    /// Adds the function whose body is this window in its context to `b`.
    fn add_to(&self, alpha: &[Letter], b: &mut ModuleBuilder) -> u32 {
        let code = |letters: &[usize]| -> Vec<I> {
            letters
                .iter()
                .flat_map(|&l| alpha[l].code.iter().cloned())
                .collect()
        };
        let mut body = Vec::new();
        match self.ctx {
            Context::Straight => body.extend(code(&self.word)),
            Context::Loop => {
                let bt = block_type(b, self.result());
                body.extend([I::I32Const(2), I::LocalSet(COUNTER), I::Loop(bt)]);
                body.extend(code(&self.word));
                body.extend([
                    I::LocalGet(COUNTER),
                    I::I32Const(-1),
                    I::I32Add,
                    I::LocalTee(COUNTER),
                    I::BrIf(0),
                    I::End,
                ]);
            }
            Context::Counted(shape) => {
                let result = self.result().to_vec();
                body.extend(shape.around(b, code(&self.word), &result));
            }
            Context::Target(split) => {
                // Placeholders for the block's values, which the exit
                // carries when `m` is set; the fall-through drops them.
                let inner = &self.stacks[split];
                body.push(I::Block(block_type(b, inner)));
                body.extend(inner.iter().map(|t| match t {
                    F64 => I::F64Const(0.25),
                    _ => I::I32Const(7),
                }));
                body.extend([I::LocalGet(EXIT), I::BrIf(0)]);
                body.extend(inner.iter().map(|_| I::Drop));
                body.extend(code(&self.word[..split]));
                body.push(I::End);
                body.extend(code(&self.word[split..]));
            }
        }
        body.push(I::End);
        let ty = b.add_type(&LOCALS[..PARAMS], self.result());
        b.add_func(ty, &LOCALS[PARAMS..], body)
    }

    fn describe(&self, alpha: &[Letter]) -> String {
        let letters: Vec<String> = self
            .word
            .iter()
            .map(|&l| format!("{:?}", alpha[l].code))
            .collect();
        format!("{:?} window {}", self.ctx, letters.join(" "))
    }
}

/// What one call returned, as raw bits (a NaN equals itself), or its trap,
/// and the instructions retired and back edges taken so far.
type Outcome = (Result<Vec<u64>, Trap>, (u64, u64));

fn bits(v: &Value) -> u64 {
    match *v {
        Value::I32(x) => u64::from(x as u32),
        Value::I64(x) => x as u64,
        Value::F32(x) => u64::from(x.to_bits()),
        Value::F64(x) => x.to_bits(),
    }
}

/// The tally of a checker run.
#[derive(Debug, Default)]
struct Tally {
    /// Windows checked, per context.
    straight: u64,
    in_loop: u64,
    counted: u64,
    target: u64,
    /// What the fused compiles of all of them joined.
    fusion: FusionStats,
    /// Ops code motion moved out of the loop contexts' loops.
    moved_in_loop: u64,
    moved_in_counted: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.straight += other.straight;
        self.in_loop += other.in_loop;
        self.counted += other.counted;
        self.target += other.target;
        self.fusion.merge(&other.fusion);
        self.moved_in_loop += other.moved_in_loop;
        self.moved_in_counted += other.moved_in_counted;
    }
}

/// The engines every window runs on: the tree oracle, then fused and
/// unfused register code, each counting instret and verified.
const ENGINES: [(&str, ExecMode, bool); 3] = [
    ("tree", ExecMode::Interpreted, false),
    ("fused", ExecMode::Aot, true),
    ("unfused", ExecMode::Aot, false),
];

/// Runs `windows`, one function each of one module, on [`ENGINES`] under
/// every argument set, one instance per engine: the calls share the
/// memory, in the same order on each engine. Returns the first
/// disagreement or verifier rejection.
fn run_batch(alpha: &[Letter], windows: &[Window], tally: &mut Tally) -> Result<(), String> {
    let mut b = ModuleBuilder::new();
    b.add_memory(1, None);
    let pattern: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    b.add_data(0, &pattern);
    for (i, w) in windows.iter().enumerate() {
        let f = w.add_to(alpha, &mut b);
        b.export_func(&i.to_string(), f);
    }
    let module = b.module();
    if let Err(e) = crate::validate::validate(module) {
        panic!("a window the checker typed does not validate: {e:?}");
    }
    let mut artifacts = Vec::new();
    for (name, mode, fuse) in ENGINES {
        let config = EngineConfig {
            fuse,
            profile: ProfileMode::Count,
        };
        let art = Artifact::new(module, mode, config).map_err(|e| match windows {
            [w] => format!(
                "{}: {name} refused it: {e}\nbody: {:?}",
                w.describe(alpha),
                module.funcs[0].code
            ),
            _ => format!("{name} refused a batch: {e}"),
        })?;
        artifacts.push(Arc::new(art));
    }
    let fused = artifacts[1].compiled().expect("register code");
    tally.fusion.merge(&fused.fusion);
    // Each window's own count of moved ops, from a fused compile of its
    // function alone.
    let mut scratch = RegScratch::default();
    let mut moved = |i: usize| {
        let before = scratch.stats.hoisted;
        lower_func(module, i as u32, &module.funcs[i], &mut scratch, true).expect("lowers");
        scratch.stats.hoisted - before
    };
    let mut insts: Vec<Instance> = artifacts
        .iter()
        .map(|art| Instance::from_artifact(Arc::clone(art), &mut NoHost).unwrap())
        .collect();
    for (i, w) in windows.iter().enumerate() {
        // Only a store writes memory: the other windows skip the compare.
        let stores = w.word.iter().any(|&l| alpha[l].stores);
        let export = i.to_string();
        for (x, y, d, m) in ARGS {
            let args = [Value::I32(x), Value::I32(y), Value::F64(d), Value::I32(m)];
            let outcomes: Vec<Outcome> = insts
                .iter_mut()
                .map(|inst| {
                    let result = inst.invoke(&mut NoHost, &export, &args);
                    let result = result.map(|vs| vs.iter().map(bits).collect());
                    let counts = inst.profile().map_or((0, 0), |p| (p.instret, p.backedges));
                    (result, counts)
                })
                .collect();
            for (e, got) in outcomes.iter().enumerate().skip(1) {
                let memory_agrees = !stores || insts[e].memory().data() == insts[0].memory().data();
                if *got != outcomes[0] || !memory_agrees {
                    return Err(format!(
                        "{} on (x, y, d, m) = ({x}, {y}, {d:?}, {m}): {} (result, (instret, \
                         back edges)) \
                         {got:?} vs tree {:?}, memory agrees: {memory_agrees}\n\
                         body: {:?}\nfused code: {:?}",
                        w.describe(alpha),
                        ENGINES[e].0,
                        outcomes[0],
                        module.funcs[i].code,
                        fused.funcs[i].as_ref().map(|f| &f.code),
                    ));
                }
            }
        }
        match w.ctx {
            Context::Straight => tally.straight += 1,
            Context::Loop => {
                tally.in_loop += 1;
                tally.moved_in_loop += moved(i);
            }
            Context::Counted(_) => {
                tally.counted += 1;
                tally.moved_in_counted += moved(i);
            }
            Context::Target(_) => tally.target += 1,
        }
    }
    Ok(())
}

/// Windows per module.
const BATCH: usize = 256;

/// The depth-first walk over the words whose every prefix is well typed,
/// from one first letter.
struct Walk<'a> {
    alpha: &'a [Letter],
    /// Words up to this length are all checked.
    full: usize,
    /// Longer ones, up to `max`, one in `every`, picked by `seed`.
    max: usize,
    every: u64,
    seed: u64,
    window: Window,
    batch: Vec<Window>,
    tally: Tally,
    /// The [`SHAPES`] entry the next window runs in.
    turn: usize,
}

/// Checks every window of length `1..=full` in its three contexts, and of
/// the longer ones up to `max`, one in `every`, picked by an xorshift
/// generator seeded from `seed` and the window's first letter. Up to four
/// threads take the first letters in turn.
fn run(full: usize, max: usize, every: u64, seed: u64) -> Tally {
    let alpha = alphabet();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let worker = || {
        let mut tally = Tally::default();
        loop {
            let first = next.fetch_add(1, Ordering::Relaxed);
            if first >= alpha.len() {
                return tally;
            }
            let mut walk = Walk {
                alpha: &alpha,
                full,
                max,
                every,
                seed: seed ^ (first as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                window: Window {
                    word: Vec::new(),
                    stacks: vec![Vec::new()],
                    ctx: Context::Straight,
                },
                batch: Vec::with_capacity(BATCH),
                tally: Tally::default(),
                turn: 0,
            };
            walk.step(first);
            walk.flush();
            tally.merge(&walk.tally);
        }
    };
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        for h in handles {
            let tally = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            total.merge(&tally);
        }
    });
    total
}

impl Walk<'_> {
    /// Checks the current word extended by letter `l`, if that is well
    /// typed, and extends it in turn.
    fn step(&mut self, l: usize) {
        let w = &mut self.window;
        let (letter, top) = (&self.alpha[l], &w.stacks[w.word.len()]);
        let Some(keep) = top.len().checked_sub(letter.pops.len()) else {
            return;
        };
        if top[keep..] != letter.pops[..] {
            return;
        }
        let mut stack = top[..keep].to_vec();
        stack.extend_from_slice(&letter.pushes);
        w.word.push(l);
        w.stacks.push(stack);
        // The function returns what the window leaves, at most one value;
        // a longer stack is a prefix of the words that use it.
        if self.window.result().len() <= 1 && self.picked() {
            self.add_contexts();
        }
        if self.window.word.len() < self.max {
            for l in 0..self.alpha.len() {
                self.step(l);
            }
        }
        self.window.word.pop();
        self.window.stacks.pop();
    }

    fn picked(&mut self) -> bool {
        if self.window.word.len() <= self.full {
            return true;
        }
        self.seed ^= self.seed << 13;
        self.seed ^= self.seed >> 7;
        self.seed ^= self.seed << 17;
        self.seed.is_multiple_of(self.every)
    }

    /// Queues the current word in every context it validates in, the
    /// counted loop in one of its shapes, each in turn.
    fn add_contexts(&mut self) {
        let mut w = self.window.clone();
        let n = w.word.len();
        let shape = SHAPES[self.turn % SHAPES.len()];
        self.turn += 1;
        let contexts = [Context::Straight, Context::Loop, Context::Counted(shape)]
            .into_iter()
            .chain((1..n).map(Context::Target));
        for ctx in contexts {
            w.ctx = ctx;
            // A `br_if` in a loop would be a `continue` that never ends.
            let valid = match ctx {
                Context::Loop | Context::Counted(_) => !w.word.iter().any(|&l| self.alpha[l].br_if),
                _ => w.branches_validate(self.alpha),
            };
            if valid {
                self.batch.push(w.clone());
            }
        }
        if self.batch.len() >= BATCH {
            self.flush();
        }
    }

    /// Runs the queued windows; on a failure, runs the failing window
    /// alone, and reports it with or without the memory its batch left.
    fn flush(&mut self) {
        if let Err(report) = run_batch(self.alpha, &self.batch, &mut self.tally) {
            for w in &self.batch {
                let alone = run_batch(self.alpha, std::slice::from_ref(w), &mut Tally::default());
                if let Err(alone) = alone {
                    panic!("window checker: {alone}");
                }
            }
            panic!("window checker, after the batch's earlier windows: {report}");
        }
        self.batch.clear();
    }
}

#[test]
fn every_window_up_to_four_and_a_sample_of_five_agrees() {
    let start = Instant::now();
    let tally = run(4, 5, 16, 0x5eed_f00d_0bad_cafe);
    println!("{tally:?} in {:.2?}", start.elapsed());
    // Every rule fires on some window: the alphabet reaches each row.
    for (name, count) in tally.fusion.counts() {
        assert!(count > 0, "no window fires {name}: {tally:?}");
    }
    // Code motion moves ops out of both loop contexts' loops.
    assert!(
        tally.moved_in_loop > 0 && tally.moved_in_counted > 0,
        "{tally:?}"
    );
}

#[test]
#[ignore = "every window up to length 6: run in release with --ignored"]
fn every_window_up_to_six_agrees() {
    let start = Instant::now();
    let tally = run(6, 6, 1, 1);
    println!("{tally:?} in {:.2?}", start.elapsed());
}
