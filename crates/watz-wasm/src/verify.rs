//! Independent verifier for the register code an instance executes.
//!
//! Every compiled module can be re-checked, opcode by opcode, against the
//! invariants the register engine relies on — **without reusing any
//! lowering code**. The verifier keeps its own read/write model of the
//! register IR, so a bug in the lowering (or a hostile mutation of a
//! lowered body) is caught by a second, structurally different derivation
//! of the same facts: branch targets, value transfers that fit the frame,
//! index ranges, a value on every path to its use.
//!
//! # Register-form invariants
//!
//! - every frame-slot operand is `< frame_size`, every jump target in
//!   bounds, `br_table` lists non-empty (the dispatch loop indexes
//!   `entries[i.min(len - 1)]`), branch value transfers (`src`/`dst` ×
//!   `keep`) inside the frame;
//! - every global, function and type index is in range, and a call names
//!   the kind of function its opcode says (`CallLocal` a local one,
//!   `CallImport` an import);
//! - `Return{src}` and call frame bases leave room for the values they
//!   move (`src + n_results <= frame_size`, `base + max(params,
//!   results) <= frame_size`), and a body's own signature is the one its
//!   declared type gives its callers;
//! - a definite-assignment dataflow (a bitset kept at each branch target,
//!   intersection at joins, one running bitset through straight-line
//!   code) proves no op reads a frame slot that some path never wrote;
//!   calls clobber every slot from the callee's frame base up; the body
//!   cannot fall off the end past a non-terminator.
//!
//! Memory bounds are not among them: every register memory op checks its
//! access at run time and traps on a miss, so there is no in-bounds proof
//! to re-derive.
//!
//! Every [`ExecMode::Aot`](crate::exec::ExecMode::Aot) compile runs it
//! before anything can execute the code: a module it rejects fails
//! instantiation, and there is no configuration without it.

use crate::flat::CompiledModule;
use crate::reg::{RegFunc, RegOp};
use crate::types::{FuncType, ValType};

/// A well-formedness violation found in a lowered body.
///
/// `func` is the function index (imports included) and `pc` the opcode
/// index inside the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A jump target is outside the body.
    JumpOutOfBounds {
        /// Function index.
        func: u32,
        /// Opcode index of the branching op.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A `br_table` has no entries (the dispatch loop indexes
    /// `entries[i.min(len - 1)]`, so an empty list cannot execute).
    TruncatedBrTable {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
    },
    /// Per-function arrays disagree in length (code vs. retirement
    /// metadata), the frame layout is inconsistent, or the body's
    /// signature is not its declared type's.
    LengthMismatch {
        /// Function index.
        func: u32,
    },
    /// Execution can fall off the end of the body past a non-terminator.
    MissingTerminator {
        /// Function index.
        func: u32,
        /// Opcode index of the last op.
        pc: u32,
    },
    /// A global index is out of range.
    BadGlobalIndex {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
        /// The out-of-range global index.
        index: u32,
    },
    /// A call targets a missing function, or the wrong kind (a
    /// `CallLocal` to an import / `CallImport` to a local function).
    BadFuncIndex {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
        /// The bad callee index.
        index: u32,
    },
    /// A `call_indirect` type index is out of range.
    BadTypeIndex {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
        /// The bad type index.
        index: u32,
    },
    /// A register-form operand names a slot outside the frame.
    SlotOutOfFrame {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
        /// The out-of-frame slot.
        slot: u32,
    },
    /// A register-form op reads a frame slot that some path to it never
    /// wrote.
    ReadBeforeWrite {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
        /// The never-written slot.
        slot: u32,
    },
    /// `Return{src}` does not leave room for the result values.
    BadReturnSrc {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
    },
    /// A call frame base does not leave room for arguments or results.
    BadCallBase {
        /// Function index.
        func: u32,
        /// Opcode index.
        pc: u32,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use VerifyError as E;
        match *self {
            E::JumpOutOfBounds { func, pc, target } => {
                write!(f, "func {func} pc {pc}: jump target {target} out of bounds")
            }
            E::TruncatedBrTable { func, pc } => {
                write!(f, "func {func} pc {pc}: br_table with no entries")
            }
            E::LengthMismatch { func } => {
                write!(f, "func {func}: code/metadata length mismatch")
            }
            E::MissingTerminator { func, pc } => {
                write!(f, "func {func} pc {pc}: body can fall off the end")
            }
            E::BadGlobalIndex { func, pc, index } => {
                write!(f, "func {func} pc {pc}: global index {index} out of range")
            }
            E::BadFuncIndex { func, pc, index } => {
                write!(f, "func {func} pc {pc}: bad callee index {index}")
            }
            E::BadTypeIndex { func, pc, index } => {
                write!(f, "func {func} pc {pc}: type index {index} out of range")
            }
            E::SlotOutOfFrame { func, pc, slot } => {
                write!(f, "func {func} pc {pc}: frame slot {slot} out of range")
            }
            E::ReadBeforeWrite { func, pc, slot } => {
                write!(
                    f,
                    "func {func} pc {pc}: frame slot {slot} read before any write"
                )
            }
            E::BadReturnSrc { func, pc } => {
                write!(f, "func {func} pc {pc}: return source exceeds frame")
            }
            E::BadCallBase { func, pc } => {
                write!(f, "func {func} pc {pc}: call frame base exceeds frame")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Counters from one verification run, exposed like
/// [`crate::FusionStats`] via
/// [`Instance::verify_stats`](crate::exec::Instance::verify_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Function bodies verified.
    pub funcs: u64,
    /// Always 0: there is no code but register code to verify. Exists
    /// only because `benchmark/` reads it; goes with the next benchmark
    /// PR.
    pub flat_ops: u64,
    /// Register opcodes checked.
    pub reg_ops: u64,
    /// Branch edges whose targets and entry states were validated.
    pub branch_targets: u64,
}

impl VerifyStats {
    /// Per-counter `(name, count)` pairs, for coverage assertions and
    /// logs.
    #[must_use]
    pub fn counts(&self) -> [(&'static str, u64); 4] {
        [
            ("funcs", self.funcs),
            ("flat_ops", self.flat_ops),
            ("reg_ops", self.reg_ops),
            ("branch_targets", self.branch_targets),
        ]
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.funcs += other.funcs;
        self.flat_ops += other.flat_ops;
        self.reg_ops += other.reg_ops;
        self.branch_targets += other.branch_targets;
    }
}

/// The module-level facts a body is verified against.
struct ModuleCtx<'a> {
    /// Function indices below this are imports.
    n_imports: usize,
    /// Type index of every function, imports first.
    func_type_idx: &'a [u32],
    /// The module's type section.
    types: &'a [FuncType],
    /// Declared globals.
    global_types: &'a [ValType],
}

impl ModuleCtx<'_> {
    /// `(params, results)` of a function index, `None` if out of range.
    fn call_arity(&self, func: u32) -> Option<(u32, u32)> {
        self.type_arity(*self.func_type_idx.get(func as usize)?)
    }

    /// Whether a function index is an import, `None` if out of range.
    fn is_import(&self, func: u32) -> Option<bool> {
        ((func as usize) < self.func_type_idx.len()).then_some((func as usize) < self.n_imports)
    }

    /// `(params, results)` of a type index, `None` if out of range.
    fn type_arity(&self, ti: u32) -> Option<(u32, u32)> {
        let t = self.types.get(ti as usize)?;
        Some((t.params.len() as u32, t.results.len() as u32))
    }
}

fn bit_get(b: &[u64], i: u32) -> bool {
    b[(i / 64) as usize] & (1u64 << (i % 64)) != 0
}

fn bit_set(b: &mut [u64], i: u32) {
    b[(i / 64) as usize] |= 1u64 << (i % 64);
}

fn bit_clear_from(b: &mut [u64], from: u32, fs: u32) {
    for i in from..fs {
        b[(i / 64) as usize] &= !(1u64 << (i % 64));
    }
}

/// Intersects `src` into `dst`; true when `dst` changed.
fn bit_meet(dst: &mut [u64], src: &[u64]) -> bool {
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let nv = *d & *s;
        if nv != *d {
            *d = nv;
            changed = true;
        }
    }
    changed
}

/// The single-slot operands of an op: up to four slots it reads, in
/// operand order, and the slot it writes. Spans — branch value transfers,
/// call arguments and results, bulk-memory arguments, return values — are
/// each pass's own. Every variant is named here, so a new one cannot slip
/// past the verifier unclassified; one that branches, calls or moves a
/// span also needs its arm in both passes of [`verify_reg_func`].
#[inline(always)]
pub(crate) fn slot_operands(op: &RegOp) -> ([u16; 4], usize, Option<u16>) {
    use RegOp as R;
    let ((r, n), write) = match *op {
        R::Unreachable
        | R::Jump { .. }
        | R::BrMoves { .. }
        | R::Return { .. }
        | R::CallLocal { .. }
        | R::CallImport { .. }
        | R::MemoryCopy { .. }
        | R::MemoryFill { .. } => (([0, 0, 0, 0], 0), None),
        R::BrIf { cond: s, .. }
        | R::BrIfMoves { cond: s, .. }
        | R::BrTable { idx: s, .. }
        | R::CallIndirect { idx: s, .. }
        | R::GlobalSet { src: s, .. } => (([s, 0, 0, 0], 1), None),
        R::Const { dst, .. } | R::GlobalGet { dst, .. } | R::MemorySize { dst } => {
            (([0, 0, 0, 0], 0), Some(dst))
        }
        R::Move { src, dst }
        | R::Load { addr: src, dst, .. }
        | R::MemoryGrow { src, dst }
        | R::Unop { src, dst, .. }
        | R::BinopK { a: src, dst, .. }
        | R::AddI32K { a: src, dst, .. } => (([src, 0, 0, 0], 1), Some(dst)),
        R::Store { addr, val, .. }
        | R::StoreI32R { addr, val, .. }
        | R::StoreF64R { addr, val, .. } => (([addr, val, 0, 0], 2), None),
        R::CmpBr { a, b, .. } => (([a, b, 0, 0], 2), None),
        R::IncBrLtS { i, n, .. } => (([i, n, 0, 0], 2), Some(i)),
        R::Binop { a, b, dst, .. }
        | R::AddF64 { a, b, dst }
        | R::SubF64 { a, b, dst }
        | R::MulF64 { a, b, dst }
        | R::ScaleAdd {
            base: a,
            idx: b,
            dst,
            ..
        }
        | R::ScaleAddLoadI32 {
            base: a,
            idx: b,
            dst,
            ..
        }
        | R::ScaleAddLoadF64 {
            base: a,
            idx: b,
            dst,
            ..
        } => (([a, b, 0, 0], 2), Some(dst)),
        R::Select { cond, a, b, dst } => (([cond, a, b, 0], 3), Some(dst)),
        R::MulAddI32 { y, n, z, dst } => (([y, n, z, 0], 3), Some(dst)),
        R::AddStoreF64 {
            a, b, addr, dst, ..
        } => (([a, b, addr, 0], 3), Some(dst)),
        R::IdxLAdd {
            base, y, n, z, dst, ..
        }
        | R::IdxLAddLoadF64 {
            base, y, n, z, dst, ..
        } => (([base, y, n, z], 4), Some(dst)),
    };
    (r, n, write)
}

/// A pc that is neither the entry nor a branch target.
const NOT_JOIN: u32 = u32::MAX;

/// The joins of one body — its entry and every branch target: the only
/// pcs the definite-assignment dataflow keeps a state at.
#[derive(Default)]
struct Joins {
    /// Per pc, its index among the joins, or [`NOT_JOIN`].
    index: Vec<u32>,
    /// `words` words of state per join, valid once it is `reached`.
    states: Vec<u64>,
    /// Whether some path has reached each join yet.
    reached: Vec<bool>,
    /// Joins whose state changed since they were last walked, by pc.
    work: Vec<usize>,
    /// Words per state: one bit per frame slot.
    words: usize,
}

impl Joins {
    /// Meets `state` into the state of the join at `pc`, queueing the join
    /// when that reached it first or changed it.
    fn flow(&mut self, pc: u32, state: &[u64]) {
        let (j, w) = (self.index[pc as usize] as usize, self.words);
        let dst = &mut self.states[j * w..(j + 1) * w];
        if !std::mem::replace(&mut self.reached[j], true) {
            dst.copy_from_slice(state);
            self.work.push(pc as usize);
        } else if bit_meet(dst, state) {
            self.work.push(pc as usize);
        }
    }
}

/// The dataflow's buffers, reused across the bodies of a module.
#[derive(Default)]
struct Dataflow {
    joins: Joins,
    /// The running state through straight-line code.
    st: Vec<u64>,
    /// The state on a taken edge that moves values.
    taken: Vec<u64>,
}

/// Verifies one register body: frame-slot bounds, jump targets, index
/// ranges, call frame bases, and the definite-assignment dataflow (no
/// read of a frame slot some path never wrote). Returns the branch-edge
/// count.
#[allow(clippy::too_many_lines)]
fn verify_reg_func(
    f: &RegFunc,
    ctx: &ModuleCtx<'_>,
    fidx: u32,
    df: &mut Dataflow,
) -> Result<u64, VerifyError> {
    use RegOp as R;
    let n = f.code.len();
    let fs = f.frame_size;
    if f.code.len() != f.prof.len() || f.n_params > f.n_locals || f.n_locals > fs {
        return Err(VerifyError::LengthMismatch { func: fidx });
    }
    let Dataflow { joins, st, taken } = df;

    // Pass A: linear bounds checks over every op, reachable or not. It
    // also numbers the joins, the entry first.
    joins.index.clear();
    joins.index.resize(n, NOT_JOIN);
    let mut n_joins = 0u32;
    if n > 0 {
        joins.index[0] = 0;
        n_joins = 1;
    }
    let mut edges = 0u64;
    for (pc, op) in f.code.iter().enumerate() {
        let pc = pc as u32;
        let slot_ok = |s: u32| {
            if s < fs {
                Ok(())
            } else {
                Err(VerifyError::SlotOutOfFrame {
                    func: fidx,
                    pc,
                    slot: s,
                })
            }
        };
        // A block of `len` slots starting at `start` must fit the frame.
        let span_ok = |start: u32, len: u32| {
            if len == 0 {
                return Ok(());
            }
            slot_ok(start + len - 1)
        };
        let mut target_ok = |t: u32| {
            edges += 1;
            match joins.index.get_mut(t as usize) {
                Some(j) => {
                    if *j == NOT_JOIN {
                        *j = n_joins;
                        n_joins += 1;
                    }
                    Ok(())
                }
                None => Err(VerifyError::JumpOutOfBounds {
                    func: fidx,
                    pc,
                    target: t,
                }),
            }
        };
        // The callee's frame, from `base`, must hold its arguments and
        // its results.
        let base_ok = |base: u16, (np, nr): (u32, u32)| {
            if u32::from(base) + np.max(nr) > fs {
                Err(VerifyError::BadCallBase { func: fidx, pc })
            } else {
                Ok(())
            }
        };
        if let R::GlobalGet { idx, .. } | R::GlobalSet { idx, .. } = op {
            if *idx as usize >= ctx.global_types.len() {
                return Err(VerifyError::BadGlobalIndex {
                    func: fidx,
                    pc,
                    index: *idx,
                });
            }
        }
        let (reads, n_reads, write) = slot_operands(op);
        for &s in &reads[..n_reads] {
            slot_ok(u32::from(s))?;
        }
        if let Some(s) = write {
            slot_ok(u32::from(s))?;
        }
        match op {
            R::Jump { target }
            | R::BrIf { target, .. }
            | R::CmpBr { target, .. }
            | R::IncBrLtS { target, .. } => target_ok(*target)?,
            R::BrMoves {
                target,
                src,
                dst,
                keep,
            }
            | R::BrIfMoves {
                target,
                src,
                dst,
                keep,
                ..
            } => {
                span_ok(u32::from(*src), u32::from(*keep))?;
                span_ok(u32::from(*dst), u32::from(*keep))?;
                target_ok(*target)?;
            }
            R::BrTable { entries, .. } => {
                if entries.is_empty() {
                    return Err(VerifyError::TruncatedBrTable { func: fidx, pc });
                }
                for e in entries.iter() {
                    span_ok(u32::from(e.src), u32::from(e.keep))?;
                    span_ok(u32::from(e.dst), u32::from(e.keep))?;
                    target_ok(e.target)?;
                }
            }
            R::Return { src } if u32::from(*src) + f.n_results > fs => {
                return Err(VerifyError::BadReturnSrc { func: fidx, pc });
            }
            R::CallLocal { func, base } | R::CallImport { func, base } => {
                let import = matches!(op, R::CallImport { .. });
                if ctx.is_import(*func) != Some(import) {
                    return Err(VerifyError::BadFuncIndex {
                        func: fidx,
                        pc,
                        index: *func,
                    });
                }
                base_ok(*base, ctx.call_arity(*func).unwrap_or((0, 0)))?;
            }
            R::CallIndirect { type_idx, base, .. } => {
                let arity = ctx.type_arity(*type_idx).ok_or(VerifyError::BadTypeIndex {
                    func: fidx,
                    pc,
                    index: *type_idx,
                })?;
                base_ok(*base, arity)?;
            }
            R::MemoryCopy { args } | R::MemoryFill { args } => span_ok(u32::from(*args), 3)?,
            _ => {}
        }
    }

    // Pass B: definite assignment. A bitset holds the slots written on
    // every path to a pc; the meet at joins is intersection, so the
    // fixpoint is reached monotonically. Only the joins keep a state: any
    // other pc has one predecessor, the pc before it, so one running
    // bitset walks each straight-line run from a join until it ends or
    // falls into the next join.
    let words = fs.div_ceil(64) as usize;
    joins.words = words;
    joins.states.clear();
    joins.states.resize(n_joins as usize * words, 0);
    joins.reached.clear();
    joins.reached.resize(n_joins as usize, false);
    joins.work.clear();
    st.clear();
    st.resize(words, 0);
    taken.clear();
    taken.resize(words, 0);
    if n > 0 {
        for i in 0..f.n_locals {
            bit_set(st, i);
        }
        joins.flow(0, st);
    }
    while let Some(start) = joins.work.pop() {
        let j = joins.index[start] as usize;
        st.copy_from_slice(&joins.states[j * words..(j + 1) * words]);
        let mut pc = start;
        loop {
            let err_pc = pc as u32;
            macro_rules! rds {
                ($start:expr, $len:expr) => {{
                    let (start, len): (u32, u32) = ($start, $len);
                    for i in start..start + len {
                        if !bit_get(st, i) {
                            return Err(VerifyError::ReadBeforeWrite {
                                func: fidx,
                                pc: err_pc,
                                slot: i,
                            });
                        }
                    }
                }};
            }
            // The state on a taken edge that moves `keep` values to `dst`.
            macro_rules! moved {
                ($dst:expr, $keep:expr) => {{
                    taken.copy_from_slice(st);
                    for i in 0..u32::from($keep) {
                        bit_set(taken, u32::from($dst) + i);
                    }
                    &*taken
                }};
            }
            // The callee's frame overlays everything from `base` up; only
            // the results are defined afterwards.
            macro_rules! call {
                ($base:expr, $arity:expr) => {{
                    let ((np, nr), base) = ($arity.unwrap_or((0, 0)), u32::from($base));
                    rds!(base, np);
                    bit_clear_from(st, base, fs);
                    for i in 0..nr {
                        bit_set(st, base + i);
                    }
                }};
            }
            let op = &f.code[pc];
            let (reads, n_reads, write) = slot_operands(op);
            for &s in &reads[..n_reads] {
                rds!(u32::from(s), 1);
            }
            if let Some(s) = write {
                bit_set(st, u32::from(s));
            }
            // Whether control goes on to `pc + 1`.
            let falls = match op {
                R::Unreachable => false,
                R::Jump { target } => {
                    joins.flow(*target, st);
                    false
                }
                // An `IncBrLtS` jumps after its write, already in `st`.
                R::BrIf { target, .. } | R::CmpBr { target, .. } | R::IncBrLtS { target, .. } => {
                    joins.flow(*target, st);
                    true
                }
                R::BrMoves {
                    target,
                    src,
                    dst,
                    keep,
                }
                | R::BrIfMoves {
                    target,
                    src,
                    dst,
                    keep,
                    ..
                } => {
                    // The copy happens on the taken edge only (the one
                    // edge of a `BrMoves`); strictness: the source block
                    // must be written on every path in.
                    rds!(u32::from(*src), u32::from(*keep));
                    joins.flow(*target, moved!(*dst, *keep));
                    matches!(op, R::BrIfMoves { .. })
                }
                R::BrTable { entries, .. } => {
                    for e in entries.iter() {
                        rds!(u32::from(e.src), u32::from(e.keep));
                        joins.flow(e.target, moved!(e.dst, e.keep));
                    }
                    false
                }
                R::Return { src } => {
                    rds!(u32::from(*src), f.n_results);
                    false
                }
                R::CallLocal { func, base } | R::CallImport { func, base } => {
                    call!(*base, ctx.call_arity(*func));
                    true
                }
                R::CallIndirect { type_idx, base, .. } => {
                    call!(*base, ctx.type_arity(*type_idx));
                    true
                }
                R::MemoryCopy { args } | R::MemoryFill { args } => {
                    rds!(u32::from(*args), 3);
                    true
                }
                _ => true,
            };
            if !falls {
                break;
            }
            pc += 1;
            if pc >= n {
                return Err(VerifyError::MissingTerminator {
                    func: fidx,
                    pc: err_pc,
                });
            }
            if joins.index[pc] != NOT_JOIN {
                joins.flow(pc as u32, st);
                break;
            }
        }
    }
    Ok(edges)
}

/// Verifies register bodies one at a time against one module's facts and
/// sums their counts: the compile runs it on each body as soon as it is
/// lowered, while its code is still in cache, and [`verify_module`] over
/// a whole compiled module.
pub(crate) struct FuncVerifier<'a> {
    ctx: ModuleCtx<'a>,
    df: Dataflow,
    pub(crate) stats: VerifyStats,
}

impl<'a> FuncVerifier<'a> {
    /// A verifier for the bodies of a module with `n_imports` imports,
    /// the type index of every function (imports first), its type section
    /// and its globals' types.
    pub(crate) fn new(
        n_imports: usize,
        func_type_idx: &'a [u32],
        types: &'a [FuncType],
        global_types: &'a [ValType],
    ) -> Self {
        FuncVerifier {
            ctx: ModuleCtx {
                n_imports,
                func_type_idx,
                types,
                global_types,
            },
            df: Dataflow::default(),
            stats: VerifyStats::default(),
        }
    }

    /// Verifies `f`, the body of local function `fidx`.
    pub(crate) fn verify(&mut self, fidx: u32, f: &RegFunc) -> Result<(), VerifyError> {
        // Callers place arguments and read results by the declared type.
        let ctx = &self.ctx;
        let declared = (fidx as usize >= ctx.n_imports)
            .then(|| ctx.func_type_idx.get(fidx as usize))
            .flatten()
            .and_then(|&ti| ctx.types.get(ti as usize));
        if !declared.is_some_and(|t| {
            t.params.len() == f.n_params as usize
                && t.results.len() == f.n_results as usize
                && t.results[..] == f.result_types[..]
        }) {
            return Err(VerifyError::LengthMismatch { func: fidx });
        }
        self.stats.branch_targets += verify_reg_func(f, ctx, fidx, &mut self.df)?;
        self.stats.funcs += 1;
        self.stats.reg_ops += f.code.len() as u64;
        Ok(())
    }
}

/// Verifies every register body of a compiled module.
pub(crate) fn verify_module(
    cm: &CompiledModule,
    types: &[FuncType],
) -> Result<VerifyStats, VerifyError> {
    let n_imports = cm.imports.len();
    let mut v = FuncVerifier::new(n_imports, &cm.func_type_idx, types, &cm.global_types);
    if cm.funcs.len() != cm.func_type_idx.len() {
        return Err(VerifyError::LengthMismatch {
            func: cm.funcs.len() as u32,
        });
    }
    for (i, rf) in cm.funcs.iter().enumerate() {
        // Exactly the imports lack a body: the dispatch loop takes a
        // missing one for a host call.
        match rf {
            Some(f) if i >= n_imports => v.verify(i as u32, f)?,
            None if i < n_imports => {}
            _ => return Err(VerifyError::LengthMismatch { func: i as u32 }),
        }
    }
    Ok(v.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::exec::{ExecMode, Instance, Memory, NoHost, Trap, Value};
    use crate::instr::{Instr, MemArg};
    use crate::module::ExportKind;
    use crate::profile::ProfOp;
    use crate::types::BlockType;
    use crate::Module;
    use std::collections::{BTreeMap, BTreeSet};

    // ---- hand-built IR helpers --------------------------------------

    fn rfunc(
        n_params: u32,
        n_locals: u32,
        n_results: u32,
        frame_size: u32,
        code: Vec<RegOp>,
    ) -> RegFunc {
        let prof = vec![ProfOp::zero(); code.len()].into_boxed_slice();
        RegFunc {
            n_params,
            n_locals,
            n_results,
            frame_size,
            result_types: vec![ValType::I32; n_results as usize].into(),
            code: code.into_boxed_slice(),
            prof,
        }
    }

    fn ctx() -> ModuleCtx<'static> {
        ModuleCtx {
            n_imports: 0,
            func_type_idx: &[],
            types: &[],
            global_types: &[],
        }
    }

    /// A module of local functions with the given register bodies, and the
    /// type section (one all-i32 type per body) it is verified against.
    fn bare_module(funcs: Vec<RegFunc>) -> (CompiledModule, Vec<FuncType>) {
        let types = funcs
            .iter()
            .map(|f| FuncType {
                params: vec![ValType::I32; f.n_params as usize],
                results: f.result_types.to_vec(),
            })
            .collect();
        let cm = CompiledModule {
            imports: Box::new([]),
            func_type_idx: (0..funcs.len() as u32).collect(),
            global_types: Box::new([]),
            funcs: funcs.into_iter().map(Some).collect(),
            stats: crate::RegStats::default(),
            fusion: crate::FusionStats::default(),
            min_mem: 65536,
            verify: VerifyStats::default(),
            times: crate::CompileTimes::default(),
        };
        (cm, types)
    }

    // ---- negative corpus: every error variant, hand-crafted ---------

    #[test]
    fn rejects_reg_frame_violations() {
        use RegOp as R;
        let c = ctx();
        let f = rfunc(
            0,
            0,
            0,
            2,
            vec![R::Move { src: 5, dst: 0 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::SlotOutOfFrame { slot: 5, .. })
        ));

        let f = rfunc(
            0,
            0,
            0,
            1,
            vec![R::Jump { target: 9 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::JumpOutOfBounds { target: 9, .. })
        ));

        let f = rfunc(
            0,
            1,
            0,
            1,
            vec![R::BrTable {
                idx: 0,
                entries: Vec::new().into_boxed_slice(),
            }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::TruncatedBrTable { pc: 0, .. })
        ));

        // A 2-D address whose row width `n` is past the frame.
        let f = rfunc(
            0,
            3,
            0,
            3,
            vec![
                R::IdxLAdd {
                    base: 0,
                    y: 1,
                    n: 7,
                    z: 2,
                    k: 8,
                    dst: 0,
                },
                R::Return { src: 0 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::SlotOutOfFrame { slot: 7, .. })
        ));

        // A branch value transfer longer than the frame.
        let f = rfunc(
            0,
            1,
            0,
            1,
            vec![
                R::BrMoves {
                    target: 1,
                    src: 0,
                    dst: 0,
                    keep: 1025,
                },
                R::Return { src: 0 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::SlotOutOfFrame { slot: 1024, .. })
        ));

        let f = rfunc(0, 0, 1, 2, vec![R::Return { src: 2 }]);
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::BadReturnSrc { pc: 0, .. })
        ));

        let f = rfunc(
            0,
            0,
            0,
            1,
            vec![R::CallLocal { func: 5, base: 0 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::BadFuncIndex { index: 5, .. })
        ));

        let f = rfunc(
            0,
            1,
            0,
            1,
            vec![
                R::CallIndirect {
                    type_idx: 9,
                    idx: 0,
                    base: 0,
                },
                R::Return { src: 0 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::BadTypeIndex { index: 9, .. })
        ));

        // A global index past the (empty) global section: the dispatch
        // loop indexes `globals[idx]` unchecked.
        let f = rfunc(
            0,
            0,
            0,
            1,
            vec![R::GlobalGet { idx: 0, dst: 0 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::BadGlobalIndex { index: 0, .. })
        ));
        let f = rfunc(
            0,
            1,
            0,
            1,
            vec![R::GlobalSet { idx: 3, src: 0 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::BadGlobalIndex { index: 3, .. })
        ));

        // A call whose frame base leaves no room for the arguments.
        let callee_ty = [FuncType {
            params: vec![ValType::I32; 2],
            results: vec![ValType::I32],
        }];
        let c2 = ModuleCtx {
            n_imports: 0,
            func_type_idx: &[0],
            types: &callee_ty,
            global_types: &[],
        };
        let f = rfunc(
            0,
            2,
            0,
            2,
            vec![R::CallLocal { func: 0, base: 1 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c2, 0, &mut Dataflow::default()),
            Err(VerifyError::BadCallBase { pc: 0, .. })
        ));

        // A loop latch whose back edge lands past the end of the body.
        let f = rfunc(
            0,
            2,
            0,
            2,
            vec![
                R::IncBrLtS {
                    i: 0,
                    n: 1,
                    k: 1,
                    target: 3,
                },
                R::Return { src: 0 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::JumpOutOfBounds {
                pc: 0,
                target: 3,
                ..
            })
        ));

        // Skewed code/prof arrays.
        let mut f = rfunc(0, 0, 0, 1, vec![R::Return { src: 0 }]);
        f.prof = Box::new([]);
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_reg_dataflow_violations() {
        use RegOp as R;
        let c = ctx();
        // Straight-line read of a slot nothing ever wrote.
        let f = rfunc(
            0,
            0,
            0,
            2,
            vec![R::Move { src: 0, dst: 1 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::ReadBeforeWrite { pc: 0, slot: 0, .. })
        ));

        // A join where only the fall-through path writes the slot.
        let f = rfunc(
            0,
            1,
            0,
            3,
            vec![
                R::BrIf {
                    cond: 0,
                    jump_if: true,
                    target: 2,
                },
                R::Const { bits: 1, dst: 1 },
                R::Move { src: 1, dst: 2 },
                R::Return { src: 0 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::ReadBeforeWrite { pc: 2, slot: 1, .. })
        ));

        // A row index whose `z` no path wrote.
        let f = rfunc(
            0,
            2,
            0,
            4,
            vec![
                R::MulAddI32 {
                    y: 0,
                    n: 1,
                    z: 2,
                    dst: 3,
                },
                R::Return { src: 0 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::ReadBeforeWrite { pc: 0, slot: 2, .. })
        ));

        // A loop latch whose bound `n` no path wrote: the counter is a
        // local, the bound an operand slot the body never sets.
        let f = rfunc(
            0,
            1,
            0,
            2,
            vec![
                R::Jump { target: 2 },
                R::Return { src: 0 },
                R::IncBrLtS {
                    i: 0,
                    n: 1,
                    k: 1,
                    target: 2,
                },
                R::Jump { target: 1 },
            ],
        );
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::ReadBeforeWrite { pc: 2, slot: 1, .. })
        ));

        // Falling off the end of the register body.
        let f = rfunc(0, 0, 0, 1, vec![R::Const { bits: 0, dst: 0 }]);
        assert!(matches!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::MissingTerminator { pc: 0, .. })
        ));
    }

    #[test]
    fn a_back_edge_shrinks_the_loop_head() {
        use RegOp as R;
        // Slot 2 is written before the loop, so the head's first visit
        // reads it; the call in the body clobbers it, and only the second
        // visit, over the back edge, sees the read that can fail.
        let callee = [FuncType {
            params: vec![],
            results: vec![],
        }];
        let c = ModuleCtx {
            n_imports: 0,
            func_type_idx: &[0],
            types: &callee,
            global_types: &[],
        };
        let f = rfunc(
            0,
            1,
            0,
            4,
            vec![
                R::Const { bits: 7, dst: 2 },
                R::Move { src: 2, dst: 3 },
                R::CallLocal { func: 0, base: 2 },
                R::BrIf {
                    cond: 0,
                    jump_if: true,
                    target: 1,
                },
                R::Return { src: 0 },
            ],
        );
        assert_eq!(
            verify_reg_func(&f, &c, 0, &mut Dataflow::default()),
            Err(VerifyError::ReadBeforeWrite {
                func: 0,
                pc: 1,
                slot: 2
            })
        );
    }

    #[test]
    fn a_fall_through_shrinks_a_branch_target() {
        use RegOp as R;
        // The taken edge writes slot 1 on its way to pc 2; the fall-through
        // arrives later and without it, so the state the target already
        // holds has to shrink. (`rejects_reg_dataflow_violations` has the
        // mirror case: the taken edge is the path without the write.)
        let f = rfunc(
            0,
            1,
            0,
            3,
            vec![
                R::BrIfMoves {
                    cond: 0,
                    jump_if: true,
                    target: 2,
                    src: 0,
                    dst: 1,
                    keep: 1,
                },
                R::Const { bits: 0, dst: 2 },
                R::Move { src: 1, dst: 2 },
                R::Return { src: 0 },
            ],
        );
        assert_eq!(
            verify_reg_func(&f, &ctx(), 0, &mut Dataflow::default()),
            Err(VerifyError::ReadBeforeWrite {
                func: 0,
                pc: 2,
                slot: 1
            })
        );
    }

    #[test]
    fn rejects_skewed_metadata() {
        // A body whose signature is not its declared type's, and a program
        // that does not cover the function space, surface at the module
        // level.
        let ret = || rfunc(0, 0, 1, 1, vec![RegOp::Return { src: 0 }]);
        let (mut cm, types) = bare_module(vec![ret()]);
        cm.funcs[0].as_mut().unwrap().n_results = 0;
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::LengthMismatch { func: 0 })
        ));
        let (mut cm, types) = bare_module(vec![ret()]);
        cm.funcs = Box::new([None]);
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::LengthMismatch { func: 0 })
        ));
        let (mut cm, types) = bare_module(vec![ret()]);
        cm.func_type_idx = Box::new([0, 0]);
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::LengthMismatch { func: 1 })
        ));
    }

    // ---- corpus modules for the mutation harness --------------------

    /// i32 kernel exercising every register shape the mutation operators
    /// attack: a constant-address load, a store-then-reload loop, a
    /// three-way `br_table`, a value-carrying `br_if`, a direct call, two indirect
    /// ones (one of a `() -> ()` type, so nothing downstream depends on
    /// its arity), and a global round-trip.
    fn mix_module() -> Module {
        use Instr as I;
        let mut b = ModuleBuilder::new();
        let bin = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let un = b.add_type(&[ValType::I32], &[ValType::I32]);
        let void = b.add_type(&[], &[]);
        b.add_memory(1, Some(1));
        b.add_table(2, Some(2));
        b.add_global(ValType::I32, true, I::I32Const(0));
        let helper = b.add_func(
            bin,
            &[],
            vec![I::LocalGet(0), I::LocalGet(1), I::I32Add, I::End],
        );
        let nop = b.add_func(void, &[], vec![I::End]);
        b.add_elems(0, &[helper, nop]);
        let m = MemArg {
            align: 2,
            offset: 0,
        };
        // Locals: 0 = n (param), 1 = i, 2 = acc.
        let kernel = b.add_func(
            un,
            &[ValType::I32, ValType::I32],
            vec![
                // acc = mem[8] — a constant address.
                I::I32Const(8),
                I::I32Load(m),
                I::LocalSet(2),
                // for i in 0..16 { mem[i*4] = i; acc += mem[i*4] } — a
                // reload of the address just stored to.
                I::Block(BlockType::Empty),
                I::Loop(BlockType::Empty),
                I::LocalGet(1),
                I::I32Const(16),
                I::I32GeS,
                I::BrIf(1),
                I::LocalGet(1),
                I::I32Const(4),
                I::I32Mul,
                I::LocalGet(1),
                I::I32Store(m),
                I::LocalGet(2),
                I::LocalGet(1),
                I::I32Const(4),
                I::I32Mul,
                I::I32Load(m),
                I::I32Add,
                I::LocalSet(2),
                I::LocalGet(1),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(1),
                I::Br(0),
                I::End,
                I::End,
                // Three-way br_table on n % 3.
                I::Block(BlockType::Empty),
                I::Block(BlockType::Empty),
                I::Block(BlockType::Empty),
                I::LocalGet(0),
                I::I32Const(3),
                I::I32RemU,
                I::BrTable {
                    targets: vec![0, 1],
                    default: 2,
                },
                I::End,
                I::LocalGet(2),
                I::I32Const(10),
                I::I32Add,
                I::LocalSet(2),
                I::Br(1),
                I::End,
                I::LocalGet(2),
                I::I32Const(20),
                I::I32Add,
                I::LocalSet(2),
                I::End,
                // A value-carrying conditional branch with a scratch
                // value beneath it, so the taken edge needs a real
                // value transfer (`BrIfMoves { keep: 1 }`).
                I::Block(BlockType::Value(ValType::I32)),
                I::LocalGet(2),
                I::LocalGet(2),
                I::LocalGet(0),
                I::BrIf(0),
                I::Drop,
                I::Drop,
                I::I32Const(99),
                I::End,
                I::LocalSet(2),
                // acc = add(acc, n), directly and through the table, then
                // round-trip through the global.
                I::LocalGet(2),
                I::LocalGet(0),
                I::Call(helper),
                I::LocalSet(2),
                I::LocalGet(2),
                I::LocalGet(0),
                I::I32Const(0),
                I::CallIndirect {
                    type_idx: bin,
                    table: 0,
                },
                I::LocalSet(2),
                I::I32Const(1),
                I::CallIndirect {
                    type_idx: void,
                    table: 0,
                },
                I::LocalGet(2),
                I::GlobalSet(0),
                I::GlobalGet(0),
                I::End,
            ],
        );
        b.export_func("kernel", kernel);
        crate::load(&b.build()).expect("mix module is valid")
    }

    /// i32 kernel over a table whose base and length are globals, as the
    /// speedtest guest keeps them: the loop reads both and sets neither,
    /// so each is loaded into a cache slot in front of it, and each
    /// iteration reloads through the cached base what it just stored.
    fn table_module() -> Module {
        use Instr as I;
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        b.add_memory(1, Some(1));
        let base = b.add_global(ValType::I32, true, I::I32Const(64));
        let len = b.add_global(ValType::I32, true, I::I32Const(8));
        let m = MemArg::new(2, 0);
        let cell = [
            I::GlobalGet(base),
            I::LocalGet(1),
            I::I32Const(4),
            I::I32Mul,
            I::I32Add,
        ];
        // Locals: 0 = n (param), 1 = i, 2 = acc.
        // for i < len { base[i] = i + n; acc += base[i] }; len = acc.
        let mut code = vec![
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(1),
            I::GlobalGet(len),
            I::I32GeS,
            I::BrIf(1),
        ];
        code.extend(cell.clone());
        code.extend([I::LocalGet(1), I::LocalGet(0), I::I32Add, I::I32Store(m)]);
        code.push(I::LocalGet(2));
        code.extend(cell);
        code.extend([
            I::I32Load(m),
            I::I32Add,
            I::LocalSet(2),
            I::LocalGet(1),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(1),
            I::Br(0),
            I::End,
            I::End,
            I::LocalGet(2),
            I::GlobalSet(len),
            I::LocalGet(2),
            I::End,
        ]);
        let kernel = b.add_func(ty, &[ValType::I32, ValType::I32], code);
        b.export_func("kernel", kernel);
        crate::load(&b.build()).expect("table module is valid")
    }

    /// f64 kernel: each iteration stores to the address it just loaded
    /// from, and the tail reads a constant address.
    fn axpy_module() -> Module {
        use Instr as I;
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::F64]);
        b.add_memory(1, Some(1));
        let m8 = MemArg {
            align: 3,
            offset: 0,
        };
        // Locals: 0 = n (param, unused bound), 1 = i.
        let kernel = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                I::Block(BlockType::Empty),
                I::Loop(BlockType::Empty),
                I::LocalGet(1),
                I::I32Const(8),
                I::I32GeS,
                I::BrIf(1),
                I::LocalGet(1),
                I::I32Const(8),
                I::I32Mul,
                I::LocalGet(1),
                I::I32Const(8),
                I::I32Mul,
                I::F64Load(m8),
                I::F64Const(2.0),
                I::F64Mul,
                I::F64Const(1.0),
                I::F64Add,
                I::F64Store(m8),
                I::LocalGet(1),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(1),
                I::Br(0),
                I::End,
                I::End,
                I::I32Const(0),
                I::F64Load(m8),
                I::End,
            ],
        );
        b.export_func("kernel", kernel);
        crate::load(&b.build()).expect("axpy module is valid")
    }

    /// f64 kernel over an `n x n` row-major grid: each cell is read twice
    /// through the 2-D address form, written back through the 2-D address
    /// without a load,
    /// and its row index `i*n + j` kept in a local (`MulAddI32`).
    fn grid_module() -> Module {
        use Instr as I;
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::F64]);
        b.add_memory(1, Some(1));
        let cells: Vec<u8> = (0..64)
            .flat_map(|c| (f64::from(c) * 0.5).to_le_bytes())
            .collect();
        b.add_data(0, &cells);
        let m8 = MemArg::new(3, 0);
        let cell = || {
            vec![
                I::I32Const(0),
                I::LocalGet(1),
                I::LocalGet(0),
                I::I32Mul,
                I::LocalGet(2),
                I::I32Add,
                I::I32Const(8),
                I::I32Mul,
                I::I32Add,
            ]
        };
        // Locals: 0 = n (param), 1 = i, 2 = j, 3 = acc, 4 = last row index.
        // The inner loop tests `j < n` as MiniC does, so its latch steps
        // and tests in one `IncBrLtS`; the outer one's `i >= n` head makes
        // its latch a `CmpBr`.
        let mut inner = vec![
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(2),
            I::LocalGet(0),
            I::I32LtS,
            I::I32Eqz,
            I::BrIf(1),
            I::LocalGet(3),
        ];
        inner.extend(cell());
        inner.push(I::F64Load(m8));
        inner.extend(cell());
        inner.extend([I::F64Load(m8), I::F64Add, I::F64Add, I::LocalSet(3)]);
        inner.extend(cell());
        inner.extend([I::LocalGet(3), I::F64Store(m8)]);
        inner.extend([
            I::LocalGet(1),
            I::LocalGet(0),
            I::I32Mul,
            I::LocalGet(2),
            I::I32Add,
            I::LocalSet(4),
            I::LocalGet(2),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(2),
            I::Br(0),
            I::End,
            I::End,
        ]);
        let mut code = vec![
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(1),
            I::LocalGet(0),
            I::I32GeS,
            I::BrIf(1),
            I::I32Const(0),
            I::LocalSet(2),
        ];
        code.extend(inner);
        code.extend([
            I::LocalGet(1),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(1),
            I::Br(0),
            I::End,
            I::End,
            I::LocalGet(3),
            I::LocalGet(4),
            I::F64ConvertI32S,
            I::F64Add,
            I::End,
        ]);
        let kernel = b.add_func(
            ty,
            &[ValType::I32, ValType::I32, ValType::F64, ValType::I32],
            code,
        );
        b.export_func("kernel", kernel);
        crate::load(&b.build()).expect("grid module is valid")
    }

    // ---- direct register-engine execution (bypasses Instance, so ----
    // ---- mutated modules can run without re-verification) ----------

    fn const_val(init: &Instr) -> Value {
        match *init {
            Instr::I32Const(v) => Value::I32(v),
            Instr::I64Const(v) => Value::I64(v),
            Instr::F32Const(v) => Value::F32(v),
            Instr::F64Const(v) => Value::F64(v),
            ref other => panic!("unsupported global initializer {other:?}"),
        }
    }

    fn export_idx(module: &Module, name: &str) -> u32 {
        module
            .exports
            .iter()
            .find(|e| e.name == name && matches!(e.kind, ExportKind::Func))
            .expect("exported function")
            .index
    }

    fn run_engine(
        fm: &CompiledModule,
        module: &Module,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let lim = module.memories.first();
        let mut memory = Memory::new(lim.map_or(0, |l| l.min), lim.and_then(|l| l.max));
        let mut bytes = memory.take_data();
        for seg in &module.data {
            let Instr::I32Const(off) = seg.offset else {
                panic!("non-constant data offset")
            };
            bytes[off as usize..off as usize + seg.bytes.len()].copy_from_slice(&seg.bytes);
        }
        memory.put_data(bytes);
        let mut globals: Vec<Value> = module.globals.iter().map(|g| const_val(&g.init)).collect();
        let mut table: Vec<Option<u32>> =
            vec![None; module.tables.first().map_or(0, |l| l.min as usize)];
        for seg in &module.elems {
            let Instr::I32Const(off) = seg.offset else {
                panic!("non-constant elem offset")
            };
            for (i, &fi) in seg.funcs.iter().enumerate() {
                table[off as usize + i] = Some(fi);
            }
        }
        crate::reg::run(
            fm,
            &module.types,
            &table,
            &mut memory,
            &mut globals,
            &mut NoHost,
            export_idx(module, "kernel"),
            args,
            None,
        )
    }

    /// Reference result from the structured tree-walking interpreter —
    /// the rung the verifier never touches.
    fn oracle(module: &Module, args: &[Value]) -> Vec<Value> {
        let mut inst = Instance::instantiate(module, ExecMode::Interpreted, &mut NoHost)
            .expect("interpreted oracle instantiates");
        inst.invoke(&mut NoHost, "kernel", args)
            .expect("oracle run")
    }

    // ---- positive checks over the corpus ----------------------------

    #[test]
    fn corpus_verifies_and_runs() {
        for (name, module) in [
            ("mix", mix_module()),
            ("axpy", axpy_module()),
            ("grid", grid_module()),
            ("table", table_module()),
        ] {
            for fuse in [true, false] {
                let fm = CompiledModule::compile_full(&module, fuse).unwrap();
                let stats = verify_module(&fm, &module.types).expect("module verifies");
                assert!(stats.reg_ops > 0, "{name} (fuse={fuse}): {stats:?}");
                for n in [0, 1, 2, 7] {
                    let args = [Value::I32(n)];
                    let want = oracle(&module, &args);
                    let got = run_engine(&fm, &module, &args).unwrap();
                    assert_eq!(got, want, "{name} (fuse={fuse})");
                }
            }
        }
        // The grid carries every row form.
        let fm = CompiledModule::compile_full(&grid_module(), true).unwrap();
        let code = format!("{:?}", fm.funcs);
        for variant in ["IdxLAdd {", "IdxLAddLoadF64 {", "MulAddI32 {"] {
            assert!(code.contains(variant), "no {variant}: {code}");
        }
    }

    // ---- deterministic IR mutation harness --------------------------

    struct Rng(u64);

    impl Rng {
        fn roll(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.roll() % n
        }
    }

    fn reg_sites(fm: &CompiledModule, pred: impl Fn(&RegOp) -> bool) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        for (fi, rf) in fm.funcs.iter().enumerate() {
            if let Some(f) = rf {
                for (pc, op) in f.code.iter().enumerate() {
                    if pred(op) {
                        v.push((fi, pc));
                    }
                }
            }
        }
        v
    }

    fn reg_body_mut(fm: &mut CompiledModule, fi: usize) -> &mut RegFunc {
        fm.funcs[fi]
            .as_mut()
            .expect("sites only name lowered functions")
    }

    fn reg_has_target(op: &RegOp) -> bool {
        use RegOp as R;
        matches!(
            op,
            R::Jump { .. }
                | R::BrIf { .. }
                | R::BrMoves { .. }
                | R::BrIfMoves { .. }
                | R::CmpBr { .. }
                | R::IncBrLtS { .. }
        )
    }

    /// The ops that compute a row index `y*n + z`.
    fn is_row_op(op: &RegOp) -> bool {
        use RegOp as R;
        matches!(
            op,
            R::IdxLAdd { .. } | R::IdxLAddLoadF64 { .. } | R::MulAddI32 { .. }
        )
    }

    /// A loop latch: an `IncBrLtS`, or a `CmpBr` copied from a loop head.
    fn is_latch(op: &RegOp) -> bool {
        matches!(
            op,
            RegOp::IncBrLtS { .. } | RegOp::CmpBr { latch: true, .. }
        )
    }

    /// The two slot operands of a latch.
    fn latch_operands_mut(op: &mut RegOp) -> Option<[&mut u16; 2]> {
        match op {
            RegOp::IncBrLtS { i, n, .. } => Some([i, n]),
            RegOp::CmpBr { a, b, .. } => Some([a, b]),
            _ => None,
        }
    }

    /// The `y`, `n` and `z` operands of a row op.
    fn row_operands_mut(op: &mut RegOp) -> Option<[&mut u16; 3]> {
        use RegOp as R;
        match op {
            R::IdxLAdd { y, n, z, .. }
            | R::IdxLAddLoadF64 { y, n, z, .. }
            | R::MulAddI32 { y, n, z, .. } => Some([y, n, z]),
            _ => None,
        }
    }

    fn reg_target_mut(op: &mut RegOp) -> Option<&mut u32> {
        use RegOp as R;
        match op {
            R::Jump { target }
            | R::BrIf { target, .. }
            | R::BrMoves { target, .. }
            | R::BrIfMoves { target, .. }
            | R::CmpBr { target, .. }
            | R::IncBrLtS { target, .. } => Some(target),
            _ => None,
        }
    }

    fn callee_max_arity(fm: &CompiledModule, types: &[FuncType], func: u32) -> usize {
        let ty = &types[fm.func_type_idx[func as usize] as usize];
        ty.params.len().max(ty.results.len())
    }

    fn pick(v: &[(usize, usize)], rng: &mut Rng) -> Option<(usize, usize)> {
        if v.is_empty() {
            None
        } else {
            Some(v[rng.below(v.len() as u64) as usize])
        }
    }

    /// `(operator, must_reject)`. Every structural operator produces a
    /// value that is out of range *by construction* (targets past the
    /// body, slots past the frame, indices past their section), so a
    /// sound verifier must reject it; `reg-prof-tweak` only touches retirement
    /// metadata the engine never reads on the result path, so a sound
    /// verifier must accept it and execution must stay bit-equal to the
    /// oracle. In-range retargets or immediate swaps are deliberately
    /// absent: a well-formedness verifier can accept those while the
    /// behavior silently changes, which would make the harness flaky
    /// rather than a soundness proof.
    /// `reg-drop-cache-load` replaces a load of a global's cache slot in
    /// front of a loop with a jump to the next op: the slot is read in the
    /// loop and nothing else writes it, so it must fail as
    /// [`VerifyError::ReadBeforeWrite`].
    const OPERATORS: [(&str, bool); 13] = [
        ("reg-global-oob", true),
        ("reg-drop-cache-load", true),
        ("reg-row-operand-oob", true),
        ("reg-latch-operand-oob", true),
        ("reg-keep-bomb", true),
        ("reg-func-oob", true),
        ("reg-type-oob", true),
        ("reg-slot-oob", true),
        ("reg-retarget-oob", true),
        ("reg-return-src-bomb", true),
        ("reg-call-base-bomb", true),
        ("reg-table-empty", true),
        ("reg-prof-tweak", false),
    ];

    #[allow(clippy::too_many_lines)]
    fn apply_mutation(
        fm: &mut CompiledModule,
        module: &Module,
        rng: &mut Rng,
    ) -> Option<(&'static str, bool)> {
        let types = &module.types[..];
        let (name, must_reject) = OPERATORS[rng.below(OPERATORS.len() as u64) as usize];
        let applied = match name {
            "reg-drop-cache-load" => {
                let cached = |fi: usize| {
                    let f = fm.funcs[fi].as_ref().unwrap();
                    let first = f.n_locals as usize;
                    first..first + crate::reg::cache_slots(module, fi)
                };
                let sites: Vec<_> = reg_sites(fm, |_| true)
                    .into_iter()
                    .filter(|&(fi, pc)| {
                        let code = &fm.funcs[fi].as_ref().unwrap().code;
                        matches!(code[pc], RegOp::GlobalGet { dst, .. }
                            if cached(fi).contains(&usize::from(dst)))
                    })
                    .collect();
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let target = pc as u32 + 1;
                    reg_body_mut(fm, fi).code[pc] = RegOp::Jump { target };
                    true
                } else {
                    false
                }
            }
            "reg-global-oob" => {
                let sites = reg_sites(fm, |op| {
                    matches!(op, RegOp::GlobalGet { .. } | RegOp::GlobalSet { .. })
                });
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let oob = fm.global_types.len() as u32 + rng.below(3) as u32;
                    match &mut reg_body_mut(fm, fi).code[pc] {
                        RegOp::GlobalGet { idx, .. } | RegOp::GlobalSet { idx, .. } => *idx = oob,
                        _ => unreachable!(),
                    }
                    true
                } else {
                    false
                }
            }
            "reg-keep-bomb" => {
                let sites = reg_sites(fm, |op| {
                    matches!(
                        op,
                        RegOp::BrMoves { .. } | RegOp::BrIfMoves { .. } | RegOp::BrTable { .. }
                    )
                });
                if let Some((fi, pc)) = pick(&sites, rng) {
                    match &mut reg_body_mut(fm, fi).code[pc] {
                        RegOp::BrMoves { keep, .. } | RegOp::BrIfMoves { keep, .. } => {
                            *keep += 1024;
                        }
                        RegOp::BrTable { entries, .. } => {
                            let arm = rng.below(entries.len() as u64) as usize;
                            entries[arm].keep += 1024;
                        }
                        _ => unreachable!(),
                    }
                    true
                } else {
                    false
                }
            }
            "reg-func-oob" => {
                let sites = reg_sites(fm, |op| {
                    matches!(op, RegOp::CallLocal { .. } | RegOp::CallImport { .. })
                });
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let oob = fm.func_type_idx.len() as u32 + rng.below(3) as u32;
                    let wrong_kind = rng.below(2) == 0;
                    let op = &mut reg_body_mut(fm, fi).code[pc];
                    *op = match *op {
                        // The same index under the other opcode names the
                        // wrong kind of function.
                        RegOp::CallLocal { func, base } if wrong_kind => {
                            RegOp::CallImport { func, base }
                        }
                        RegOp::CallImport { func, base } if wrong_kind => {
                            RegOp::CallLocal { func, base }
                        }
                        RegOp::CallLocal { base, .. } => RegOp::CallLocal { func: oob, base },
                        RegOp::CallImport { base, .. } => RegOp::CallImport { func: oob, base },
                        _ => unreachable!(),
                    };
                    true
                } else {
                    false
                }
            }
            "reg-type-oob" => {
                let sites = reg_sites(fm, |op| matches!(op, RegOp::CallIndirect { .. }));
                if let Some((fi, pc)) = pick(&sites, rng) {
                    if let RegOp::CallIndirect { type_idx, .. } = &mut reg_body_mut(fm, fi).code[pc]
                    {
                        *type_idx = types.len() as u32 + rng.below(3) as u32;
                    }
                    true
                } else {
                    false
                }
            }
            "reg-slot-oob" => {
                let sites = reg_sites(fm, |_| true);
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let f = reg_body_mut(fm, fi);
                    let oob = u16::try_from(f.frame_size + 1 + rng.below(3) as u32)
                        .expect("corpus frames are tiny");
                    f.code[pc] = RegOp::Move { src: oob, dst: 0 };
                    true
                } else {
                    false
                }
            }
            "reg-row-operand-oob" => {
                let sites = reg_sites(fm, is_row_op);
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let which = rng.below(3) as usize;
                    let f = reg_body_mut(fm, fi);
                    let oob = u16::try_from(f.frame_size + rng.below(3) as u32)
                        .expect("corpus frames are tiny");
                    let [y, n, z] = row_operands_mut(&mut f.code[pc]).expect("site is a row op");
                    *[y, n, z][which] = oob;
                    true
                } else {
                    false
                }
            }
            "reg-latch-operand-oob" => {
                let sites = reg_sites(fm, is_latch);
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let which = rng.below(2) as usize;
                    let f = reg_body_mut(fm, fi);
                    let oob = u16::try_from(f.frame_size + rng.below(3) as u32)
                        .expect("corpus frames are tiny");
                    let [a, b] = latch_operands_mut(&mut f.code[pc]).expect("site is a latch");
                    *[a, b][which] = oob;
                    true
                } else {
                    false
                }
            }
            "reg-retarget-oob" => {
                let sites = reg_sites(fm, reg_has_target);
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let f = reg_body_mut(fm, fi);
                    let oob = f.code.len() as u32 + 1 + rng.below(7) as u32;
                    *reg_target_mut(&mut f.code[pc]).expect("site has a target") = oob;
                    true
                } else {
                    false
                }
            }
            "reg-return-src-bomb" => {
                let sites = reg_sites(fm, |op| matches!(op, RegOp::Return { .. }));
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let f = reg_body_mut(fm, fi);
                    let oob = u16::try_from(f.frame_size + 1).expect("corpus frames are tiny");
                    f.code[pc] = RegOp::Return { src: oob };
                    true
                } else {
                    false
                }
            }
            "reg-call-base-bomb" => {
                // Only calls that move at least one value: an arity-0
                // callee with `base == frame_size` is legal.
                let sites = reg_sites(fm, |op| match op {
                    RegOp::CallLocal { func, .. } | RegOp::CallImport { func, .. } => {
                        callee_max_arity(fm, types, *func) > 0
                    }
                    _ => false,
                });
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let fs = reg_body_mut(fm, fi).frame_size;
                    match &mut reg_body_mut(fm, fi).code[pc] {
                        RegOp::CallLocal { base, .. } | RegOp::CallImport { base, .. } => {
                            *base = u16::try_from(fs).expect("corpus frames are tiny");
                        }
                        _ => unreachable!(),
                    }
                    true
                } else {
                    false
                }
            }
            "reg-table-empty" => {
                let sites = reg_sites(fm, |op| matches!(op, RegOp::BrTable { .. }));
                if let Some((fi, pc)) = pick(&sites, rng) {
                    if let RegOp::BrTable { entries, .. } = &mut reg_body_mut(fm, fi).code[pc] {
                        *entries = Vec::new().into_boxed_slice();
                    }
                    true
                } else {
                    false
                }
            }
            "reg-prof-tweak" => {
                let sites = reg_sites(fm, |_| true);
                if let Some((fi, pc)) = pick(&sites, rng) {
                    let f = reg_body_mut(fm, fi);
                    f.prof[pc].weight = f.prof[pc].weight.wrapping_add(1);
                    true
                } else {
                    false
                }
            }
            _ => unreachable!("unknown operator {name}"),
        };
        applied.then_some((name, must_reject))
    }

    fn variant_name(e: &VerifyError) -> &'static str {
        use VerifyError as E;
        match e {
            E::JumpOutOfBounds { .. } => "JumpOutOfBounds",
            E::TruncatedBrTable { .. } => "TruncatedBrTable",
            E::LengthMismatch { .. } => "LengthMismatch",
            E::MissingTerminator { .. } => "MissingTerminator",
            E::BadGlobalIndex { .. } => "BadGlobalIndex",
            E::BadFuncIndex { .. } => "BadFuncIndex",
            E::BadTypeIndex { .. } => "BadTypeIndex",
            E::SlotOutOfFrame { .. } => "SlotOutOfFrame",
            E::ReadBeforeWrite { .. } => "ReadBeforeWrite",
            E::BadReturnSrc { .. } => "BadReturnSrc",
            E::BadCallBase { .. } => "BadCallBase",
        }
    }

    /// The soundness pin: every deterministic mutant of the register code
    /// either fails verification, or passes *and* executes bit-equal to
    /// the tree-walking oracle on the register engine. No mutant may
    /// pass the verifier and diverge.
    #[test]
    fn mutation_harness_no_silent_divergence() {
        let corpus = [
            ("mix", mix_module()),
            ("axpy", axpy_module()),
            ("grid", grid_module()),
            ("table", table_module()),
        ];
        let arg_set = [0, 1, 2, 7].map(|n| [Value::I32(n)]);
        let mut fired: BTreeMap<&'static str, u32> = BTreeMap::new();
        let mut variants: BTreeSet<&'static str> = BTreeSet::new();
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for (mi, (name, module)) in corpus.iter().enumerate() {
            let oracles: Vec<Vec<Value>> = arg_set.iter().map(|a| oracle(module, a)).collect();
            let pristine = CompiledModule::compile_full(module, true).unwrap();
            verify_module(&pristine, &module.types).expect("pristine module verifies");

            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (mi as u64 + 1));
            for _ in 0..250 {
                let mut fm = CompiledModule::compile_full(module, true).unwrap();
                let Some((op_name, must_reject)) = apply_mutation(&mut fm, module, &mut rng) else {
                    continue;
                };
                *fired.entry(op_name).or_insert(0) += 1;
                match verify_module(&fm, &module.types) {
                    Err(e) => {
                        assert!(
                            must_reject,
                            "{name}: benign mutation {op_name} rejected: {e}"
                        );
                        assert!(
                            op_name != "reg-drop-cache-load"
                                || matches!(e, VerifyError::ReadBeforeWrite { .. }),
                            "{name}: a dropped cache load fails as {e}"
                        );
                        rejected += 1;
                        variants.insert(variant_name(&e));
                    }
                    Ok(_) => {
                        assert!(
                            !must_reject,
                            "{name}: structural mutation {op_name} passed the verifier"
                        );
                        accepted += 1;
                        for (args, want) in arg_set.iter().zip(&oracles) {
                            let out = run_engine(&fm, module, args)
                                .expect("accepted mutant runs on the register engine");
                            assert_eq!(&out, want, "{name}: {op_name} diverges from the oracle");
                        }
                    }
                }
            }
        }
        assert!(accepted > 0, "no mutant was ever accepted");
        assert!(rejected > 0, "no mutant was ever rejected");
        for (op, _) in OPERATORS {
            assert!(
                fired.get(op).copied().unwrap_or(0) > 0,
                "operator {op} never found a site; fired = {fired:?}"
            );
        }
        assert!(
            variants.len() >= 6,
            "expected a diverse rejection surface, got {variants:?}"
        );
    }
}
