//! Independent verifier for the register code an instance executes.
//!
//! Every compiled module can be re-checked, opcode by opcode, against the
//! invariants the register engine relies on — **without reusing any
//! lowering code**. The verifier keeps its own read/write model of the
//! register IR, so a bug in the lowering (or a hostile mutation of a
//! lowered body) is caught by a second, structurally different derivation
//! of the same facts. The flat stream the register pass consumes is
//! compile-time scratch ([`crate::flat`]) and is not verified: nothing can
//! execute it, and every property of it that bears on execution — branch
//! targets, value transfers that fit the frame, index ranges, a value on
//! every path to its use — is a property of the register code below.
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
//! - a definite-assignment dataflow (bitset per pc, intersection at
//!   joins) proves no op reads a frame slot that some path never wrote;
//!   calls clobber every slot from the callee's frame base up; the body
//!   cannot fall off the end past a non-terminator.
//!
//! # Check-free proof obligations
//!
//! The bounds-check elision pass ([`crate::analysis`]) rewrites proven
//! accesses of the register form to check-free opcodes. The verifier
//! re-runs the same deterministic analysis over the *rewritten* body and
//! rejects any check-free opcode whose in-bounds proof it cannot
//! reproduce ([`VerifyError::UnprovenCheckFree`]) — the optimizer cannot
//! outrun the analysis.
//!
//! Set `WATZ_VERIFY_IR=1` (or [`crate::exec::EngineConfig::verify`]) to
//! verify every module at instantiation time; verification is also forced
//! across the differential corpus in CI.

use crate::analysis;
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
    /// A check-free memory opcode whose in-bounds proof the analysis
    /// cannot reproduce.
    UnprovenCheckFree {
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
            E::UnprovenCheckFree { func, pc } => {
                write!(
                    f,
                    "func {func} pc {pc}: check-free access without a provable bound"
                )
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
    /// Always 0: the flat stream is compile-time scratch and is not
    /// verified. Exists only because `benchmark/` reads it; goes with the
    /// next benchmark PR.
    pub flat_ops: u64,
    /// Register opcodes checked.
    pub reg_ops: u64,
    /// Branch edges whose targets and entry states were validated.
    pub branch_targets: u64,
    /// Check-free memory opcodes whose in-bounds proof was re-derived.
    pub obligations: u64,
}

impl VerifyStats {
    /// Per-counter `(name, count)` pairs, for coverage assertions and
    /// logs.
    #[must_use]
    pub fn counts(&self) -> [(&'static str, u64); 5] {
        [
            ("funcs", self.funcs),
            ("flat_ops", self.flat_ops),
            ("reg_ops", self.reg_ops),
            ("branch_targets", self.branch_targets),
            ("obligations", self.obligations),
        ]
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &VerifyStats) {
        self.funcs += other.funcs;
        self.flat_ops += other.flat_ops;
        self.reg_ops += other.reg_ops;
        self.branch_targets += other.branch_targets;
        self.obligations += other.obligations;
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
    /// The memory's minimum size in bytes — the floor `mem.len()` never
    /// goes below, which anchors every in-bounds proof.
    min_mem: u64,
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

/// Dense bitset over frame slots, one per pc in the dataflow.
type Bits = Box<[u64]>;

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

/// Verifies one register body: frame-slot bounds, jump targets, index
/// ranges, call frame bases, and the definite-assignment dataflow (no
/// read of a frame slot some path never wrote). Returns the branch-edge
/// count.
#[allow(clippy::too_many_lines)]
fn verify_reg_func(f: &RegFunc, ctx: &ModuleCtx<'_>, fidx: u32) -> Result<u64, VerifyError> {
    use RegOp as R;
    let n = f.code.len();
    let fs = f.frame_size;
    if f.code.len() != f.prof.len() || f.n_params > f.n_locals || f.n_locals > fs {
        return Err(VerifyError::LengthMismatch { func: fidx });
    }

    // Pass A: linear bounds checks over every op, reachable or not.
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
        let target_ok = |edges: &mut u64, t: u32| {
            *edges += 1;
            if (t as usize) < n {
                Ok(())
            } else {
                Err(VerifyError::JumpOutOfBounds {
                    func: fidx,
                    pc,
                    target: t,
                })
            }
        };
        match op {
            R::Unreachable => {}
            R::Jump { target } => target_ok(&mut edges, *target)?,
            R::BrIf { cond, target, .. } => {
                slot_ok(u32::from(*cond))?;
                target_ok(&mut edges, *target)?;
            }
            R::BrMoves {
                target,
                src,
                dst,
                keep,
            } => {
                span_ok(u32::from(*src), u32::from(*keep))?;
                span_ok(u32::from(*dst), u32::from(*keep))?;
                target_ok(&mut edges, *target)?;
            }
            R::BrIfMoves {
                cond,
                target,
                src,
                dst,
                keep,
                ..
            } => {
                slot_ok(u32::from(*cond))?;
                span_ok(u32::from(*src), u32::from(*keep))?;
                span_ok(u32::from(*dst), u32::from(*keep))?;
                target_ok(&mut edges, *target)?;
            }
            R::BrTable { idx, entries } => {
                slot_ok(u32::from(*idx))?;
                if entries.is_empty() {
                    return Err(VerifyError::TruncatedBrTable { func: fidx, pc });
                }
                for e in entries.iter() {
                    span_ok(u32::from(e.src), u32::from(e.keep))?;
                    span_ok(u32::from(e.dst), u32::from(e.keep))?;
                    target_ok(&mut edges, e.target)?;
                }
            }
            R::Return { src } => {
                if u32::from(*src) + f.n_results > fs {
                    return Err(VerifyError::BadReturnSrc { func: fidx, pc });
                }
            }
            R::CallLocal { func, base } => {
                if ctx.is_import(*func) != Some(false) {
                    return Err(VerifyError::BadFuncIndex {
                        func: fidx,
                        pc,
                        index: *func,
                    });
                }
                let (np, nr) = ctx.call_arity(*func).unwrap_or((0, 0));
                if u32::from(*base) + np.max(nr) > fs {
                    return Err(VerifyError::BadCallBase { func: fidx, pc });
                }
            }
            R::CallImport { func, base } => {
                if ctx.is_import(*func) != Some(true) {
                    return Err(VerifyError::BadFuncIndex {
                        func: fidx,
                        pc,
                        index: *func,
                    });
                }
                let (np, nr) = ctx.call_arity(*func).unwrap_or((0, 0));
                if u32::from(*base) + np.max(nr) > fs {
                    return Err(VerifyError::BadCallBase { func: fidx, pc });
                }
            }
            R::CallIndirect {
                type_idx,
                idx,
                base,
            } => {
                slot_ok(u32::from(*idx))?;
                let (np, nr) = ctx.type_arity(*type_idx).ok_or(VerifyError::BadTypeIndex {
                    func: fidx,
                    pc,
                    index: *type_idx,
                })?;
                if u32::from(*base) + np.max(nr) > fs {
                    return Err(VerifyError::BadCallBase { func: fidx, pc });
                }
            }
            R::Select { cond, a, b, dst } => {
                for s in [cond, a, b, dst] {
                    slot_ok(u32::from(*s))?;
                }
            }
            R::Move { src, dst } => {
                slot_ok(u32::from(*src))?;
                slot_ok(u32::from(*dst))?;
            }
            R::Const { dst, .. } | R::MemorySize { dst } => slot_ok(u32::from(*dst))?,
            // `dst` of a get, `src` of a set.
            R::GlobalGet { idx, dst: slot } | R::GlobalSet { idx, src: slot } => {
                if *idx as usize >= ctx.global_types.len() {
                    return Err(VerifyError::BadGlobalIndex {
                        func: fidx,
                        pc,
                        index: *idx,
                    });
                }
                slot_ok(u32::from(*slot))?;
            }
            R::Load { addr, dst, .. }
            | R::LoadI32R { addr, dst, .. }
            | R::LoadF64R { addr, dst, .. }
            | R::LoadI32N { addr, dst, .. }
            | R::LoadF64N { addr, dst, .. } => {
                slot_ok(u32::from(*addr))?;
                slot_ok(u32::from(*dst))?;
            }
            R::Store { addr, val, .. }
            | R::StoreI32R { addr, val, .. }
            | R::StoreF64R { addr, val, .. }
            | R::StoreI32N { addr, val, .. }
            | R::StoreF64N { addr, val, .. } => {
                slot_ok(u32::from(*addr))?;
                slot_ok(u32::from(*val))?;
            }
            R::MemoryGrow { src, dst } => {
                slot_ok(u32::from(*src))?;
                slot_ok(u32::from(*dst))?;
            }
            R::MemoryCopy { args } | R::MemoryFill { args } => span_ok(u32::from(*args), 3)?,
            R::Unop { src, dst, .. } => {
                slot_ok(u32::from(*src))?;
                slot_ok(u32::from(*dst))?;
            }
            R::Binop { a, b, dst, .. }
            | R::AddI32 { a, b, dst }
            | R::SubI32 { a, b, dst }
            | R::MulI32 { a, b, dst }
            | R::AddF64 { a, b, dst }
            | R::SubF64 { a, b, dst }
            | R::MulF64 { a, b, dst }
            | R::DivF64 { a, b, dst } => {
                for s in [a, b, dst] {
                    slot_ok(u32::from(*s))?;
                }
            }
            R::BinopK { a, dst, .. } | R::AddI32K { a, dst, .. } => {
                slot_ok(u32::from(*a))?;
                slot_ok(u32::from(*dst))?;
            }
            R::ScaleAdd { base, idx, dst, .. }
            | R::ScaleAddLoad { base, idx, dst, .. }
            | R::ScaleAddLoadI32 { base, idx, dst, .. }
            | R::ScaleAddLoadF64 { base, idx, dst, .. }
            | R::ScaleAddLoadI32N { base, idx, dst, .. }
            | R::ScaleAddLoadF64N { base, idx, dst, .. } => {
                for s in [base, idx, dst] {
                    slot_ok(u32::from(*s))?;
                }
            }
            R::IdxLAdd {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoad {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadI32 {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadF64 {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadI32N {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadF64N {
                base, part, z, dst, ..
            } => {
                for s in [base, part, z, dst] {
                    slot_ok(u32::from(*s))?;
                }
            }
            R::AddStoreF64 { a, b, addr, .. }
            | R::MulStoreF64 { a, b, addr, .. }
            | R::AddStoreF64N { a, b, addr, .. }
            | R::MulStoreF64N { a, b, addr, .. }
            | R::BinopStore { a, b, addr, .. } => {
                for s in [a, b, addr] {
                    slot_ok(u32::from(*s))?;
                }
            }
            R::CmpBrLtSZ { a, b, target } | R::CmpBrLtSNZ { a, b, target } => {
                slot_ok(u32::from(*a))?;
                slot_ok(u32::from(*b))?;
                target_ok(&mut edges, *target)?;
            }
            R::CmpBr { a, b, target, .. } => {
                slot_ok(u32::from(*a))?;
                slot_ok(u32::from(*b))?;
                target_ok(&mut edges, *target)?;
            }
            R::CmpBrK { a, target, .. } => {
                slot_ok(u32::from(*a))?;
                target_ok(&mut edges, *target)?;
            }
        }
    }

    // Pass B: definite assignment. A bitset per pc holds the slots
    // guaranteed written on every path; the meet at joins is
    // intersection, so the fixpoint is reached monotonically.
    let words = fs.div_ceil(64) as usize;
    let mut states: Vec<Option<Bits>> = vec![None; n];
    if n > 0 {
        let mut s0 = vec![0u64; words].into_boxed_slice();
        for i in 0..f.n_locals {
            bit_set(&mut s0, i);
        }
        states[0] = Some(s0);
    }
    let mut work: Vec<usize> = if n > 0 { vec![0] } else { Vec::new() };
    while let Some(pc) = work.pop() {
        let mut st = states[pc].clone().expect("worklist pcs have a state");
        let err_pc = pc as u32;
        macro_rules! rd {
            ($s:expr) => {{
                let s = u32::from($s);
                if !bit_get(&st, s) {
                    return Err(VerifyError::ReadBeforeWrite {
                        func: fidx,
                        pc: err_pc,
                        slot: s,
                    });
                }
            }};
        }
        macro_rules! rds {
            ($start:expr, $len:expr) => {{
                let (start, len): (u32, u32) = ($start, $len);
                for i in start..start + len {
                    if !bit_get(&st, i) {
                        return Err(VerifyError::ReadBeforeWrite {
                            func: fidx,
                            pc: err_pc,
                            slot: i,
                        });
                    }
                }
            }};
        }
        macro_rules! wr {
            ($s:expr) => {
                bit_set(&mut st, u32::from($s))
            };
        }
        // Propagates `state` into `t`, meeting at joins.
        let flow = |states: &mut Vec<Option<Bits>>, work: &mut Vec<usize>, t: u32, state: &Bits| {
            let t = t as usize;
            match &mut states[t] {
                None => {
                    states[t] = Some(state.clone());
                    work.push(t);
                }
                Some(prev) => {
                    if bit_meet(prev, state) {
                        work.push(t);
                    }
                }
            }
        };
        macro_rules! fall {
            () => {{
                if pc + 1 >= n {
                    return Err(VerifyError::MissingTerminator {
                        func: fidx,
                        pc: err_pc,
                    });
                }
                flow(&mut states, &mut work, (pc + 1) as u32, &st)
            }};
        }
        match &f.code[pc] {
            R::Unreachable => {}
            R::Jump { target } => flow(&mut states, &mut work, *target, &st),
            R::BrIf { cond, target, .. } => {
                rd!(*cond);
                flow(&mut states, &mut work, *target, &st);
                fall!();
            }
            R::BrMoves {
                target,
                src,
                dst,
                keep,
            } => {
                // The dispatch loop copies unconditionally before the
                // jump, so the reads happen on the (only) edge.
                rds!(u32::from(*src), u32::from(*keep));
                let mut taken = st.clone();
                for i in 0..u32::from(*keep) {
                    bit_set(&mut taken, u32::from(*dst) + i);
                }
                flow(&mut states, &mut work, *target, &taken);
            }
            R::BrIfMoves {
                cond,
                target,
                src,
                dst,
                keep,
                ..
            } => {
                rd!(*cond);
                // The copy happens only on the taken edge; strictness:
                // the source block must be written on every path in.
                rds!(u32::from(*src), u32::from(*keep));
                let mut taken = st.clone();
                for i in 0..u32::from(*keep) {
                    bit_set(&mut taken, u32::from(*dst) + i);
                }
                flow(&mut states, &mut work, *target, &taken);
                fall!();
            }
            R::BrTable { idx, entries } => {
                rd!(*idx);
                for e in entries.iter() {
                    if e.keep > 0 {
                        rds!(u32::from(e.src), u32::from(e.keep));
                    }
                    let mut taken = st.clone();
                    for i in 0..u32::from(e.keep) {
                        bit_set(&mut taken, u32::from(e.dst) + i);
                    }
                    flow(&mut states, &mut work, e.target, &taken);
                }
            }
            R::Return { src } => {
                rds!(u32::from(*src), f.n_results);
            }
            R::CallLocal { func, base } | R::CallImport { func, base } => {
                let (np, nr) = ctx.call_arity(*func).unwrap_or((0, 0));
                rds!(u32::from(*base), np);
                // The callee's frame overlays everything from `base` up;
                // only the results are defined afterwards.
                bit_clear_from(&mut st, u32::from(*base), fs);
                for i in 0..nr {
                    bit_set(&mut st, u32::from(*base) + i);
                }
                fall!();
            }
            R::CallIndirect {
                type_idx,
                idx,
                base,
            } => {
                rd!(*idx);
                let (np, nr) = ctx.type_arity(*type_idx).unwrap_or((0, 0));
                rds!(u32::from(*base), np);
                bit_clear_from(&mut st, u32::from(*base), fs);
                for i in 0..nr {
                    bit_set(&mut st, u32::from(*base) + i);
                }
                fall!();
            }
            R::Select { cond, a, b, dst } => {
                rd!(*cond);
                rd!(*a);
                rd!(*b);
                wr!(*dst);
                fall!();
            }
            R::Move { src, dst } => {
                rd!(*src);
                wr!(*dst);
                fall!();
            }
            R::Const { dst, .. } | R::GlobalGet { dst, .. } | R::MemorySize { dst } => {
                wr!(*dst);
                fall!();
            }
            R::GlobalSet { src, .. } => {
                rd!(*src);
                fall!();
            }
            R::Load { addr, dst, .. }
            | R::LoadI32R { addr, dst, .. }
            | R::LoadF64R { addr, dst, .. }
            | R::LoadI32N { addr, dst, .. }
            | R::LoadF64N { addr, dst, .. } => {
                rd!(*addr);
                wr!(*dst);
                fall!();
            }
            R::Store { addr, val, .. }
            | R::StoreI32R { addr, val, .. }
            | R::StoreF64R { addr, val, .. }
            | R::StoreI32N { addr, val, .. }
            | R::StoreF64N { addr, val, .. } => {
                rd!(*addr);
                rd!(*val);
                fall!();
            }
            R::MemoryGrow { src, dst } => {
                rd!(*src);
                wr!(*dst);
                fall!();
            }
            R::MemoryCopy { args } | R::MemoryFill { args } => {
                rds!(u32::from(*args), 3);
                fall!();
            }
            R::Unop { src, dst, .. } => {
                rd!(*src);
                wr!(*dst);
                fall!();
            }
            R::Binop { a, b, dst, .. }
            | R::AddI32 { a, b, dst }
            | R::SubI32 { a, b, dst }
            | R::MulI32 { a, b, dst }
            | R::AddF64 { a, b, dst }
            | R::SubF64 { a, b, dst }
            | R::MulF64 { a, b, dst }
            | R::DivF64 { a, b, dst } => {
                rd!(*a);
                rd!(*b);
                wr!(*dst);
                fall!();
            }
            R::BinopK { a, dst, .. } | R::AddI32K { a, dst, .. } => {
                rd!(*a);
                wr!(*dst);
                fall!();
            }
            R::ScaleAdd { base, idx, dst, .. }
            | R::ScaleAddLoad { base, idx, dst, .. }
            | R::ScaleAddLoadI32 { base, idx, dst, .. }
            | R::ScaleAddLoadF64 { base, idx, dst, .. }
            | R::ScaleAddLoadI32N { base, idx, dst, .. }
            | R::ScaleAddLoadF64N { base, idx, dst, .. } => {
                rd!(*base);
                rd!(*idx);
                wr!(*dst);
                fall!();
            }
            R::IdxLAdd {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoad {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadI32 {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadF64 {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadI32N {
                base, part, z, dst, ..
            }
            | R::IdxLAddLoadF64N {
                base, part, z, dst, ..
            } => {
                rd!(*base);
                rd!(*part);
                rd!(*z);
                wr!(*dst);
                fall!();
            }
            R::AddStoreF64 { a, b, addr, .. }
            | R::MulStoreF64 { a, b, addr, .. }
            | R::AddStoreF64N { a, b, addr, .. }
            | R::MulStoreF64N { a, b, addr, .. }
            | R::BinopStore { a, b, addr, .. } => {
                rd!(*a);
                rd!(*b);
                rd!(*addr);
                fall!();
            }
            R::CmpBrLtSZ { a, b, target }
            | R::CmpBrLtSNZ { a, b, target }
            | R::CmpBr { a, b, target, .. } => {
                rd!(*a);
                rd!(*b);
                flow(&mut states, &mut work, *target, &st);
                fall!();
            }
            R::CmpBrK { a, target, .. } => {
                rd!(*a);
                flow(&mut states, &mut work, *target, &st);
                fall!();
            }
        }
    }
    Ok(edges)
}

/// Verifies every register body of a compiled module and the in-bounds
/// proof obligation of every check-free opcode. A module without a
/// register program runs on the tree oracle and has nothing to verify.
pub(crate) fn verify_module(
    cm: &CompiledModule,
    types: &[FuncType],
) -> Result<VerifyStats, VerifyError> {
    let ctx = ModuleCtx {
        n_imports: cm.imports.len(),
        func_type_idx: &cm.func_type_idx,
        types,
        global_types: &cm.global_types,
        min_mem: cm.min_mem,
    };
    let mut stats = VerifyStats::default();
    let Some(prog) = &cm.reg else {
        return Ok(stats);
    };
    if prog.funcs.len() != cm.func_type_idx.len() {
        return Err(VerifyError::LengthMismatch {
            func: prog.funcs.len() as u32,
        });
    }
    let mut range = analysis::RangeScratch::default();
    let mut is_target = Vec::new();
    for (i, rf) in prog.funcs.iter().enumerate() {
        let fidx = i as u32;
        // Exactly the imports lack a body: the dispatch loop takes a
        // missing one for a host call.
        if rf.is_none() != (i < cm.imports.len()) {
            return Err(VerifyError::LengthMismatch { func: fidx });
        }
        let Some(f) = rf else { continue };
        // Callers place arguments and read results by the declared type.
        let declared = types.get(cm.func_type_idx[i] as usize);
        if !declared.is_some_and(|t| {
            t.params.len() == f.n_params as usize
                && t.results.len() == f.n_results as usize
                && t.results[..] == f.result_types[..]
        }) {
            return Err(VerifyError::LengthMismatch { func: fidx });
        }
        stats.branch_targets += verify_reg_func(f, &ctx, fidx)?;
        stats.funcs += 1;
        stats.reg_ops += f.code.len() as u64;
        if f.code.iter().any(RegOp::is_check_free) {
            analysis::reg_targets(&f.code, &mut is_target);
            let proofs = analysis::reg_proofs(f, ctx.min_mem, &is_target, &mut range);
            for (pc, op) in f.code.iter().enumerate() {
                if !op.is_check_free() {
                    continue;
                }
                stats.obligations += 1;
                let proven = proofs
                    .binary_search_by_key(&(pc as u32), |site| site.0)
                    .is_ok_and(|i| proofs[i].1.is_proven());
                if !proven {
                    return Err(VerifyError::UnprovenCheckFree {
                        func: fidx,
                        pc: pc as u32,
                    });
                }
            }
        }
    }
    Ok(stats)
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
            min_mem: 65536,
        }
    }

    /// A module of local functions with the given register bodies, and the
    /// type section (one all-i32 type per body) it is verified against.
    fn bare_module(funcs: Vec<RegFunc>, min_mem: u64) -> (CompiledModule, Vec<FuncType>) {
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
            fusion: crate::FusionStats::default(),
            reg: Some(crate::reg::RegProgram {
                funcs: funcs.into_iter().map(Some).collect(),
                stats: crate::RegStats::default(),
            }),
            min_mem,
            analysis: crate::RangeStats::default(),
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
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
            Err(VerifyError::TruncatedBrTable { pc: 0, .. })
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
            verify_reg_func(&f, &c, 0),
            Err(VerifyError::SlotOutOfFrame { slot: 1024, .. })
        ));

        let f = rfunc(0, 0, 1, 2, vec![R::Return { src: 2 }]);
        assert!(matches!(
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
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
            min_mem: 0,
        };
        let f = rfunc(
            0,
            2,
            0,
            2,
            vec![R::CallLocal { func: 0, base: 1 }, R::Return { src: 0 }],
        );
        assert!(matches!(
            verify_reg_func(&f, &c2, 0),
            Err(VerifyError::BadCallBase { pc: 0, .. })
        ));

        // Skewed code/prof arrays.
        let mut f = rfunc(0, 0, 0, 1, vec![R::Return { src: 0 }]);
        f.prof = Box::new([]);
        assert!(matches!(
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
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
            verify_reg_func(&f, &c, 0),
            Err(VerifyError::ReadBeforeWrite { pc: 2, slot: 1, .. })
        ));

        // Falling off the end of the register body.
        let f = rfunc(0, 0, 0, 1, vec![R::Const { bits: 0, dst: 0 }]);
        assert!(matches!(
            verify_reg_func(&f, &c, 0),
            Err(VerifyError::MissingTerminator { pc: 0, .. })
        ));
    }

    #[test]
    fn rejects_skewed_metadata_and_unproven_checkfree() {
        // A body whose signature is not its declared type's, and a program
        // that does not cover the function space, surface at the module
        // level.
        let ret = || rfunc(0, 0, 1, 1, vec![RegOp::Return { src: 0 }]);
        let (mut cm, types) = bare_module(vec![ret()], 65536);
        cm.reg.as_mut().unwrap().funcs[0]
            .as_mut()
            .unwrap()
            .n_results = 0;
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::LengthMismatch { func: 0 })
        ));
        let (mut cm, types) = bare_module(vec![ret()], 65536);
        cm.reg.as_mut().unwrap().funcs = Box::new([None]);
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::LengthMismatch { func: 0 })
        ));
        let (mut cm, types) = bare_module(vec![ret()], 65536);
        cm.func_type_idx = Box::new([0, 0]);
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::LengthMismatch { func: 1 })
        ));

        // A check-free load whose in-bounds proof cannot be re-derived.
        let checkfree = |offset: u32| {
            let reg = rfunc(
                0,
                0,
                1,
                2,
                vec![
                    RegOp::Const { bits: 8, dst: 0 },
                    RegOp::LoadI32N {
                        addr: 0,
                        offset,
                        dst: 1,
                    },
                    RegOp::Return { src: 1 },
                ],
            );
            bare_module(vec![reg], 65536)
        };
        let (cm, types) = checkfree(70_000);
        assert!(matches!(
            verify_module(&cm, &types),
            Err(VerifyError::UnprovenCheckFree { func: 0, pc: 1 })
        ));

        // The same shape with a provable constant address verifies.
        let (cm, types) = checkfree(0);
        let stats = verify_module(&cm, &types).expect("interval proof re-derived");
        assert_eq!(stats.obligations, 1);
    }

    // ---- corpus modules for the mutation harness --------------------

    /// i32 kernel exercising every register shape the mutation operators
    /// attack: a constant-address load (interval proof), a
    /// store-then-reload loop (subsumption proof), a three-way
    /// `br_table`, a value-carrying `br_if`, a direct call, two indirect
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
                // acc = mem[8] — constant address, interval-provable.
                I::I32Const(8),
                I::I32Load(m),
                I::LocalSet(2),
                // for i in 0..16 { mem[i*4] = i; acc += mem[i*4] } — the
                // reload is subsumed by the checked store at the same
                // value number.
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

    /// f64 kernel: each iteration's checked load subsumes the store at
    /// the same value number, and the tail reads a constant address.
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

    // ---- positive elision checks over the corpus --------------------

    #[test]
    fn corpus_elides_and_reverifies() {
        for (name, module) in [("mix", mix_module()), ("axpy", axpy_module())] {
            let on = CompiledModule::compile_full(&module, true, true, true).unwrap();
            assert!(on.analysis.proven() > 0, "{name}: {:?}", on.analysis);
            assert!(on.analysis.elided > 0, "{name}: {:?}", on.analysis);
            assert!(
                !reg_sites(&on, RegOp::is_check_free).is_empty(),
                "{name}: no register check-free ops"
            );
            let stats = verify_module(&on, &module.types).expect("elided module verifies");
            assert!(stats.obligations >= 1, "{name}: {stats:?}");

            let off = CompiledModule::compile_full(&module, true, true, false).unwrap();
            assert_eq!(off.analysis.elided, 0, "{name}");
            assert_eq!(off.analysis.proven(), on.analysis.proven(), "{name}");
            assert!(reg_sites(&off, RegOp::is_check_free).is_empty(), "{name}");
            verify_module(&off, &module.types).expect("unelided module verifies");

            for n in [0, 1, 2, 7] {
                let args = [Value::I32(n)];
                let want = oracle(&module, &args);
                for fm in [&on, &off] {
                    assert_eq!(run_engine(fm, &module, &args).unwrap(), want, "{name}");
                }
            }
        }
        // The mix preamble is the interval case specifically.
        let fm = CompiledModule::compile_full(&mix_module(), true, true, true).unwrap();
        assert!(fm.analysis.proven_interval > 0, "{:?}", fm.analysis);
        assert!(fm.analysis.proven_subsumed > 0, "{:?}", fm.analysis);
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
        if let Some(prog) = &fm.reg {
            for (fi, rf) in prog.funcs.iter().enumerate() {
                if let Some(f) = rf {
                    for (pc, op) in f.code.iter().enumerate() {
                        if pred(op) {
                            v.push((fi, pc));
                        }
                    }
                }
            }
        }
        v
    }

    fn reg_body_mut(fm: &mut CompiledModule, fi: usize) -> &mut RegFunc {
        fm.reg.as_mut().expect("register program present").funcs[fi]
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
                | R::CmpBrK { .. }
                | R::CmpBrLtSZ { .. }
                | R::CmpBrLtSNZ { .. }
        )
    }

    fn reg_target_mut(op: &mut RegOp) -> Option<&mut u32> {
        use RegOp as R;
        match op {
            R::Jump { target }
            | R::BrIf { target, .. }
            | R::BrMoves { target, .. }
            | R::BrIfMoves { target, .. }
            | R::CmpBr { target, .. }
            | R::CmpBrK { target, .. }
            | R::CmpBrLtSZ { target, .. }
            | R::CmpBrLtSNZ { target, .. } => Some(target),
            _ => None,
        }
    }

    fn reg_nc_offset_mut(op: &mut RegOp) -> Option<&mut u32> {
        use RegOp as R;
        match op {
            R::LoadI32N { offset, .. }
            | R::LoadF64N { offset, .. }
            | R::StoreI32N { offset, .. }
            | R::StoreF64N { offset, .. }
            | R::ScaleAddLoadI32N { offset, .. }
            | R::ScaleAddLoadF64N { offset, .. }
            | R::IdxLAddLoadI32N { offset, .. }
            | R::IdxLAddLoadF64N { offset, .. }
            | R::AddStoreF64N { offset, .. }
            | R::MulStoreF64N { offset, .. } => Some(offset),
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
    /// body, slots past the frame, indices past their section, offsets
    /// past `min_mem`), so a sound
    /// verifier must reject it; `reg-prof-tweak` only touches retirement
    /// metadata the engine never reads on the result path, so a sound
    /// verifier must accept it and execution must stay bit-equal to the
    /// oracle. In-range retargets or immediate swaps are deliberately
    /// absent: a well-formedness verifier can accept those while the
    /// behavior silently changes, which would make the harness flaky
    /// rather than a soundness proof.
    const OPERATORS: [(&str, bool); 11] = [
        ("reg-global-oob", true),
        ("reg-keep-bomb", true),
        ("reg-func-oob", true),
        ("reg-type-oob", true),
        ("reg-slot-oob", true),
        ("reg-retarget-oob", true),
        ("reg-return-src-bomb", true),
        ("reg-call-base-bomb", true),
        ("reg-table-empty", true),
        ("reg-nc-offset-bomb", true),
        ("reg-prof-tweak", false),
    ];

    #[allow(clippy::too_many_lines)]
    fn apply_mutation(
        fm: &mut CompiledModule,
        types: &[FuncType],
        rng: &mut Rng,
    ) -> Option<(&'static str, bool)> {
        let (name, must_reject) = OPERATORS[rng.below(OPERATORS.len() as u64) as usize];
        let applied = match name {
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
            "reg-nc-offset-bomb" => {
                let sites = reg_sites(fm, RegOp::is_check_free);
                if let Some((fi, pc)) = pick(&sites, rng) {
                    *reg_nc_offset_mut(&mut reg_body_mut(fm, fi).code[pc])
                        .expect("site is check-free") += 70_000;
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
            E::UnprovenCheckFree { .. } => "UnprovenCheckFree",
        }
    }

    /// The soundness pin: every deterministic mutant of the register code
    /// either fails verification, or passes *and* executes bit-equal to
    /// the tree-walking oracle on the register engine. No mutant may
    /// pass the verifier and diverge.
    #[test]
    fn mutation_harness_no_silent_divergence() {
        let corpus = [("mix", mix_module()), ("axpy", axpy_module())];
        let arg_set = [0, 1, 2, 7].map(|n| [Value::I32(n)]);
        let mut fired: BTreeMap<&'static str, u32> = BTreeMap::new();
        let mut variants: BTreeSet<&'static str> = BTreeSet::new();
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for (mi, (name, module)) in corpus.iter().enumerate() {
            let oracles: Vec<Vec<Value>> = arg_set.iter().map(|a| oracle(module, a)).collect();
            let pristine = CompiledModule::compile_full(module, true, true, true).unwrap();
            let stats = verify_module(&pristine, &module.types).expect("pristine module verifies");
            assert!(stats.obligations > 0, "{name}: no check-free ops to attack");

            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (mi as u64 + 1));
            for _ in 0..250 {
                let mut fm = CompiledModule::compile_full(module, true, true, true).unwrap();
                let Some((op_name, must_reject)) = apply_mutation(&mut fm, &module.types, &mut rng)
                else {
                    continue;
                };
                *fired.entry(op_name).or_insert(0) += 1;
                match verify_module(&fm, &module.types) {
                    Err(e) => {
                        assert!(
                            must_reject,
                            "{name}: benign mutation {op_name} rejected: {e}"
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
