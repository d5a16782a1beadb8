//! The register engine behind [`ExecMode::Aot`]: flat IR lowered one step
//! further, so the hot dispatch loop never pushes or pops an operand stack.
//!
//! [`crate::flat`] turns a structured body into a linear opcode stream, in
//! the compile's scratch buffers, that still *describes* a runtime operand
//! stack: `local.get` pushes a copy, every operator pops its inputs and
//! pushes its result. This pass reads that stream where it lies and emits
//! the only code an instance keeps, over the same operator vocabulary
//! ([`UnOpKind`], [`BinOpKind`], [`LoadKind`], [`StoreKind`]). Validation makes
//! all of that motion statically known — at any program point the
//! operand-stack *height* is a compile-time constant, so the value "at
//! height `h`" can live in the fixed frame slot `n_locals + h` instead.
//!
//! The register pass exploits exactly that: an **abstract-stack
//! simulation** walks each flat body once at load time and rewrites every
//! op to carry explicit source/destination frame-slot indices. Locals and
//! intermediates all live in one flat `u64` frame; a [`RegOp`] reads its
//! operands from slots and writes its result to a slot, and the dispatch
//! loop maintains nothing but a program counter and a frame base.
//!
//! Three further rewrites fall out of the simulation:
//!
//! * **Copy forwarding** — a `local.get` emits *no code at all*: the
//!   abstract stack records that this operand lives in the local's slot,
//!   and the consumer reads it from there directly. A later write to that
//!   local while the forwarded value is still pending inserts a `Move` to
//!   the value's canonical slot first (the classic interpreter-regalloc
//!   hazard), which the simulation detects exactly. Forwarding is why no
//!   op needs to say where an operand came from: a local, a constant's
//!   slot and an intermediate are all just slots.
//! * **Fusion** — with [`EngineConfig::fuse`] on, an op looks ahead over
//!   the tokens that follow it and emits one superinstruction for the
//!   group, under one rule per shape:
//!
//!   | at | tokens joined | register op |
//!   |---|---|---|
//!   | `const k` | `i32.mul; i32.add [; load]` (1-D address tail) | `ScaleAdd` / `ScaleAddLoad*` |
//!   | `const k` | the adjacent `binop` (`k` its right operand), then its follow | `BinopK`, `AddI32K`, `CmpBrK` |
//!   | `local.get z` | `i32.add; const k; i32.mul; i32.add [; load]` (2-D tail) | `IdxLAdd` / `IdxLAddLoad*` |
//!   | `binop` | its follow: `local.set`, a store, `i32.eqzⁿ; jump-if`, or a load after `i32.add` | the binop writing the local, `BinopStore`, `CmpBr*`, `ScaleAddLoad*` with `k = 1` |
//!   | `i32.eqz` | `i32.eqzⁿ; jump-if` (no binop in front) | `BrIf` with the polarity folded |
//!
//!   A trap-capable binop (`div`/`rem`) sinks only into a `local.set`,
//!   whose retirement is deferred until the division succeeds. **No rule
//!   joins a token a jump lands on** ([`crate::flat::lower`]'s target
//!   flags): every branch destination stays the first token of a register
//!   op, which is what makes the jump remap below a plain index lookup.
//!   `WATZ_NO_FUSE=1` switches exactly these rules off (forwarding stays),
//!   for bisection; [`FusionStats`] counts what each rule joined.
//! * **Stack-polymorphic edges keep explicit fix-ups** — branches that
//!   transfer values (`br`/`br_if` with results, `br_table` arms) become
//!   jumps carrying a static `src → dst × keep` block copy, calls require
//!   their arguments contiguous at the callee's frame base (the simulation
//!   flushes forwarded operands there), and `return` copies results to the
//!   frame base.
//!
//! **Jump-remap re-validation:** lowering inserts fix-up `Move`s in front
//! of fall-through jump-target ops and emits one op for several tokens, so
//! every flat-code index is re-pointed through an old→new map; a target
//! that is not the first token of a register op, or lies past the code, is
//! an instantiation error before anything runs.
//!
//! **Fallback.** Slot operands are `u16`. A function whose frame (locals
//! plus operand positions) does not fit is reported as
//! [`LowerError::FrameTooLarge`], and because a register frame cannot call
//! into another executor the whole module then gets no register program
//! (the compile drops the bodies lowered so far and skips this pass for the
//! rest) and runs on the tree interpreter in [`crate::exec`] — the one
//! fallback, which is also the reference implementation. Every other lowering
//! failure is a defect and fails instantiation. [`RegStats`] reports what
//! the pass did.
//!
//! Semantics (every result, every trap, every retired-instruction count)
//! are identical to the tree-walking oracle; the differential suites run
//! both, fused and unfused, with elision on and off.
//!
//! [`ExecMode::Aot`]: crate::exec::ExecMode::Aot
//! [`EngineConfig::fuse`]: crate::exec::EngineConfig::fuse

use crate::exec::{HostEnv, Memory, Trap, Value, MAX_CALL_DEPTH};
use crate::flat::{
    apply_binop, apply_unop, as_f64, as_i32, as_u32, do_load, do_store, from_f64, from_i32,
    slot_from_value, value_from_slot, BinOpKind, CompileScratch, CompiledModule, FlatOp,
    FusionStats, LoadKind, Slot, StoreKind, UnOpKind,
};
use crate::module::{FuncBody, Module};
use crate::profile::{ProfOp, Profiler};
use crate::types::{FuncType, ValType};

/// Counters from the register-allocation pass over a whole module,
/// reported by [`Instance::reg_stats`](crate::exec::Instance::reg_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegStats {
    /// Functions lowered to register form.
    pub funcs: u64,
    /// Total frame slots allocated (locals + operand positions).
    pub frame_slots: u64,
    /// `local.get` ops forwarded into their consumers (no code emitted).
    pub gets_forwarded: u64,
    /// `Move` fix-ups inserted (local writes, forwarding hazards, edges).
    pub moves_inserted: u64,
    /// Runtime operand-stack pushes/pops replaced by static slot addressing.
    pub stack_ops_eliminated: u64,
}

impl RegStats {
    /// Per-counter `(name, count)` pairs, for coverage assertions and logs.
    #[must_use]
    pub fn counts(&self) -> [(&'static str, u64); 5] {
        [
            ("funcs", self.funcs),
            ("frame_slots", self.frame_slots),
            ("gets_forwarded", self.gets_forwarded),
            ("moves_inserted", self.moves_inserted),
            ("stack_ops_eliminated", self.stack_ops_eliminated),
        ]
    }

    /// Accumulates another module's counters into this one.
    pub fn merge(&mut self, other: &RegStats) {
        self.funcs += other.funcs;
        self.frame_slots += other.frame_slots;
        self.gets_forwarded += other.gets_forwarded;
        self.moves_inserted += other.moves_inserted;
        self.stack_ops_eliminated += other.stack_ops_eliminated;
    }
}

/// One `br_table` arm in register form: absolute target plus a static
/// `keep`-slot block copy (`src → dst`) for the label's value transfer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegBrEntry {
    pub(crate) target: u32,
    pub(crate) src: u16,
    pub(crate) dst: u16,
    pub(crate) keep: u16,
}

/// A register-form opcode: every operand names a frame slot explicitly;
/// no opcode moves an operand-stack pointer.
///
/// Slot indices are frame-relative (`0..n_locals` are params + locals, the
/// rest operand positions); `dst` is always written last, after all reads.
#[derive(Debug, Clone)]
pub(crate) enum RegOp {
    Unreachable,
    /// Unconditional jump.
    Jump {
        target: u32,
    },
    /// Jumps when `frame[cond]`'s truthiness equals `jump_if`.
    BrIf {
        cond: u16,
        jump_if: bool,
        target: u32,
    },
    /// [`RegOp::Jump`] carrying a branch value transfer: copies `keep`
    /// slots from `src` down to `dst`, then jumps.
    BrMoves {
        target: u32,
        src: u16,
        dst: u16,
        keep: u16,
    },
    /// [`RegOp::BrIf`] carrying a branch value transfer (only performed
    /// when the branch is taken — fall-through slots stay untouched).
    BrIfMoves {
        cond: u16,
        jump_if: bool,
        target: u32,
        src: u16,
        dst: u16,
        keep: u16,
    },
    /// Indexed branch; the last entry is the default arm.
    BrTable {
        idx: u16,
        entries: Box<[RegBrEntry]>,
    },
    /// Copies `n_results` slots from `src` to the frame base and returns.
    Return {
        src: u16,
    },
    /// Call of a function defined in this module; the callee's frame
    /// starts at frame slot `base` (its arguments are already there).
    CallLocal {
        func: u32,
        base: u16,
    },
    /// Call of an imported (host) function; arguments at `base`, results
    /// written back there.
    CallImport {
        func: u32,
        base: u16,
    },
    /// Indirect call: table index in `idx`, arguments at `base`.
    CallIndirect {
        type_idx: u32,
        idx: u16,
        base: u16,
    },
    /// `frame[dst] = frame[a] if frame[cond] != 0 else frame[b]`.
    Select {
        cond: u16,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[src]`.
    Move {
        src: u16,
        dst: u16,
    },
    /// `frame[dst] = bits` (all four constant forms, pre-encoded).
    Const {
        bits: u64,
        dst: u16,
    },
    GlobalGet {
        idx: u32,
        dst: u16,
    },
    GlobalSet {
        idx: u32,
        src: u16,
    },
    /// `frame[dst] = mem[frame[addr] + offset]`.
    Load {
        kind: LoadKind,
        addr: u16,
        offset: u32,
        dst: u16,
    },
    /// `mem[frame[addr] + offset] = frame[val]`.
    Store {
        kind: StoreKind,
        addr: u16,
        val: u16,
        offset: u32,
    },
    MemorySize {
        dst: u16,
    },
    MemoryGrow {
        src: u16,
        dst: u16,
    },
    /// `memory.copy` with its three i32 operands at `args..args + 3`
    /// (dst, src, len).
    MemoryCopy {
        args: u16,
    },
    /// `memory.fill` with its three i32 operands at `args..args + 3`
    /// (dst, val, len).
    MemoryFill {
        args: u16,
    },
    /// `frame[dst] = op(frame[src])`.
    Unop {
        op: UnOpKind,
        src: u16,
        dst: u16,
    },
    /// `frame[dst] = op(frame[a], frame[b])`.
    Binop {
        op: BinOpKind,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = op(frame[a], k)`.
    BinopK {
        op: BinOpKind,
        a: u16,
        k: u64,
        dst: u16,
    },

    // -- Specialized forms of the generic ops above, selected at lowering
    // time for the operators and access widths that dominate numeric
    // kernels: they skip the second-level `BinOpKind`/`LoadKind` dispatch
    // the generic arms pay. Semantics are bit-identical to the generic
    // forms (same wrapping/IEEE behaviour, same traps — the specialized
    // operators cannot trap).
    /// `frame[dst] = frame[a] +ₙ frame[b]` (i32 wrapping).
    AddI32 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[a] -ₙ frame[b]` (i32 wrapping).
    SubI32 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[a] *ₙ frame[b]` (i32 wrapping).
    MulI32 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[a] +ₙ k` (i32 wrapping; the loop-counter step).
    AddI32K {
        a: u16,
        k: u32,
        dst: u16,
    },
    /// `frame[dst] = frame[a] + frame[b]` (f64).
    AddF64 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[a] - frame[b]` (f64).
    SubF64 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[a] * frame[b]` (f64).
    MulF64 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = frame[a] / frame[b]` (f64).
    DivF64 {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// `frame[dst] = mem[frame[addr] + offset]` as i32.
    LoadI32R {
        addr: u16,
        offset: u32,
        dst: u16,
    },
    /// `frame[dst] = mem[frame[addr] + offset]` as f64 bits.
    LoadF64R {
        addr: u16,
        offset: u32,
        dst: u16,
    },
    /// `mem[frame[addr] + offset] = frame[val]` as i32.
    StoreI32R {
        addr: u16,
        val: u16,
        offset: u32,
    },
    /// `mem[frame[addr] + offset] = frame[val]` as f64 bits.
    StoreF64R {
        addr: u16,
        val: u16,
        offset: u32,
    },
    /// [`RegOp::ScaleAddLoad`] specialized to an i32 load.
    ScaleAddLoadI32 {
        base: u16,
        idx: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::ScaleAddLoad`] specialized to an f64 load.
    ScaleAddLoadF64 {
        base: u16,
        idx: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::IdxLAddLoad`] specialized to an i32 load.
    IdxLAddLoadI32 {
        base: u16,
        part: u16,
        z: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::IdxLAddLoad`] specialized to an f64 load.
    IdxLAddLoadF64 {
        base: u16,
        part: u16,
        z: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// `mem[frame[addr] + offset] = frame[a] + frame[b]` (f64, full-width
    /// store) — the `C[x] = C[x] + …` accumulation sink.
    AddStoreF64 {
        a: u16,
        b: u16,
        addr: u16,
        offset: u32,
    },
    /// `mem[frame[addr] + offset] = frame[a] * frame[b]` (f64, full-width
    /// store) — the `C[x] = C[x] * β` scaling sink.
    MulStoreF64 {
        a: u16,
        b: u16,
        addr: u16,
        offset: u32,
    },

    // Check-free twins of the specialized memory forms: the range
    // analysis proved the access in bounds, so there is no trap path.
    // Only the elision pass emits these, and the verifier re-derives
    // every proof before a verified instance runs.
    /// [`RegOp::LoadI32R`] with a statically proven bound.
    LoadI32N {
        addr: u16,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::LoadF64R`] with a statically proven bound.
    LoadF64N {
        addr: u16,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::StoreI32R`] with a statically proven bound.
    StoreI32N {
        addr: u16,
        val: u16,
        offset: u32,
    },
    /// [`RegOp::StoreF64R`] with a statically proven bound.
    StoreF64N {
        addr: u16,
        val: u16,
        offset: u32,
    },
    /// [`RegOp::ScaleAddLoadI32`] with a statically proven bound.
    ScaleAddLoadI32N {
        base: u16,
        idx: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::ScaleAddLoadF64`] with a statically proven bound.
    ScaleAddLoadF64N {
        base: u16,
        idx: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::IdxLAddLoadI32`] with a statically proven bound.
    IdxLAddLoadI32N {
        base: u16,
        part: u16,
        z: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::IdxLAddLoadF64`] with a statically proven bound.
    IdxLAddLoadF64N {
        base: u16,
        part: u16,
        z: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::AddStoreF64`] with a statically proven bound.
    AddStoreF64N {
        a: u16,
        b: u16,
        addr: u16,
        offset: u32,
    },
    /// [`RegOp::MulStoreF64`] with a statically proven bound.
    MulStoreF64N {
        a: u16,
        b: u16,
        addr: u16,
        offset: u32,
    },
    /// Jumps when `!(frame[a] <ₛ frame[b])` (i32) — the dominant
    /// loop-exit shape.
    CmpBrLtSZ {
        a: u16,
        b: u16,
        target: u32,
    },
    /// Jumps when `frame[a] <ₛ frame[b]` (i32).
    CmpBrLtSNZ {
        a: u16,
        b: u16,
        target: u32,
    },
    /// `op(frame[a], frame[b])` stored at `mem[frame[addr] + offset]`.
    BinopStore {
        op: BinOpKind,
        a: u16,
        b: u16,
        addr: u16,
        kind: StoreKind,
        offset: u32,
    },
    /// Jumps when `op(frame[a], frame[b])`'s truthiness equals `jump_if`.
    CmpBr {
        op: BinOpKind,
        a: u16,
        b: u16,
        jump_if: bool,
        target: u32,
    },
    /// [`RegOp::CmpBr`] with an inline constant right operand.
    CmpBrK {
        op: BinOpKind,
        a: u16,
        k: u32,
        jump_if: bool,
        target: u32,
    },
    /// `frame[dst] = frame[base] + frame[idx]*k` (array-address tail; the
    /// `i32.add; load` shape uses `k == 1`).
    ScaleAdd {
        base: u16,
        idx: u16,
        k: u32,
        dst: u16,
    },
    /// [`RegOp::ScaleAdd`] plus the trailing load.
    ScaleAddLoad {
        base: u16,
        idx: u16,
        k: u32,
        kind: LoadKind,
        offset: u32,
        dst: u16,
    },
    /// `frame[dst] = frame[base] + (frame[part] + frame[z])*k` (2-D
    /// row-column address tail).
    IdxLAdd {
        base: u16,
        part: u16,
        z: u16,
        k: u32,
        dst: u16,
    },
    /// [`RegOp::IdxLAdd`] plus the trailing load.
    IdxLAddLoad {
        base: u16,
        part: u16,
        z: u16,
        k: u32,
        kind: LoadKind,
        offset: u32,
        dst: u16,
    },
}

impl RegOp {
    /// Whether this is a check-free memory access (an elision output
    /// carrying a proof obligation).
    pub(crate) fn is_check_free(&self) -> bool {
        matches!(
            self,
            RegOp::LoadI32N { .. }
                | RegOp::LoadF64N { .. }
                | RegOp::StoreI32N { .. }
                | RegOp::StoreF64N { .. }
                | RegOp::ScaleAddLoadI32N { .. }
                | RegOp::ScaleAddLoadF64N { .. }
                | RegOp::IdxLAddLoadI32N { .. }
                | RegOp::IdxLAddLoadF64N { .. }
                | RegOp::AddStoreF64N { .. }
                | RegOp::MulStoreF64N { .. }
        )
    }
}

/// A function lowered to register form.
#[derive(Debug)]
pub(crate) struct RegFunc {
    pub(crate) n_params: u32,
    /// Params + declared locals (frame slots `0..n_locals`).
    pub(crate) n_locals: u32,
    pub(crate) n_results: u32,
    /// Locals plus the maximum operand height: the whole frame.
    pub(crate) frame_size: u32,
    pub(crate) result_types: Box<[ValType]>,
    pub(crate) code: Box<[RegOp]>,
    /// Retirement metadata, 1:1 with `code`: the guest instructions each
    /// register op accounts for when profiling is on.
    pub(crate) prof: Box<[ProfOp]>,
}

/// A module's register-form code, carried by
/// [`CompiledModule`] when the pass ran.
#[derive(Debug)]
pub(crate) struct RegProgram {
    /// Indexed like the function space; `None` for imports.
    pub(crate) funcs: Box<[Option<RegFunc>]>,
    pub(crate) stats: RegStats,
}

/// Picks the specialized form of a two-operand op when one exists (see
/// the specialization block in [`RegOp`]).
fn sel_binop(op: BinOpKind, a: u16, b: u16, dst: u16) -> RegOp {
    use BinOpKind as B;
    match op {
        B::I32Add => RegOp::AddI32 { a, b, dst },
        B::I32Sub => RegOp::SubI32 { a, b, dst },
        B::I32Mul => RegOp::MulI32 { a, b, dst },
        B::F64Add => RegOp::AddF64 { a, b, dst },
        B::F64Sub => RegOp::SubF64 { a, b, dst },
        B::F64Mul => RegOp::MulF64 { a, b, dst },
        B::F64Div => RegOp::DivF64 { a, b, dst },
        _ => RegOp::Binop { op, a, b, dst },
    }
}

/// Picks the specialized form of an op-with-constant when one exists.
fn sel_binop_k(op: BinOpKind, a: u16, k: u64, dst: u16) -> RegOp {
    match op {
        BinOpKind::I32Add => RegOp::AddI32K {
            a,
            k: k as u32,
            dst,
        },
        _ => RegOp::BinopK { op, a, k, dst },
    }
}

/// Picks the specialized load form. On raw slots an f32 load equals an
/// i32 load (4 bytes, zero-extended) and an i64 load equals an f64 load
/// (full slot), so two specialized forms cover the four full-width kinds.
fn sel_load(kind: LoadKind, addr: u16, offset: u32, dst: u16) -> RegOp {
    match kind {
        LoadKind::I32 | LoadKind::F32 => RegOp::LoadI32R { addr, offset, dst },
        LoadKind::I64 | LoadKind::F64 => RegOp::LoadF64R { addr, offset, dst },
        _ => RegOp::Load {
            kind,
            addr,
            offset,
            dst,
        },
    }
}

/// Picks the specialized store form (same width-aliasing as [`sel_load`];
/// `i64.store32` also writes exactly the low four bytes).
fn sel_store(kind: StoreKind, addr: u16, val: u16, offset: u32) -> RegOp {
    match kind {
        StoreKind::I32 | StoreKind::F32 | StoreKind::I64S32 => {
            RegOp::StoreI32R { addr, val, offset }
        }
        StoreKind::I64 | StoreKind::F64 => RegOp::StoreF64R { addr, val, offset },
        _ => RegOp::Store {
            kind,
            addr,
            val,
            offset,
        },
    }
}

/// Picks the specialized scaled-index load form.
fn sel_scale_add_load(base: u16, idx: u16, k: u32, kind: LoadKind, offset: u32, dst: u16) -> RegOp {
    match kind {
        LoadKind::I32 | LoadKind::F32 => RegOp::ScaleAddLoadI32 {
            base,
            idx,
            k,
            offset,
            dst,
        },
        LoadKind::I64 | LoadKind::F64 => RegOp::ScaleAddLoadF64 {
            base,
            idx,
            k,
            offset,
            dst,
        },
        _ => RegOp::ScaleAddLoad {
            base,
            idx,
            k,
            kind,
            offset,
            dst,
        },
    }
}

/// Picks the specialized 2-D scaled-index load form.
#[allow(clippy::too_many_arguments)]
fn sel_idx_l_add_load(
    base: u16,
    part: u16,
    z: u16,
    k: u32,
    kind: LoadKind,
    offset: u32,
    dst: u16,
) -> RegOp {
    match kind {
        LoadKind::I32 | LoadKind::F32 => RegOp::IdxLAddLoadI32 {
            base,
            part,
            z,
            k,
            offset,
            dst,
        },
        LoadKind::I64 | LoadKind::F64 => RegOp::IdxLAddLoadF64 {
            base,
            part,
            z,
            k,
            offset,
            dst,
        },
        _ => RegOp::IdxLAddLoad {
            base,
            part,
            z,
            k,
            kind,
            offset,
            dst,
        },
    }
}

/// Picks the specialized compute-and-store form.
fn sel_binop_store(
    op: BinOpKind,
    kind: StoreKind,
    a: u16,
    b: u16,
    addr: u16,
    offset: u32,
) -> RegOp {
    match (op, kind) {
        (BinOpKind::F64Add, StoreKind::F64) => RegOp::AddStoreF64 { a, b, addr, offset },
        (BinOpKind::F64Mul, StoreKind::F64) => RegOp::MulStoreF64 { a, b, addr, offset },
        _ => RegOp::BinopStore {
            op,
            a,
            b,
            addr,
            kind,
            offset,
        },
    }
}

/// Picks the specialized compare-and-branch form (the `i < n` loop exit).
fn sel_cmp_br(op: BinOpKind, a: u16, b: u16, jump_if: bool, target: u32) -> RegOp {
    match (op, jump_if) {
        (BinOpKind::I32LtS, false) => RegOp::CmpBrLtSZ { a, b, target },
        (BinOpKind::I32LtS, true) => RegOp::CmpBrLtSNZ { a, b, target },
        _ => RegOp::CmpBr {
            op,
            a,
            b,
            jump_if,
            target,
        },
    }
}

/// Where a pending abstract-stack value currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// At its canonical slot `n_locals + position`.
    Canon,
    /// Forwarded: still in the named (local) frame slot, no copy made.
    Fwd(u16),
}

/// The register pass's share of the compile scratch
/// ([`crate::flat::CompileScratch`]): the abstract stack, the flat→register
/// index map, and the jump-target flags of the body it lowered last, which
/// the range analysis reads. (The code and its retirement table are built
/// in the vectors the [`RegFunc`] keeps.)
#[derive(Default)]
pub(crate) struct RegScratch {
    vstack: Vec<Src>,
    /// Register index of each flat op that starts a register op;
    /// [`ABSORBED`] for a token a fusion rule joined to its predecessor.
    old2new: Vec<u32>,
    /// Whether some branch lands on `code[pc]` of the register body; one
    /// flag more than ops (the end position).
    pub(crate) is_target: Vec<bool>,
}

/// The per-function lowering state: the emitted code plus the abstract
/// stack tracking where each pending operand value lives.
struct Lowerer<'a> {
    out: Vec<RegOp>,
    vstack: &'a mut Vec<Src>,
    n_locals: usize,
    max_height: usize,
    stats: &'a mut RegStats,
}

/// Why a function has no register form.
#[derive(Debug)]
pub(crate) enum LowerError {
    /// The frame (locals plus operand positions) does not fit the `u16`
    /// slot encoding. Not a defect: the module runs on the tree
    /// interpreter instead.
    FrameTooLarge,
    /// An invariant of the lowering pipeline does not hold — input that
    /// skipped validation, or a bug in an earlier pass. Instantiation
    /// fails with the carried [`Trap::Instantiation`].
    Malformed(Trap),
}

fn bad(msg: &str) -> LowerError {
    LowerError::Malformed(crate::flat::bad(msg))
}

fn slot16(idx: usize) -> Result<u16, LowerError> {
    u16::try_from(idx).map_err(|_| LowerError::FrameTooLarge)
}

impl Lowerer<'_> {
    fn canon(&self, pos: usize) -> Result<u16, LowerError> {
        slot16(self.n_locals + pos)
    }

    /// The slot currently holding the value at stack position `pos`.
    fn slot_of(&self, pos: usize) -> Result<u16, LowerError> {
        match self.vstack[pos] {
            Src::Canon => self.canon(pos),
            Src::Fwd(s) => Ok(s),
        }
    }

    /// Pops the top operand, returning the slot its value lives in.
    fn pop(&mut self) -> Result<u16, LowerError> {
        let pos = self
            .vstack
            .len()
            .checked_sub(1)
            .ok_or_else(|| bad("register lowering: operand stack underflow"))?;
        let s = self.slot_of(pos)?;
        self.vstack.pop();
        self.stats.stack_ops_eliminated += 1;
        Ok(s)
    }

    /// Pushes a canonical operand, returning the slot to write it to.
    fn push(&mut self) -> Result<u16, LowerError> {
        let s = self.canon(self.vstack.len())?;
        self.vstack.push(Src::Canon);
        self.max_height = self.max_height.max(self.vstack.len());
        self.stats.stack_ops_eliminated += 1;
        Ok(s)
    }

    fn emit_move(&mut self, src: u16, dst: u16) {
        self.out.push(RegOp::Move { src, dst });
        self.stats.moves_inserted += 1;
    }

    /// Copies the forwarded value at stack position `pos` out of local
    /// slot `from` into its canonical slot, which the frame must then hold.
    fn spill(&mut self, pos: usize, from: u16) -> Result<(), LowerError> {
        let dst = self.canon(pos)?;
        self.emit_move(from, dst);
        self.vstack[pos] = Src::Canon;
        self.max_height = self.max_height.max(pos + 1);
        Ok(())
    }

    /// Flushes every forwarded entry except the top `keep_top` to its
    /// canonical slot (branch/call edges need canonical state).
    fn flush_below(&mut self, keep_top: usize) -> Result<(), LowerError> {
        let n = self.vstack.len().saturating_sub(keep_top);
        for pos in 0..n {
            if let Src::Fwd(s) = self.vstack[pos] {
                self.spill(pos, s)?;
            }
        }
        Ok(())
    }

    fn flush_all(&mut self) -> Result<(), LowerError> {
        self.flush_below(0)
    }

    /// Before a write to local slot `local`: any pending operand still
    /// forwarded from that local (except the top `keep_top`, which the
    /// writing op itself consumes) must be copied out first.
    fn guard_local_write(&mut self, local: u16, keep_top: usize) -> Result<(), LowerError> {
        let n = self.vstack.len().saturating_sub(keep_top);
        for pos in 0..n {
            if self.vstack[pos] == Src::Fwd(local) {
                self.spill(pos, local)?;
            }
        }
        Ok(())
    }

    /// Validates and converts a local index carried by a (possibly
    /// unvalidated) flat op.
    fn local(&self, idx: u32) -> Result<u16, LowerError> {
        if (idx as usize) < self.n_locals {
            slot16(idx as usize)
        } else {
            Err(bad("register lowering: local index out of range"))
        }
    }
}

/// [`RegScratch::old2new`] entry of a flat op that a fusion rule joined to
/// the register op of an earlier token: nothing may jump to it.
const ABSORBED: u32 = u32::MAX;

/// Where a binop's result goes, read off the tokens that follow it.
enum Follow {
    /// Nothing joinable: the result is pushed.
    Push,
    /// `local.set`: the result is written straight to the local.
    Set(u32),
    /// `store`: the result is the value stored (address beneath it).
    Store(StoreKind, u32),
    /// `i32.eqzⁿ; jump-if`: the result is only tested.
    Br { jump_if: bool, target: u32 },
    /// `load` after `i32.add`: the result is only the address.
    Load(LoadKind, u32),
}

/// The fusion rules' view of the flat stream past the op being lowered.
struct Ahead<'a> {
    ops: &'a [FlatOp],
    is_target: &'a [bool],
    fuse: bool,
}

impl Ahead<'_> {
    /// `ops[j]` when a rule may join it to an earlier op: fusion is on and
    /// no jump lands on it (a target must stay the start of a register op).
    fn at(&self, j: usize) -> Option<&FlatOp> {
        if self.fuse && self.is_target.get(j) == Some(&false) {
            self.ops.get(j)
        } else {
            None
        }
    }

    /// Reads `i32.eqzⁿ; jump-if` at `ops[j..]`: whether the jump is taken
    /// on a non-zero value *entering* the chain (each inversion flips the
    /// polarity; MiniC's truthiness normalization emits these chains), its
    /// target, and the tokens read.
    fn cond_jump(&self, j: usize) -> Option<(bool, u32, usize)> {
        let mut n = 0;
        while let Some(FlatOp::Unop(UnOpKind::I32Eqz)) = self.at(j + n) {
            n += 1;
        }
        let (jump_if, target) = match self.at(j + n)? {
            FlatOp::JumpIfZero { target } => (false, *target),
            FlatOp::JumpIfNonZero { target } => (true, *target),
            _ => return None,
        };
        Some((jump_if ^ (n % 2 == 1), target, n + 1))
    }

    /// Classifies the tokens following a binop `op` at `ops[j - 1]`;
    /// returns the follow and how many tokens it takes.
    ///
    /// A trap-capable binop (`div`/`rem`) sinks only into a `local.set`:
    /// the set's retirement is deferred until the division succeeds (see
    /// `deferred_set` in [`lower_func`]), so inclusive-at-fetch instret
    /// stays exact on trapping inputs. A store or branch would put a second
    /// trap point or a control transfer after the division, which the
    /// deferred-suffix scheme does not cover.
    fn follow(&self, j: usize, op: BinOpKind) -> (Follow, usize) {
        match self.at(j) {
            Some(FlatOp::LocalSet(dst)) => (Follow::Set(*dst), 1),
            _ if op.traps() => (Follow::Push, 0),
            Some(&FlatOp::Store { kind, offset }) => (Follow::Store(kind, offset), 1),
            Some(&FlatOp::Load { kind, offset }) if op == BinOpKind::I32Add => {
                (Follow::Load(kind, offset), 1)
            }
            _ => match self.cond_jump(j) {
                Some((jump_if, target, n)) => (Follow::Br { jump_if, target }, n),
                None => (Follow::Push, 0),
            },
        }
    }

    /// Reads `i32.mul; i32.add [; load]` at `ops[j..]` — an array-address
    /// tail past its `const k`: the trailing load, and the tokens read.
    fn scale_tail(&self, j: usize) -> Option<(Option<(LoadKind, u32)>, usize)> {
        let Some(FlatOp::Binop(BinOpKind::I32Mul)) = self.at(j) else {
            return None;
        };
        let Some(FlatOp::Binop(BinOpKind::I32Add)) = self.at(j + 1) else {
            return None;
        };
        Some(match self.at(j + 2) {
            Some(&FlatOp::Load { kind, offset }) => (Some((kind, offset)), 3),
            _ => (None, 2),
        })
    }
}

/// Lowers the flat body in `scratch.ops` — `body`'s — to register form.
/// `scratch` holds what [`crate::flat::lower`] recorded beside the ops: the
/// operand-stack entry height of every flat op — it re-seeds the abstract
/// stack at dynamically-unreachable fall-through code where no simulation
/// state survives —, the retirement metadata, and the jump-target flags,
/// which are carried through the old→new map into `scratch.reg.is_target`.
/// `fuse` turns the fusion rules on (see the module docs); what they
/// joined is counted in `fusion`.
///
/// # Errors
///
/// [`LowerError::FrameTooLarge`] when the frame outgrows the `u16` slot
/// encoding (the caller leaves the module on the interpreter), and
/// [`LowerError::Malformed`] when an invariant is violated (the caller
/// fails instantiation).
#[allow(clippy::too_many_lines)]
pub(crate) fn lower_func(
    module: &Module,
    body: &FuncBody,
    scratch: &mut CompileScratch,
    fuse: bool,
    stats: &mut RegStats,
    fusion: &mut FusionStats,
) -> Result<RegFunc, LowerError> {
    let ty = module
        .types
        .get(body.type_idx as usize)
        .ok_or_else(|| bad("function type index out of range"))?;
    let CompileScratch {
        ops,
        heights,
        prof,
        is_target,
        reg:
            RegScratch {
                vstack,
                old2new,
                is_target: reg_targets,
            },
        ..
    } = scratch;
    let n = ops.len();
    if heights.len() != n || prof.len() != n || is_target.len() != n + 1 {
        return Err(bad("register lowering: flat side tables out of sync"));
    }
    let n_params = ty.params.len();
    let n_locals = n_params + body.locals.len();
    let n_results = ty.results.len();

    vstack.clear();
    let mut lo = Lowerer {
        out: Vec::with_capacity(n),
        vstack,
        n_locals,
        max_height: 0,
        stats,
    };
    old2new.clear();
    old2new.resize(n + 1, ABSORBED);
    let ahead = Ahead {
        ops,
        is_target,
        fuse,
    };
    // The previous op ended its basic block: the abstract stack must be
    // re-seeded from the recorded entry height (canonical by convention —
    // every edge into a target flushes first).
    let mut terminated = false;

    // Retirement metadata, kept 1:1 with `lo.out`. Each flat op's weight
    // accumulates into `pending` and attaches to the *first* register op
    // emitted on its behalf (fix-up moves included — they cannot trap and
    // run before the main op on the same path, so inclusive-at-fetch
    // retirement stays exact even on trapping programs). Emit-less ops
    // (forwarded gets, drops, same-slot sets) leave their weight pending
    // for the next emission on the same fall-through path.
    let mut rprof: Vec<ProfOp> = Vec::with_capacity(n);
    let mut pending = ProfOp::zero();
    macro_rules! sync_prof {
        () => {
            while rprof.len() < lo.out.len() {
                rprof.push(std::mem::take(&mut pending));
            }
        };
    }

    // The arity of a call target, for arg/result placement.
    let call_arity = |func: u32| -> Result<(usize, usize), LowerError> {
        let ty_idx = module
            .func_type_idx(func)
            .ok_or_else(|| bad("call target out of range"))?;
        let ty = module
            .types
            .get(ty_idx as usize)
            .ok_or_else(|| bad("call type index out of range"))?;
        Ok((ty.params.len(), ty.results.len()))
    };

    let mut i = 0;
    while i < n {
        if terminated {
            lo.vstack.clear();
            lo.vstack.resize(heights[i] as usize, Src::Canon);
            lo.max_height = lo.max_height.max(lo.vstack.len());
            terminated = false;
        } else if is_target[i] {
            // Fall-through into a jump target: forwarded operands become
            // canonical here so every predecessor agrees on the state.
            lo.flush_all()?;
            sync_prof!();
            if pending != ProfOp::zero() {
                // Emit-less ops left retirement weight pending and no
                // flush move was emitted to carry it. A self-move keeps
                // the weight on the fall-through path only — jumping
                // predecessors already retired their own ops.
                if lo.n_locals == 0 {
                    lo.max_height = lo.max_height.max(1);
                }
                lo.emit_move(0, 0);
                sync_prof!();
            }
            if lo.vstack.len() != heights[i] as usize {
                return Err(bad("register lowering: height mismatch at jump target"));
            }
        }
        old2new[i] = lo.out.len() as u32;
        // Flat ops this iteration lowers: `ops[i]` plus what a fusion rule
        // joins to it.
        let mut used = 1;
        // A binop sunk into a `local.set` retires the set only after the
        // (possibly trapping) binop succeeds: the set's weight joins
        // `pending` after this op's sync, attaching to the next emission
        // on the fall-through path (or a carrier move at a join).
        let mut deferred_set = false;

        match &ops[i] {
            FlatOp::Unreachable => {
                lo.out.push(RegOp::Unreachable);
                terminated = true;
            }
            FlatOp::Jump { target } => {
                lo.flush_all()?;
                lo.out.push(RegOp::Jump { target: *target });
                terminated = true;
            }
            FlatOp::JumpIfZero { target } | FlatOp::JumpIfNonZero { target } => {
                lo.flush_below(1)?;
                let cond = lo.pop()?;
                lo.out.push(RegOp::BrIf {
                    cond,
                    jump_if: matches!(&ops[i], FlatOp::JumpIfNonZero { .. }),
                    target: *target,
                });
            }
            FlatOp::Br {
                target,
                keep,
                height,
            } => {
                lo.flush_all()?;
                let h = lo.vstack.len();
                if h < *keep as usize {
                    return Err(bad("register lowering: br keeps more than the stack"));
                }
                let src = slot16(n_locals + h - *keep as usize)?;
                let dst = slot16(n_locals + *height as usize)?;
                if *keep == 0 || src == dst {
                    lo.out.push(RegOp::Jump { target: *target });
                } else {
                    lo.out.push(RegOp::BrMoves {
                        target: *target,
                        src,
                        dst,
                        keep: slot16(*keep as usize)?,
                    });
                }
                terminated = true;
            }
            FlatOp::BrIf {
                target,
                keep,
                height,
            } => {
                lo.flush_below(1)?;
                let cond = lo.pop()?;
                let h = lo.vstack.len();
                if h < *keep as usize {
                    return Err(bad("register lowering: br_if keeps more than the stack"));
                }
                let src = slot16(n_locals + h - *keep as usize)?;
                let dst = slot16(n_locals + *height as usize)?;
                if *keep == 0 || src == dst {
                    lo.out.push(RegOp::BrIf {
                        cond,
                        jump_if: true,
                        target: *target,
                    });
                } else {
                    lo.out.push(RegOp::BrIfMoves {
                        cond,
                        jump_if: true,
                        target: *target,
                        src,
                        dst,
                        keep: slot16(*keep as usize)?,
                    });
                }
            }
            FlatOp::BrTable { entries } => {
                lo.flush_below(1)?;
                let idx = lo.pop()?;
                let h = lo.vstack.len();
                let mut reg_entries = Vec::with_capacity(entries.len());
                for e in entries.iter() {
                    let keep = e.keep as usize;
                    if h < keep {
                        return Err(bad("register lowering: br_table keeps more than the stack"));
                    }
                    reg_entries.push(RegBrEntry {
                        target: e.target,
                        src: slot16(n_locals + h - keep)?,
                        dst: slot16(n_locals + e.height as usize)?,
                        keep: slot16(keep)?,
                    });
                }
                lo.out.push(RegOp::BrTable {
                    idx,
                    entries: reg_entries.into_boxed_slice(),
                });
                terminated = true;
            }
            FlatOp::Return => {
                lo.flush_all()?;
                let h = lo.vstack.len();
                if h < n_results {
                    return Err(bad("register lowering: missing results at return"));
                }
                lo.out.push(RegOp::Return {
                    src: slot16(n_locals + h - n_results)?,
                });
                terminated = true;
            }
            FlatOp::CallLocal { func } | FlatOp::CallImport { func } => {
                let (n_args, n_res) = call_arity(*func)?;
                lo.flush_all()?;
                let h = lo.vstack.len();
                if h < n_args {
                    return Err(bad("register lowering: missing call arguments"));
                }
                let base = slot16(n_locals + h - n_args)?;
                for _ in 0..n_args {
                    lo.pop()?;
                }
                for _ in 0..n_res {
                    lo.push()?;
                }
                lo.out.push(match &ops[i] {
                    FlatOp::CallLocal { func } => RegOp::CallLocal { func: *func, base },
                    _ => RegOp::CallImport { func: *func, base },
                });
            }
            FlatOp::CallIndirect { type_idx } => {
                let ty = module
                    .types
                    .get(*type_idx as usize)
                    .ok_or_else(|| bad("call_indirect type index out of range"))?;
                let (n_args, n_res) = (ty.params.len(), ty.results.len());
                lo.flush_all()?;
                let idx = lo.pop()?;
                let h = lo.vstack.len();
                if h < n_args {
                    return Err(bad("register lowering: missing call arguments"));
                }
                let base = slot16(n_locals + h - n_args)?;
                for _ in 0..n_args {
                    lo.pop()?;
                }
                for _ in 0..n_res {
                    lo.push()?;
                }
                lo.out.push(RegOp::CallIndirect {
                    type_idx: *type_idx,
                    idx,
                    base,
                });
            }

            FlatOp::Drop => {
                lo.pop()?;
            }
            FlatOp::Select => {
                let cond = lo.pop()?;
                let b = lo.pop()?;
                let a = lo.pop()?;
                let dst = lo.push()?;
                lo.out.push(RegOp::Select { cond, a, b, dst });
            }

            FlatOp::LocalGet(idx) => {
                let z = lo.local(*idx)?;
                // The 2-D address tail `local.get z; i32.add; const k;
                // i32.mul; i32.add [; load]`: base + (part + z)*k.
                let tail = match (ahead.at(i + 1), ahead.at(i + 2)) {
                    (Some(FlatOp::Binop(BinOpKind::I32Add)), Some(&FlatOp::Const(k))) => {
                        u32::try_from(k).ok().zip(ahead.scale_tail(i + 3))
                    }
                    _ => None,
                };
                if let Some((k, (load, tail_len))) = tail {
                    used = 3 + tail_len;
                    let part = lo.pop()?;
                    let base = lo.pop()?;
                    let dst = lo.push()?;
                    lo.out.push(if let Some((kind, offset)) = load {
                        fusion.idx_load += 1;
                        sel_idx_l_add_load(base, part, z, k, kind, offset, dst)
                    } else {
                        fusion.idx_addr += 1;
                        RegOp::IdxLAdd {
                            base,
                            part,
                            z,
                            k,
                            dst,
                        }
                    });
                } else {
                    // Forwarded: the operand stays in the local's slot and
                    // takes a frame slot of its own only if it is spilled.
                    lo.vstack.push(Src::Fwd(z));
                    lo.stats.gets_forwarded += 1;
                    lo.stats.stack_ops_eliminated += 1;
                }
            }
            FlatOp::LocalSet(idx) => {
                let dst = lo.local(*idx)?;
                let src = lo.pop()?;
                if src != dst {
                    lo.guard_local_write(dst, 0)?;
                    lo.emit_move(src, dst);
                }
            }
            FlatOp::LocalTee(idx) => {
                let dst = lo.local(*idx)?;
                let top = lo
                    .vstack
                    .len()
                    .checked_sub(1)
                    .ok_or_else(|| bad("register lowering: tee on empty stack"))?;
                let src = lo.slot_of(top)?;
                if src != dst {
                    lo.guard_local_write(dst, 1)?;
                    lo.emit_move(src, dst);
                }
            }
            FlatOp::GlobalGet(idx) => {
                let dst = lo.push()?;
                lo.out.push(RegOp::GlobalGet { idx: *idx, dst });
            }
            FlatOp::GlobalSet(idx) => {
                let src = lo.pop()?;
                lo.out.push(RegOp::GlobalSet { idx: *idx, src });
            }

            FlatOp::MemorySize => {
                let dst = lo.push()?;
                lo.out.push(RegOp::MemorySize { dst });
            }
            FlatOp::MemoryGrow => {
                let src = lo.pop()?;
                let dst = lo.push()?;
                lo.out.push(RegOp::MemoryGrow { src, dst });
            }
            FlatOp::MemoryCopy | FlatOp::MemoryFill => {
                lo.flush_all()?;
                let h = lo.vstack.len();
                if h < 3 {
                    return Err(bad("register lowering: missing bulk-memory operands"));
                }
                let args = slot16(n_locals + h - 3)?;
                for _ in 0..3 {
                    lo.pop()?;
                }
                lo.out.push(match &ops[i] {
                    FlatOp::MemoryCopy => RegOp::MemoryCopy { args },
                    _ => RegOp::MemoryFill { args },
                });
            }

            FlatOp::Const(k) => {
                let k = *k;
                let k32 = u32::try_from(k).ok();
                if let Some((k, (load, tail_len))) = k32.zip(ahead.scale_tail(i + 1)) {
                    // The 1-D address tail `const k; i32.mul; i32.add
                    // [; load]`: base + idx*k.
                    used = 1 + tail_len;
                    let idx = lo.pop()?;
                    let base = lo.pop()?;
                    let dst = lo.push()?;
                    lo.out.push(if let Some((kind, offset)) = load {
                        fusion.idx_load += 1;
                        sel_scale_add_load(base, idx, k, kind, offset, dst)
                    } else {
                        fusion.idx_addr += 1;
                        RegOp::ScaleAdd { base, idx, k, dst }
                    });
                } else if let Some(&FlatOp::Binop(op)) = ahead.at(i + 1) {
                    // `const k; binop`: `k` is the inline right operand.
                    // The register code has no constant form of the store
                    // and address sinks, and `CmpBrK` holds a `u32`.
                    let (follow, follow_len) = ahead.follow(i + 2, op);
                    match (follow, k32) {
                        (Follow::Set(dst), _) => {
                            fusion.binop_set += 1;
                            used = 2 + follow_len;
                            deferred_set = true;
                            let a = lo.pop()?;
                            let dst = lo.local(dst)?;
                            lo.guard_local_write(dst, 0)?;
                            lo.out.push(sel_binop_k(op, a, k, dst));
                        }
                        (Follow::Br { jump_if, target }, Some(k)) => {
                            fusion.cmp_br += 1;
                            used = 2 + follow_len;
                            lo.flush_below(1)?;
                            let a = lo.pop()?;
                            lo.out.push(RegOp::CmpBrK {
                                op,
                                a,
                                k,
                                jump_if,
                                target,
                            });
                        }
                        _ => {
                            fusion.binop_k += 1;
                            used = 2;
                            let a = lo.pop()?;
                            let dst = lo.push()?;
                            lo.out.push(sel_binop_k(op, a, k, dst));
                        }
                    }
                } else {
                    let dst = lo.push()?;
                    lo.out.push(RegOp::Const { bits: k, dst });
                }
            }

            // Reinterpret casts are identities on raw slots: no code, the
            // value stays wherever it lives.
            FlatOp::Reinterpret => {}
            FlatOp::Binop(op) => {
                let op = *op;
                let (follow, follow_len) = ahead.follow(i + 1, op);
                used = 1 + follow_len;
                if matches!(follow, Follow::Br { .. }) {
                    lo.flush_below(2)?;
                }
                let b = lo.pop()?;
                let a = lo.pop()?;
                let reg_op = match follow {
                    Follow::Push => sel_binop(op, a, b, lo.push()?),
                    Follow::Set(dst) => {
                        fusion.binop_set += 1;
                        deferred_set = true;
                        let dst = lo.local(dst)?;
                        lo.guard_local_write(dst, 0)?;
                        sel_binop(op, a, b, dst)
                    }
                    Follow::Store(kind, offset) => {
                        fusion.binop_store += 1;
                        sel_binop_store(op, kind, a, b, lo.pop()?, offset)
                    }
                    Follow::Br { jump_if, target } => {
                        fusion.cmp_br += 1;
                        sel_cmp_br(op, a, b, jump_if, target)
                    }
                    Follow::Load(kind, offset) => {
                        fusion.add_load += 1;
                        sel_scale_add_load(a, b, 1, kind, offset, lo.push()?)
                    }
                };
                lo.out.push(reg_op);
            }
            FlatOp::Unop(op) => {
                // A bare truthiness chain `i32.eqzⁿ; jump-if` (no binop in
                // front to take it as a follow) folds into the jump.
                let fold = match op {
                    UnOpKind::I32Eqz => ahead.cond_jump(i + 1),
                    _ => None,
                };
                if let Some((jump_if, target, jump_len)) = fold {
                    fusion.eqz_br += 1;
                    used = 1 + jump_len;
                    lo.flush_below(1)?;
                    let cond = lo.pop()?;
                    lo.out.push(RegOp::BrIf {
                        cond,
                        jump_if: !jump_if,
                        target,
                    });
                } else {
                    let src = lo.pop()?;
                    let dst = lo.push()?;
                    lo.out.push(RegOp::Unop { op: *op, src, dst });
                }
            }
            FlatOp::Load { kind, offset } => {
                let addr = lo.pop()?;
                let dst = lo.push()?;
                lo.out.push(sel_load(*kind, addr, *offset, dst));
            }
            FlatOp::Store { kind, offset } => {
                let val = lo.pop()?;
                let addr = lo.pop()?;
                lo.out.push(sel_store(*kind, addr, val, *offset));
            }
        }
        // Everything lowered here retires at the first op emitted for it,
        // except a deferred set.
        let retired = i + used - usize::from(deferred_set);
        for p in &prof[i..retired] {
            pending.merge(p);
        }
        sync_prof!();
        if deferred_set {
            pending.merge(&prof[retired]);
        }
        i += used;
    }
    old2new[n] = lo.out.len() as u32;
    // Every body ends on a terminator (flat lowering closes with Return),
    // which always emits, so no weight can be left pending.
    if rprof.len() != lo.out.len() || pending != ProfOp::zero() {
        return Err(bad("register lowering produced skewed code/prof arrays"));
    }

    // Re-point the target flags, then every jump, through the old→new map.
    // A flagged target can only miss the code by being its end position
    // (`Ahead::at` never lets a rule absorb one); a jump whose target is
    // not the start of a register op is a lowering defect all the same.
    reg_targets.clear();
    reg_targets.resize(lo.out.len() + 1, false);
    for (old, _) in is_target.iter().enumerate().filter(|(_, &t)| t) {
        reg_targets[old2new[old] as usize] = true;
    }
    if reg_targets[lo.out.len()] {
        return Err(bad("register jump target out of bounds"));
    }
    for op in lo.out.iter_mut() {
        let remap = |t: &mut u32| match old2new.get(*t as usize) {
            Some(&new) if new != ABSORBED => {
                *t = new;
                Ok(())
            }
            _ => Err(bad("jump into the middle of a fused window")),
        };
        match op {
            RegOp::Jump { target }
            | RegOp::BrIf { target, .. }
            | RegOp::BrMoves { target, .. }
            | RegOp::BrIfMoves { target, .. }
            | RegOp::CmpBr { target, .. }
            | RegOp::CmpBrK { target, .. }
            | RegOp::CmpBrLtSZ { target, .. }
            | RegOp::CmpBrLtSNZ { target, .. } => remap(target)?,
            RegOp::BrTable { entries, .. } => {
                for e in entries.iter_mut() {
                    remap(&mut e.target)?;
                }
            }
            _ => {}
        }
    }

    slot16(n_locals + lo.max_height)?; // the whole frame must stay u16-addressable
    let frame_size = (n_locals + lo.max_height) as u32;
    let stats = lo.stats;
    stats.funcs += 1;
    stats.frame_slots += u64::from(frame_size);

    Ok(RegFunc {
        n_params: n_params as u32,
        n_locals: n_locals as u32,
        n_results: n_results as u32,
        frame_size,
        result_types: ty.results.clone().into_boxed_slice(),
        code: lo.out.into_boxed_slice(),
        prof: rprof.into_boxed_slice(),
    })
}

/// Saved caller state for a guest-level call inside the register engine.
struct Frame<'a> {
    func: &'a RegFunc,
    pc: usize,
    base: usize,
}

/// Invokes function `func_idx` on the register engine.
///
/// # Errors
///
/// Returns exactly the traps the tree-walking oracle would.
#[allow(clippy::too_many_arguments)] // One borrow per disjoint Instance field.
pub(crate) fn run(
    cm: &CompiledModule,
    types: &[FuncType],
    table: &[Option<u32>],
    memory: &mut Memory,
    globals: &mut [Value],
    host: &mut dyn HostEnv,
    func_idx: u32,
    args: &[Value],
    profile: Option<&mut crate::profile::ExecProfile>,
) -> Result<Vec<Value>, Trap> {
    let prog = cm.reg.as_ref().expect("register program prepared");
    if let Some(imp) = cm.imports.get(func_idx as usize) {
        let results = host.call(&imp.module, &imp.name, memory, args)?;
        crate::exec::check_host_results(&imp.module, &imp.name, results.len(), imp.n_results)?;
        return Ok(results);
    }
    let entry = prog.funcs[func_idx as usize]
        .as_ref()
        .expect("local function register-lowered");
    let mut mem = memory.take_data();
    // Monomorphize the dispatch loop on the profiler: the `None` arm
    // instantiates with the no-op profiler, whose guarded counting code
    // is erased entirely — the default hot path gains no work.
    let result = match profile {
        Some(p) => run_loop(
            prog, cm, types, table, &mut mem, memory, globals, host, entry, args, p,
        ),
        None => run_loop(
            prog,
            cm,
            types,
            table,
            &mut mem,
            memory,
            globals,
            host,
            entry,
            args,
            &mut crate::profile::NoProfile,
        ),
    };
    memory.put_data(mem);
    result
}

/// The register engine's dispatch loop: no operand stack, only frames of
/// statically-addressed slots (and the cached memory vec, handed back to
/// [`Memory`] around host calls).
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_loop<P: Profiler>(
    prog: &RegProgram,
    cm: &CompiledModule,
    types: &[FuncType],
    table: &[Option<u32>],
    mem: &mut Vec<u8>,
    memory: &mut Memory,
    globals: &mut [Value],
    host: &mut dyn HostEnv,
    entry: &RegFunc,
    args: &[Value],
    prof: &mut P,
) -> Result<Vec<Value>, Trap> {
    let mut stack: Vec<Slot> = vec![0; entry.frame_size as usize];
    for (i, v) in args.iter().enumerate() {
        stack[i] = slot_from_value(*v);
    }

    let mut frames: Vec<Frame> = Vec::new();
    let mut cur: &RegFunc = entry;
    let mut base: usize = 0;
    let mut pc: usize = 0;

    // Frame-slot read/write (bounds-checked against the one shared vec;
    // every frame was sized at its call).
    macro_rules! r {
        ($s:expr) => {
            stack[base + $s as usize]
        };
    }
    macro_rules! call_local {
        ($callee:expr, $off:expr) => {{
            let callee: &RegFunc = $callee;
            if frames.len() + 1 >= MAX_CALL_DEPTH {
                return Err(Trap::CallStackExhausted);
            }
            let new_base = base + $off as usize;
            let need = new_base + callee.frame_size as usize;
            if stack.len() < need {
                stack.resize(need, 0);
            }
            // Non-param locals start zeroed; slots may hold stale data
            // from a deeper earlier call (the vec never shrinks).
            stack[new_base + callee.n_params as usize..new_base + callee.n_locals as usize].fill(0);
            frames.push(Frame {
                func: cur,
                pc,
                base,
            });
            cur = callee;
            base = new_base;
            pc = 0;
        }};
    }
    macro_rules! call_import {
        ($func:expr, $off:expr) => {{
            let imp = &cm.imports[$func as usize];
            let abase = base + $off as usize;
            let host_args: Vec<Value> = imp
                .params
                .iter()
                .enumerate()
                .map(|(k, ty)| value_from_slot(*ty, stack[abase + k]))
                .collect();
            // The host sees (and may grow) the real memory.
            memory.put_data(std::mem::take(mem));
            let call_result = host.call(&imp.module, &imp.name, memory, &host_args);
            *mem = memory.take_data();
            let results = call_result?;
            crate::exec::check_host_results(&imp.module, &imp.name, results.len(), imp.n_results)?;
            for (k, v) in results.into_iter().enumerate() {
                stack[abase + k] = slot_from_value(v);
            }
        }};
    }

    // Counts a taken branch as a loop back edge when it jumps backward
    // (`pc` is already past the current op, so `target < pc` is exact).
    macro_rules! backedge {
        ($target:expr) => {
            if P::ENABLED && ($target as usize) < pc {
                prof.backedge();
            }
        };
    }

    loop {
        let op = &cur.code[pc];
        // Inclusive at fetch: a trapping op still retires its guest
        // instructions, matching the tree oracle's dispatch-then-trap.
        if P::ENABLED {
            prof.retire(&cur.prof[pc]);
        }
        pc += 1;
        match op {
            RegOp::Unreachable => return Err(Trap::Unreachable),
            RegOp::Jump { target } => {
                backedge!(*target);
                pc = *target as usize;
            }
            RegOp::BrIf {
                cond,
                jump_if,
                target,
            } => {
                if (as_u32(r!(*cond)) != 0) == *jump_if {
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::BrMoves {
                target,
                src,
                dst,
                keep,
            } => {
                let (s, d, k) = (base + *src as usize, base + *dst as usize, *keep as usize);
                stack.copy_within(s..s + k, d);
                backedge!(*target);
                pc = *target as usize;
            }
            RegOp::BrIfMoves {
                cond,
                jump_if,
                target,
                src,
                dst,
                keep,
            } => {
                if (as_u32(r!(*cond)) != 0) == *jump_if {
                    let (s, d, k) = (base + *src as usize, base + *dst as usize, *keep as usize);
                    stack.copy_within(s..s + k, d);
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::BrTable { idx, entries } => {
                let i = as_u32(r!(*idx)) as usize;
                let e = entries[i.min(entries.len() - 1)];
                if e.keep > 0 && e.src != e.dst {
                    let (s, d, k) = (
                        base + e.src as usize,
                        base + e.dst as usize,
                        e.keep as usize,
                    );
                    stack.copy_within(s..s + k, d);
                }
                backedge!(e.target);
                pc = e.target as usize;
            }
            RegOp::Return { src } => {
                let n = cur.n_results as usize;
                let s = base + *src as usize;
                if s != base && n > 0 {
                    stack.copy_within(s..s + n, base);
                }
                match frames.pop() {
                    Some(fr) => {
                        cur = fr.func;
                        pc = fr.pc;
                        base = fr.base;
                    }
                    None => {
                        return Ok(cur
                            .result_types
                            .iter()
                            .enumerate()
                            .map(|(k, ty)| value_from_slot(*ty, stack[base + k]))
                            .collect());
                    }
                }
            }
            RegOp::CallLocal { func, base: off } => {
                let callee = prog.funcs[*func as usize]
                    .as_ref()
                    .expect("local function register-lowered");
                call_local!(callee, *off);
            }
            RegOp::CallImport { func, base: off } => call_import!(*func, *off),
            RegOp::CallIndirect {
                type_idx,
                idx,
                base: off,
            } => {
                let i = as_u32(r!(*idx)) as usize;
                let slot = *table.get(i).ok_or(Trap::TableOutOfBounds)?;
                let f = slot.ok_or(Trap::UndefinedTableElement)?;
                let actual = &types[cm.func_type_idx[f as usize] as usize];
                let expected = &types[*type_idx as usize];
                if actual != expected {
                    return Err(Trap::IndirectTypeMismatch);
                }
                match &prog.funcs[f as usize] {
                    Some(callee) => call_local!(callee, *off),
                    None => call_import!(f, *off),
                }
            }

            RegOp::Select { cond, a, b, dst } => {
                let v = if as_u32(r!(*cond)) != 0 {
                    r!(*a)
                } else {
                    r!(*b)
                };
                r!(*dst) = v;
            }
            RegOp::Move { src, dst } => r!(*dst) = r!(*src),
            RegOp::Const { bits, dst } => r!(*dst) = *bits,
            RegOp::GlobalGet { idx, dst } => r!(*dst) = slot_from_value(globals[*idx as usize]),
            RegOp::GlobalSet { idx, src } => {
                globals[*idx as usize] = value_from_slot(cm.global_types[*idx as usize], r!(*src));
            }

            RegOp::Load {
                kind,
                addr,
                offset,
                dst,
            } => {
                let a = as_i32(r!(*addr));
                r!(*dst) = do_load(*kind, mem, a, *offset)?;
            }
            RegOp::Store {
                kind,
                addr,
                val,
                offset,
            } => {
                let a = as_i32(r!(*addr));
                do_store(*kind, mem, a, *offset, r!(*val))?;
            }
            RegOp::MemorySize { dst } => {
                r!(*dst) = from_i32((mem.len() / crate::PAGE_SIZE) as i32);
            }
            RegOp::MemoryGrow { src, dst } => {
                let delta = as_u32(r!(*src));
                r!(*dst) = from_i32(Memory::grow_raw(mem, memory.max_pages(), delta));
            }
            RegOp::MemoryCopy { args } => {
                let a = base + *args as usize;
                let (dst, src, len) =
                    (as_u32(stack[a]), as_u32(stack[a + 1]), as_u32(stack[a + 2]));
                let mem_len = mem.len() as u64;
                if u64::from(src) + u64::from(len) > mem_len
                    || u64::from(dst) + u64::from(len) > mem_len
                {
                    return Err(Trap::MemoryOutOfBounds);
                }
                mem.copy_within(src as usize..(src + len) as usize, dst as usize);
            }
            RegOp::MemoryFill { args } => {
                let a = base + *args as usize;
                let (dst, val, len) = (
                    as_u32(stack[a]),
                    as_u32(stack[a + 1]) as u8,
                    as_u32(stack[a + 2]),
                );
                if u64::from(dst) + u64::from(len) > mem.len() as u64 {
                    return Err(Trap::MemoryOutOfBounds);
                }
                mem[dst as usize..(dst + len) as usize].fill(val);
            }

            RegOp::Unop { op, src, dst } => r!(*dst) = apply_unop(*op, r!(*src))?,
            RegOp::Binop { op, a, b, dst } => {
                r!(*dst) = apply_binop(*op, r!(*a), r!(*b))?;
            }
            RegOp::BinopK { op, a, k, dst } => {
                r!(*dst) = apply_binop(*op, r!(*a), *k)?;
            }

            RegOp::AddI32 { a, b, dst } => {
                r!(*dst) = from_i32(as_i32(r!(*a)).wrapping_add(as_i32(r!(*b))));
            }
            RegOp::SubI32 { a, b, dst } => {
                r!(*dst) = from_i32(as_i32(r!(*a)).wrapping_sub(as_i32(r!(*b))));
            }
            RegOp::MulI32 { a, b, dst } => {
                r!(*dst) = from_i32(as_i32(r!(*a)).wrapping_mul(as_i32(r!(*b))));
            }
            RegOp::AddI32K { a, k, dst } => {
                r!(*dst) = from_i32(as_i32(r!(*a)).wrapping_add(*k as i32));
            }
            RegOp::AddF64 { a, b, dst } => {
                r!(*dst) = from_f64(as_f64(r!(*a)) + as_f64(r!(*b)));
            }
            RegOp::SubF64 { a, b, dst } => {
                r!(*dst) = from_f64(as_f64(r!(*a)) - as_f64(r!(*b)));
            }
            RegOp::MulF64 { a, b, dst } => {
                r!(*dst) = from_f64(as_f64(r!(*a)) * as_f64(r!(*b)));
            }
            RegOp::DivF64 { a, b, dst } => {
                r!(*dst) = from_f64(as_f64(r!(*a)) / as_f64(r!(*b)));
            }
            RegOp::LoadI32R { addr, offset, dst } => {
                let a = as_i32(r!(*addr));
                let b: [u8; 4] = crate::exec::mem_load(mem, a, *offset)?;
                r!(*dst) = u64::from(u32::from_le_bytes(b));
            }
            RegOp::LoadF64R { addr, offset, dst } => {
                let a = as_i32(r!(*addr));
                let b: [u8; 8] = crate::exec::mem_load(mem, a, *offset)?;
                r!(*dst) = u64::from_le_bytes(b);
            }
            RegOp::StoreI32R { addr, val, offset } => {
                let a = as_i32(r!(*addr));
                crate::exec::mem_store(mem, a, *offset, &(r!(*val) as u32).to_le_bytes())?;
            }
            RegOp::StoreF64R { addr, val, offset } => {
                let a = as_i32(r!(*addr));
                crate::exec::mem_store(mem, a, *offset, &r!(*val).to_le_bytes())?;
            }
            RegOp::ScaleAddLoadI32 {
                base: b,
                idx,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*idx));
                let addr = as_i32(r!(*b)).wrapping_add(idx.wrapping_mul(*k as i32));
                let bytes: [u8; 4] = crate::exec::mem_load(mem, addr, *offset)?;
                r!(*dst) = u64::from(u32::from_le_bytes(bytes));
            }
            RegOp::ScaleAddLoadF64 {
                base: b,
                idx,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*idx));
                let addr = as_i32(r!(*b)).wrapping_add(idx.wrapping_mul(*k as i32));
                let bytes: [u8; 8] = crate::exec::mem_load(mem, addr, *offset)?;
                r!(*dst) = u64::from_le_bytes(bytes);
            }
            RegOp::IdxLAddLoadI32 {
                base: b,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*part))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                let addr = as_i32(r!(*b)).wrapping_add(idx);
                let bytes: [u8; 4] = crate::exec::mem_load(mem, addr, *offset)?;
                r!(*dst) = u64::from(u32::from_le_bytes(bytes));
            }
            RegOp::IdxLAddLoadF64 {
                base: b,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*part))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                let addr = as_i32(r!(*b)).wrapping_add(idx);
                let bytes: [u8; 8] = crate::exec::mem_load(mem, addr, *offset)?;
                r!(*dst) = u64::from_le_bytes(bytes);
            }
            RegOp::AddStoreF64 { a, b, addr, offset } => {
                let v = as_f64(r!(*a)) + as_f64(r!(*b));
                let a = as_i32(r!(*addr));
                crate::exec::mem_store(mem, a, *offset, &v.to_bits().to_le_bytes())?;
            }
            RegOp::MulStoreF64 { a, b, addr, offset } => {
                let v = as_f64(r!(*a)) * as_f64(r!(*b));
                let a = as_i32(r!(*addr));
                crate::exec::mem_store(mem, a, *offset, &v.to_bits().to_le_bytes())?;
            }
            RegOp::LoadI32N { addr, offset, dst } => {
                let a = as_i32(r!(*addr));
                let b: [u8; 4] = crate::exec::nc_load(mem, a, *offset);
                r!(*dst) = u64::from(u32::from_le_bytes(b));
            }
            RegOp::LoadF64N { addr, offset, dst } => {
                let a = as_i32(r!(*addr));
                let b: [u8; 8] = crate::exec::nc_load(mem, a, *offset);
                r!(*dst) = u64::from_le_bytes(b);
            }
            RegOp::StoreI32N { addr, val, offset } => {
                let a = as_i32(r!(*addr));
                crate::exec::nc_store(mem, a, *offset, &(r!(*val) as u32).to_le_bytes());
            }
            RegOp::StoreF64N { addr, val, offset } => {
                let a = as_i32(r!(*addr));
                crate::exec::nc_store(mem, a, *offset, &r!(*val).to_le_bytes());
            }
            RegOp::ScaleAddLoadI32N {
                base: b,
                idx,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*idx));
                let addr = as_i32(r!(*b)).wrapping_add(idx.wrapping_mul(*k as i32));
                let bytes: [u8; 4] = crate::exec::nc_load(mem, addr, *offset);
                r!(*dst) = u64::from(u32::from_le_bytes(bytes));
            }
            RegOp::ScaleAddLoadF64N {
                base: b,
                idx,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*idx));
                let addr = as_i32(r!(*b)).wrapping_add(idx.wrapping_mul(*k as i32));
                let bytes: [u8; 8] = crate::exec::nc_load(mem, addr, *offset);
                r!(*dst) = u64::from_le_bytes(bytes);
            }
            RegOp::IdxLAddLoadI32N {
                base: b,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*part))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                let addr = as_i32(r!(*b)).wrapping_add(idx);
                let bytes: [u8; 4] = crate::exec::nc_load(mem, addr, *offset);
                r!(*dst) = u64::from(u32::from_le_bytes(bytes));
            }
            RegOp::IdxLAddLoadF64N {
                base: b,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*part))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                let addr = as_i32(r!(*b)).wrapping_add(idx);
                let bytes: [u8; 8] = crate::exec::nc_load(mem, addr, *offset);
                r!(*dst) = u64::from_le_bytes(bytes);
            }
            RegOp::AddStoreF64N { a, b, addr, offset } => {
                let v = as_f64(r!(*a)) + as_f64(r!(*b));
                let a = as_i32(r!(*addr));
                crate::exec::nc_store(mem, a, *offset, &v.to_bits().to_le_bytes());
            }
            RegOp::MulStoreF64N { a, b, addr, offset } => {
                let v = as_f64(r!(*a)) * as_f64(r!(*b));
                let a = as_i32(r!(*addr));
                crate::exec::nc_store(mem, a, *offset, &v.to_bits().to_le_bytes());
            }
            RegOp::CmpBrLtSZ { a, b, target } => {
                if as_i32(r!(*a)) >= as_i32(r!(*b)) {
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::CmpBrLtSNZ { a, b, target } => {
                if as_i32(r!(*a)) < as_i32(r!(*b)) {
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::BinopStore {
                op,
                a,
                b,
                addr,
                kind,
                offset,
            } => {
                let v = apply_binop(*op, r!(*a), r!(*b))?;
                let addr = as_i32(r!(*addr));
                do_store(*kind, mem, addr, *offset, v)?;
            }
            RegOp::CmpBr {
                op,
                a,
                b,
                jump_if,
                target,
            } => {
                let v = apply_binop(*op, r!(*a), r!(*b))?;
                if (as_u32(v) != 0) == *jump_if {
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::CmpBrK {
                op,
                a,
                k,
                jump_if,
                target,
            } => {
                let v = apply_binop(*op, r!(*a), u64::from(*k))?;
                if (as_u32(v) != 0) == *jump_if {
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::ScaleAdd {
                base: b,
                idx,
                k,
                dst,
            } => {
                let idx = as_i32(r!(*idx));
                let bv = as_i32(r!(*b));
                r!(*dst) = from_i32(bv.wrapping_add(idx.wrapping_mul(*k as i32)));
            }
            RegOp::ScaleAddLoad {
                base: b,
                idx,
                k,
                kind,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*idx));
                let addr = as_i32(r!(*b)).wrapping_add(idx.wrapping_mul(*k as i32));
                r!(*dst) = do_load(*kind, mem, addr, *offset)?;
            }
            RegOp::IdxLAdd {
                base: b,
                part,
                z,
                k,
                dst,
            } => {
                let idx = as_i32(r!(*part))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                r!(*dst) = from_i32(as_i32(r!(*b)).wrapping_add(idx));
            }
            RegOp::IdxLAddLoad {
                base: b,
                part,
                z,
                k,
                kind,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*part))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                let addr = as_i32(r!(*b)).wrapping_add(idx);
                r!(*dst) = do_load(*kind, mem, addr, *offset)?;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::exec::{EngineConfig, ExecMode, Instance, NoHost};
    use crate::instr::Instr as I;
    use crate::profile::ProfileMode;
    use crate::types::BlockType;

    /// The register-engine A/B matrix: fused/unfused × elision on/off ×
    /// counting off/on, over the production configuration.
    pub(crate) fn engine_matrix() -> Vec<(String, EngineConfig)> {
        let mut out = Vec::new();
        for fuse in [true, false] {
            for elide in [true, false] {
                for profile in [ProfileMode::Off, ProfileMode::Count] {
                    let cfg = EngineConfig {
                        fuse,
                        elide,
                        profile,
                        ..EngineConfig::default()
                    };
                    out.push((format!("{cfg:?}"), cfg));
                }
            }
        }
        out
    }

    /// Runs an export on the oracle and on the register engine in every
    /// [`engine_matrix`] configuration; all must agree on results AND
    /// traps, and the counting runs on instret too. Register instances
    /// must not silently fall back to the interpreter.
    fn run_matrix(
        bytes: &[u8],
        name: &str,
        args: &[Value],
    ) -> Vec<(String, Result<Vec<Value>, Trap>)> {
        let module = crate::load(bytes).unwrap();
        let counting = EngineConfig {
            profile: ProfileMode::Count,
            ..EngineConfig::default()
        };
        let mut interp =
            Instance::instantiate_with(&module, ExecMode::Interpreted, counting, &mut NoHost)
                .unwrap();
        let mut out = vec![("oracle".to_string(), interp.invoke(&mut NoHost, name, args))];
        let instret = interp.profile().expect("counting oracle").instret;
        for (label, cfg) in engine_matrix() {
            let mut inst =
                Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost).unwrap();
            assert!(
                inst.reg_stats().is_some(),
                "{label}: fell back to the interpreter"
            );
            let outcome = inst.invoke(&mut NoHost, name, args);
            if let Some(p) = inst.profile() {
                assert_eq!(p.instret, instret, "{label}: instret diverges from oracle");
            }
            out.push((label, outcome));
        }
        out
    }

    /// [`run_matrix`] with the parity assertion; returns the outcome every
    /// configuration agreed on.
    pub(crate) fn agreed_outcome(
        bytes: &[u8],
        name: &str,
        args: &[Value],
        ctx: &str,
    ) -> Result<Vec<Value>, Trap> {
        let mut outcomes = run_matrix(bytes, name, args);
        let (_, oracle) = outcomes.swap_remove(0);
        for (label, outcome) in &outcomes {
            assert_eq!(
                &oracle, outcome,
                "{ctx}: {label} engine diverges from oracle"
            );
        }
        oracle
    }

    pub(crate) fn assert_matrix_agrees(bytes: &[u8], name: &str, args: &[Value], ctx: &str) {
        let _ = agreed_outcome(bytes, name, args, ctx);
    }

    #[test]
    fn reg_op_size_does_not_regress() {
        // The whole code array is walked on every dispatch; the ceiling is
        // the same 24 bytes a flat op takes (set by `BrTable`'s fat
        // `Box<[RegBrEntry]>`).
        assert!(std::mem::size_of::<RegOp>() <= 24);
    }

    #[test]
    fn forwarded_local_is_flushed_before_overwrite() {
        // `local.get 0` forwards x; the fused `x = x + 1` then overwrites
        // the local, so the pending operand must be copied out first:
        // result is x_old + (x_old + 1), not (x_old+1)*2.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(0),
                I::LocalGet(0),
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let out = agreed_outcome(&bytes, "f", &[Value::I32(10)], "set hazard").unwrap();
        assert_eq!(out, vec![Value::I32(21)]);
    }

    #[test]
    fn forwarded_local_survives_tee() {
        // `local.tee 0` rewrites local 0 while an earlier `local.get 0`
        // is still pending: (x + y) with local0 becoming y, then + local0.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::LocalGet(1),
                I::LocalTee(0),
                I::I32Add,
                I::LocalGet(0),
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let out =
            agreed_outcome(&bytes, "f", &[Value::I32(7), Value::I32(5)], "tee hazard").unwrap();
        assert_eq!(out, vec![Value::I32(17)]); // (7 + 5) + 5
    }

    #[test]
    fn conditional_branch_with_value_transfer() {
        // A `br_if` that must move its kept value below live fall-through
        // operands lowers to `BrIfMoves`: the copy happens only when the
        // branch is taken.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::I32Const(100),
                I::Block(BlockType::Value(ValType::I32)),
                I::I32Const(5),
                I::I32Const(42),
                I::LocalGet(0),
                I::BrIf(0),
                I::I32Add,
                I::End,
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        for (arg, want) in [(1, 142), (0, 147)] {
            let out = agreed_outcome(&bytes, "f", &[Value::I32(arg)], "br_if moves").unwrap();
            assert_eq!(out, vec![Value::I32(want)], "arg {arg}");
        }
    }

    #[test]
    fn calls_place_arguments_at_the_callee_frame_base() {
        // Caller operands below the arguments survive the call; forwarded
        // argument values are flushed into the outgoing frame slots.
        let mut b = ModuleBuilder::new();
        let bin = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let callee = b.add_func(
            bin,
            &[],
            vec![I::LocalGet(0), I::LocalGet(1), I::I32Sub, I::End],
        );
        let f = b.add_func(
            bin,
            &[],
            vec![
                I::I32Const(1000),
                I::LocalGet(0),
                I::LocalGet(1),
                I::Call(callee),
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let out = agreed_outcome(&bytes, "f", &[Value::I32(30), Value::I32(12)], "call").unwrap();
        assert_eq!(out, vec![Value::I32(1018)]);
    }

    #[test]
    fn recursion_reuses_stale_frames_with_zeroed_locals() {
        // A recursive countdown whose body relies on a zero-initialised
        // declared local: returning from a deep call leaves stale slots in
        // the shared frame vec, which the next call must re-zero.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32], // declared local, must read as 0 every call
            vec![
                I::LocalGet(0),
                I::If(BlockType::Value(ValType::I32)),
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Sub,
                I::Call(0),
                I::LocalGet(1), // always 0
                I::I32Add,
                I::LocalGet(0),
                I::I32Add,
                I::Else,
                I::I32Const(0),
                I::End,
                I::End,
            ],
        );
        b.export_func("sum", f);
        let bytes = b.build();
        let out = agreed_outcome(&bytes, "sum", &[Value::I32(10)], "recursion").unwrap();
        assert_eq!(out, vec![Value::I32(55)]);
    }

    #[test]
    fn reg_stats_report_the_pass_live() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                I::LocalGet(0),
                I::LocalSet(1), // forwarded get -> Move
                I::LocalGet(1),
                I::I32Const(3),
                I::I32Mul,
                I::End,
            ],
        );
        b.export_func("f", f);
        let module = crate::load(&b.build()).unwrap();
        let production = EngineConfig::default();
        let inst =
            Instance::instantiate_with(&module, ExecMode::Aot, production, &mut NoHost).unwrap();
        let stats = inst.reg_stats().expect("register pass ran");
        assert!(stats.funcs > 0, "{stats:?}");
        assert!(stats.frame_slots > 0, "{stats:?}");
        assert!(stats.moves_inserted > 0, "{stats:?}");
        assert!(stats.stack_ops_eliminated > 0, "{stats:?}");
        // Without the pass the flat IR is still lowered, but the instance
        // reports no register program and no fusion (and runs on the
        // oracle).
        let no_reg = EngineConfig {
            reg: false,
            ..production
        };
        let mut oracle_run =
            Instance::instantiate_with(&module, ExecMode::Aot, no_reg, &mut NoHost).unwrap();
        assert!(oracle_run.reg_stats().is_none());
        assert_eq!(inst.fusion_stats().map(|s| s.binop_k), Some(1));
        assert_eq!(oracle_run.fusion_stats(), Some(FusionStats::default()));
        assert_eq!(
            oracle_run.invoke(&mut NoHost, "f", &[Value::I32(5)]),
            Ok(vec![Value::I32(15)])
        );
    }

    /// A single `() -> ()` function with `code` as its body, handed to the
    /// engine without validation.
    pub(crate) fn unvalidated(code: Vec<I>) -> Module {
        Module {
            types: vec![FuncType {
                params: vec![],
                results: vec![],
            }],
            funcs: vec![crate::module::FuncBody {
                type_idx: 0,
                locals: vec![],
                code,
            }],
            ..Module::default()
        }
    }

    #[test]
    fn lowering_defect_fails_instantiation_instead_of_falling_back() {
        // A local index past the frame skips validation. The register pass
        // must report it: demoting the module to the interpreter would
        // hide the defect behind a slower engine that nothing reports.
        let module = unvalidated(vec![I::LocalGet(9), I::Drop, I::End]);
        let err = Instance::instantiate_with(
            &module,
            ExecMode::Aot,
            EngineConfig::default(),
            &mut NoHost,
        )
        .unwrap_err();
        match err {
            Trap::Instantiation(msg) => {
                assert!(msg.contains("local index out of range"), "{msg}");
            }
            other => panic!("expected Instantiation, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_runs_on_the_oracle_with_full_parity() {
        // 50 000 locals under a 16 000-deep operand stack: a valid module
        // whose frame cannot be addressed by u16 slots. It must load in
        // Aot, carry no register program, and match the interpreter on
        // result, trap text and instret. The compile gives up the register
        // program at `f`, and with it what the pass counted in the body
        // before: the module comes out as a `reg = false` compile would.
        const DEPTH: usize = 16_000;
        let n_locals = crate::decode::MAX_FUNC_LOCALS - 1;
        let mut code = vec![I::I32Const(7), I::LocalSet(n_locals as u32)];
        code.extend(std::iter::repeat_n(I::I32Const(1), DEPTH));
        code.extend(std::iter::repeat_n(I::I32Add, DEPTH - 1));
        code.extend([
            I::LocalGet(n_locals as u32),
            I::I32Add,
            I::LocalGet(0),
            I::I32DivS,
            I::End,
        ]);
        let double = vec![I::LocalGet(0), I::I32Const(2), I::I32Mul, I::End];
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        b.add_func(ty, &[], double.clone());
        let f = b.add_func(ty, &vec![ValType::I32; n_locals], code);
        b.add_func(ty, &[], double);
        b.export_func("f", f);
        let module = crate::load(&b.build()).expect("oversized-frame module validates");

        let cfg = EngineConfig {
            verify: true,
            profile: ProfileMode::Count,
            ..EngineConfig::default()
        };
        let mut aot = Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost).unwrap();
        assert_eq!(aot.mode(), ExecMode::Aot);
        assert!(aot.reg_stats().is_none(), "frame cannot fit u16 slots");
        let no_reg = EngineConfig { reg: false, ..cfg };
        let never_tried =
            Instance::instantiate_with(&module, ExecMode::Aot, no_reg, &mut NoHost).unwrap();
        assert_eq!(aot.fusion_stats(), Some(FusionStats::default()));
        assert_eq!(aot.fusion_stats(), never_tried.fusion_stats());
        assert_eq!(aot.range_stats(), never_tried.range_stats());
        // Nothing executes but the tree oracle, so there is nothing to
        // verify, at instantiation or on demand.
        let verified = aot.verify_ir().expect("compiled").expect("verifies");
        assert_eq!(verified, crate::VerifyStats::default());
        assert_eq!(aot.verify_stats(), Some(verified));
        let mut interp =
            Instance::instantiate_with(&module, ExecMode::Interpreted, cfg, &mut NoHost).unwrap();
        for (arg, want) in [(1, Some(DEPTH as i32 + 7)), (-3, Some(-5335)), (0, None)] {
            let got = aot.invoke(&mut NoHost, "f", &[Value::I32(arg)]);
            let reference = interp.invoke(&mut NoHost, "f", &[Value::I32(arg)]);
            assert_eq!(
                got.as_ref().map_err(ToString::to_string),
                reference.as_ref().map_err(ToString::to_string),
                "f({arg})"
            );
            assert_eq!(got.ok(), want.map(|v| vec![Value::I32(v)]), "f({arg})");
            assert_eq!(
                aot.profile().expect("counting").instret,
                interp.profile().expect("counting").instret,
                "f({arg}) instret"
            );
        }
        assert_eq!(aot.profile().expect("counting").traps, 1);
    }

    /// Compiles `bytes` to register code as lowering leaves it (no
    /// elision rewrite), fusion rules on or off.
    fn compiled(bytes: &[u8], fuse: bool) -> CompiledModule {
        let module = crate::load(bytes).unwrap();
        CompiledModule::compile_full(&module, fuse, true, false).unwrap()
    }

    /// The register code of local function `idx`.
    fn code_of(cm: &CompiledModule, idx: usize) -> &[RegOp] {
        &cm.reg.as_ref().unwrap().funcs[idx].as_ref().unwrap().code
    }

    /// The variant name of every op, for shape assertions.
    fn names(code: &[RegOp]) -> Vec<String> {
        let name = |op| {
            let text = format!("{op:?}");
            text.split([' ', '{'])
                .next()
                .unwrap_or_default()
                .to_string()
        };
        code.iter().map(name).collect()
    }

    #[test]
    fn a_frame_is_the_slots_it_writes() {
        // Both operands are read from their locals in place; only the sum
        // takes an operand slot.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![I::LocalGet(0), I::LocalGet(1), I::I32Add, I::End],
        );
        b.export_func("f", f);
        let bytes = b.build();
        for fuse in [true, false] {
            let cm = compiled(&bytes, fuse);
            let func = cm.reg.as_ref().unwrap().funcs[0].as_ref().unwrap();
            assert_eq!(func.frame_size, func.n_locals + 1, "fuse = {fuse}");
        }
        let args = [Value::I32(40), Value::I32(2)];
        let out = agreed_outcome(&bytes, "f", &args, "frame").unwrap();
        assert_eq!(out, vec![Value::I32(42)]);
    }

    /// What consumes the binop's result in [`fusion_rule_table`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Sink {
        Push,
        Set,
        Store,
        BrZero,
        BrNonZero,
    }

    /// Where an operand of the binop comes from in [`fusion_rule_table`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Operand {
        Local,
        Stack,
        Const(i32),
    }

    /// Pushes param `local` as `from` says: forwarded, through a
    /// value-preserving round trip that leaves it in an operand slot, or
    /// replaced by a constant. Returns the register ops that costs.
    fn operand(code: &mut Vec<I>, from: Operand, local: u32) -> usize {
        match from {
            Operand::Local => code.push(I::LocalGet(local)),
            Operand::Stack => {
                code.extend([I::LocalGet(local), I::I64ExtendI32S, I::I32WrapI64]);
                return 2;
            }
            Operand::Const(k) => code.push(I::I32Const(k)),
        }
        0
    }

    #[test]
    fn fusion_rule_table() {
        // Every sink x left source x right source, for a plain and two
        // trap-capable operators: one register op where a rule applies,
        // the generic pair where none does (constant + store, trap-capable
        // operator + store or branch), and full parity with the oracle —
        // results, traps and instret, `INT_MIN / -1`, `/ 0` and `% 0`
        // included, where a set sink must retire its `local.set` only when
        // the division succeeds.
        let sinks = [
            Sink::Push,
            Sink::Set,
            Sink::Store,
            Sink::BrZero,
            Sink::BrNonZero,
        ];
        let rights = [
            Operand::Local,
            Operand::Stack,
            Operand::Const(3),
            Operand::Const(-1),
            Operand::Const(0),
        ];
        for (instr, traps) in [(I::I32Sub, false), (I::I32DivS, true), (I::I32RemS, true)] {
            for sink in sinks {
                for left in [Operand::Local, Operand::Stack] {
                    for right in rights {
                        let ctx = format!("{instr:?} {left:?} {right:?} -> {sink:?}");
                        let constant = matches!(right, Operand::Const(_));
                        let mut code = Vec::new();
                        let mut want = Vec::new();
                        match sink {
                            Sink::Store => {
                                code.push(I::I32Const(16));
                                want.push("Const");
                            }
                            Sink::BrNonZero => code.push(I::Block(BlockType::Empty)),
                            _ => {}
                        }
                        let spilled = operand(&mut code, left, 0) + operand(&mut code, right, 1);
                        want.extend(std::iter::repeat_n("Unop", spilled));
                        code.push(instr.clone());
                        want.push(match (&instr, constant) {
                            (_, true) => "BinopK",
                            (I::I32Sub, false) => "SubI32",
                            _ => "Binop",
                        });
                        // `(joined, second)`: the op a rule makes of the
                        // binop and its sink, and the sink's own op
                        // where no rule applies. A set sink changes
                        // only the binop's destination.
                        let br = if constant { "CmpBrK" } else { "CmpBr" };
                        let (tail, sink_ops): (&[&str], _) = match sink {
                            Sink::Push => (&["Return"], None),
                            Sink::Set => {
                                code.extend([I::LocalSet(2), I::LocalGet(2)]);
                                (&["Move", "Return"], None)
                            }
                            Sink::Store => {
                                let m = crate::instr::MemArg::new(2, 0);
                                code.extend([I::I32Store(m), I::I32Const(16), I::I32Load(m)]);
                                (
                                    &["Const", "LoadI32R", "Return"],
                                    Some(("BinopStore", "StoreI32R")),
                                )
                            }
                            Sink::BrZero => {
                                code.extend([
                                    I::If(BlockType::Value(ValType::I32)),
                                    I::I32Const(1),
                                    I::Else,
                                    I::I32Const(2),
                                    I::End,
                                ]);
                                (&["Const", "Jump", "Const", "Return"], Some((br, "BrIf")))
                            }
                            Sink::BrNonZero => {
                                code.extend([
                                    I::BrIf(0),
                                    I::I32Const(1),
                                    I::Return,
                                    I::End,
                                    I::I32Const(2),
                                ]);
                                (&["Const", "Return", "Const", "Return"], Some((br, "BrIf")))
                            }
                        };
                        if let Some((joined, second)) = sink_ops {
                            if traps || (constant && sink == Sink::Store) {
                                want.push(second);
                            } else {
                                *want.last_mut().unwrap() = joined;
                            }
                        }
                        want.extend(tail);
                        code.push(I::End);

                        let mut b = ModuleBuilder::new();
                        b.add_memory(1, None);
                        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
                        let f = b.add_func(ty, &[ValType::I32], code);
                        b.export_func("f", f);
                        let bytes = b.build();
                        let cm = compiled(&bytes, true);
                        let code = code_of(&cm, 0);
                        assert_eq!(names(code), want, "{ctx}: {code:?}");
                        for op in code {
                            if let RegOp::CmpBr { jump_if, .. } | RegOp::CmpBrK { jump_if, .. } = op
                            {
                                assert_eq!(*jump_if, sink == Sink::BrNonZero, "{ctx}");
                            }
                            if let RegOp::SubI32 { dst, .. }
                            | RegOp::Binop { dst, .. }
                            | RegOp::BinopK { dst, .. } = op
                            {
                                assert_eq!(*dst == 2, sink == Sink::Set, "{ctx}: {op:?}");
                            }
                        }
                        for (x, y) in [(7, 3), (i32::MIN, -1), (-9, 0), (0, 5)] {
                            let args = [Value::I32(x), Value::I32(y)];
                            assert_matrix_agrees(&bytes, "f", &args, &format!("{ctx} f({x},{y})"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_constant_compares_then_branches() {
        // `CmpBrK` holds a `u32`: a constant past it still goes inline
        // into the comparison, and the branch stays its own op.
        let big = 1i64 << 40;
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I64], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::I64Const(big),
                I::I64Eq,
                I::If(BlockType::Value(ValType::I32)),
                I::I32Const(1),
                I::Else,
                I::I32Const(2),
                I::End,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let cm = compiled(&bytes, true);
        assert_eq!(names(code_of(&cm, 0))[..2], ["BinopK", "BrIf"]);
        assert_eq!((cm.fusion.binop_k, cm.fusion.cmp_br), (1, 0));
        for (arg, want) in [(big, 1), (big + 1, 2), (0, 2)] {
            let out = agreed_outcome(&bytes, "f", &[Value::I64(arg)], "wide k").unwrap();
            assert_eq!(out, vec![Value::I32(want)], "f({arg})");
        }
    }

    /// `x + y` sunk into local 2 — except that the early exit of the block
    /// lands on the `local.set`, between the binop and its sink.
    fn target_between_binop_and_set() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                I::Block(BlockType::Value(ValType::I32)),
                I::LocalGet(0),
                I::LocalGet(1),
                I::BrIf(0), // y != 0: leave with x alone
                I::LocalGet(1),
                I::I32Add,
                I::End,
                I::LocalSet(2),
                I::LocalGet(2),
                I::End,
            ],
        );
        b.export_func("f", f);
        b.build()
    }

    // Were `Ahead::at` to ignore the target flags, the bodies of the next
    // two tests would fuse across the landing site and the branch into it
    // would have no register op to go to.

    #[test]
    fn set_sink_stops_at_a_jump_target() {
        let bytes = target_between_binop_and_set();
        let cm = compiled(&bytes, true);
        assert_eq!(cm.fusion.binop_set, 0, "{:?}", code_of(&cm, 0));
        for (x, y, want) in [(5, 0, 5), (5, 9, 5), (-1, 0, -1)] {
            let args = [Value::I32(x), Value::I32(y)];
            let out = agreed_outcome(&bytes, "f", &args, "target at the set").unwrap();
            assert_eq!(out, vec![Value::I32(want)], "f({x},{y})");
        }
    }

    #[test]
    fn address_tail_stops_at_a_jump_target() {
        // `base + idx*k` where `k` arrives over two paths: the block's end
        // (the early exit's target) sits between `const 4` and `i32.mul`.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::LocalGet(1),
                I::Block(BlockType::Value(ValType::I32)),
                I::I32Const(9),
                I::LocalGet(1),
                I::BrIf(0), // idx != 0: scale by 9
                I::Drop,
                I::I32Const(4),
                I::End,
                I::I32Mul,
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let cm = compiled(&bytes, true);
        assert_eq!(
            (cm.fusion.idx_addr, cm.fusion.binop_k),
            (0, 0),
            "{:?}",
            code_of(&cm, 0)
        );
        for (base, idx, want) in [(100, 0, 100), (100, 2, 118), (-4, 1, 5)] {
            let args = [Value::I32(base), Value::I32(idx)];
            let out = agreed_outcome(&bytes, "f", &args, "target inside the tail").unwrap();
            assert_eq!(out, vec![Value::I32(want)], "f({base},{idx})");
        }
    }

    #[test]
    fn branch_into_an_absorbed_token_fails_instantiation() {
        // The flags and the jumps come from the same pass, so they cannot
        // disagree; if they ever did, the jump remap must refuse rather
        // than send the branch to a neighbouring op. Drop the flag on the
        // `local.set` the early exit lands on and the binop absorbs it.
        let module = crate::load(&target_between_binop_and_set()).unwrap();
        let body = &module.funcs[0];
        let mut scratch = CompileScratch::default();
        crate::flat::lower(&module, body, &mut scratch).unwrap();
        let set = scratch
            .ops
            .iter()
            .position(|op| matches!(op, FlatOp::LocalSet(2)))
            .unwrap();
        assert!(scratch.is_target[set]);
        scratch.is_target[set] = false;
        let (mut stats, mut fusion) = (RegStats::default(), FusionStats::default());
        let err = lower_func(&module, body, &mut scratch, true, &mut stats, &mut fusion);
        match err {
            Err(LowerError::Malformed(Trap::Instantiation(msg))) => {
                assert!(msg.contains("middle of a fused window"), "{msg}");
            }
            other => panic!("expected a lowering defect, got {other:?}"),
        }
    }
}
