//! The register engine behind [`ExecMode::Aot`]: structured Wasm lowered
//! at load time, in one walk per body, to code whose hot dispatch loop
//! never pushes or pops an operand stack.
//!
//! A structured body still *describes* a runtime operand stack:
//! `local.get` pushes a copy, every operator pops its inputs and pushes its
//! result. Validation makes all of that motion statically known — at any
//! program point the operand-stack *height* is a compile-time constant, so
//! the value "at height `h`" can live in the fixed frame slot
//! `n_locals + h` instead (past the cache slots, when a function has any:
//! see global hoisting and code motion below).
//!
//! [`lower_func`] exploits exactly that: an **abstract-stack simulation**
//! walks each body's instructions once at load time and emits every op
//! with explicit source/destination frame-slot indices, over the operator
//! vocabulary of [`crate::flat`] ([`UnOpKind`], [`BinOpKind`],
//! [`LoadKind`], [`StoreKind`]). Locals and intermediates all live in one
//! flat `u64` frame; a [`RegOp`] reads its operands from slots and writes
//! its result to a slot, and the dispatch loop maintains nothing but a
//! program counter and a frame base.
//!
//! The same walk resolves control flow on a control stack of its own.
//! `block`, `loop` and `end` emit no op, an `if` is a conditional jump to
//! its else/end and an `else` the then-branch's jump to the end. A loop
//! head is a branch target from the moment the walk reaches its `loop`; a
//! forward branch goes on its frame's patch list of register-op indices
//! and is pointed at the frame's else/end once the walk gets there, after
//! the fall-through flush. Statically unreachable code — the rest of a
//! frame after `br`, `br_table`, `return` or `unreachable` — emits nothing.
//!
//! Five further rewrites fall out of the simulation:
//!
//! * **Copy forwarding** — a `local.get` emits *no code at all*: the
//!   abstract stack records that this operand lives in the local's slot,
//!   and the consumer reads it from there directly. A later write to that
//!   local while the forwarded value is still pending inserts a `Move` to
//!   the value's canonical slot first (the classic interpreter-regalloc
//!   hazard), which the simulation detects exactly. Forwarding is why no
//!   op needs to say where an operand came from: a local, a constant's
//!   slot and an intermediate are all just slots.
//! * **Global hoisting** — a loop whose body makes no `call` and no
//!   `call_indirect` sees a global change only through its own
//!   `global.set`s: a Wasm global is not in linear memory, so no store or
//!   bulk-memory op reaches it, and only a callee (local, imported or
//!   indirect) could set it behind the loop's back. So each global such a
//!   loop reads and never sets is loop-invariant, and is promoted to a
//!   register (Lo et al., *Register promotion by sparse partial redundancy
//!   elimination of loads and stores*, PLDI 1998): a pre-pass over the
//!   body picks, per read, the outermost enclosing loop with that
//!   property; at that loop the walk flushes forwarded operands (every
//!   loop entry does) and emits one `GlobalGet` of the global into its
//!   cache slot, and inside the loop every `global.get` of it is forwarded
//!   from the slot exactly like a `local.get` — no op, its retirement
//!   weight riding its consumer, so instret stays exact. The cache ends at
//!   the loop's `end`; a value still forwarded from the slot after it is
//!   flushed by the next loop entry before any load can overwrite the
//!   slot. Cache slots, one per hoisted global of the function, sit
//!   between the locals and the operand slots: [`RegFunc::n_locals`] stays
//!   the Wasm local count, so the verifier treats them as temporaries
//!   that must be written before they are read. Hoisting is forwarding,
//!   not a fusion rule, so [`EngineConfig::fuse`] off leaves it on.
//! * **Code motion** — loop-invariant code motion (Morel and Renvoise,
//!   *Global optimization by suppression of partial redundancies*, CACM
//!   1979) at the walk's emission, after fusion has picked an op's shape.
//!   An op that cannot trap, reads no memory and pushes its result
//!   (`Const`, `Unop` and `Binop`/`BinopK` but for `div`, `rem` and the
//!   float-to-int truncations, `AddI32K`, the f64 arithmetic, `ScaleAdd`,
//!   `IdxLAdd`, `MulAddI32`) whose operands are all invariant in the
//!   innermost open loop is not emitted there: it goes to a list in front
//!   of the outermost loop in which they all are, and writes a cache slot
//!   there, one per distinct op and loop. Each abstract-stack entry knows
//!   the outermost open loop it is invariant in: a constant is invariant
//!   in every loop, a global cache in its caching loop and those inside
//!   it, a moved op's result in its loop and those inside it, and a local
//!   in every loop that has no `local.set` or `local.tee` of it anywhere
//!   inside, nested loops included (the pre-pass that plans the global
//!   caches records each loop's extent and every local write inside a
//!   loop). A loop that writes a local is inside every loop around it
//!   that does, so those loops are always the innermost ones. The
//!   result is forwarded from its slot like a hoisted global, and the
//!   moved op's instructions leave their weight pending for the next op
//!   the loop runs, as a forwarded `local.get` does, so instret and back
//!   edges stay exact, also when a later op traps. An op inside an `if`
//!   arm does not leave the arm (a loop inside the arm can still move
//!   it in front of itself), so a rarely taken arm costs no op per entry
//!   of the loop. The lists are kept out of the code while the walk runs,
//!   so a loop's first op is still its head test; at the end of the body
//!   each list goes in front of its loop's head, after the loop's global
//!   loads, a jump to a loop's head (one from inside the loop) lands past
//!   its list and any other jump to that place in front of it. The cache
//!   slots sit below the operand slots, which a callee's frame starts
//!   at, so a loop that calls keeps them. Code motion runs only with
//!   [`EngineConfig::fuse`], so the unfused code is the differential
//!   suites' unmoved reference; a body whose frame cannot hold its cache
//!   slots is lowered again without it.
//! * **Fusion** — with [`EngineConfig::fuse`] on, an op looks ahead over
//!   the instructions that follow it and emits one superinstruction for
//!   the group, under one rule per shape. Each rule is one row of
//!   [`RULES`], and this table lists them in its order, which is their
//!   precedence: where two rules could take one instruction, the earlier
//!   row does. A `const k` in front of an `i32.mul` leaves the multiply to
//!   its address tail or its row; `const k; binop; local.set` is
//!   `binop_set`, not `binop_k`; `const k; binop` keeps the binop from its
//!   store, load and branch follows; and a binop takes an `i32.eqz`
//!   chain's jump before `eqz_br` can.
//!
//!   | rule | at | instructions joined | register ops |
//!   |---|---|---|---|
//!   | `idx_load` | `const k`, `i32.mul` | the 1-D tail `i32.mul; i32.add; load` (`base + idx*k`), or `local.get z; i32.add; const k; i32.mul; i32.add; 64-bit load` (2-D, row multiply included) | `ScaleAddLoadI32`, `ScaleAddLoadF64`, `IdxLAddLoadF64` |
//!   | `idx_addr` | `const k`, `i32.mul` | the same tails without a joined load | `ScaleAdd`, `IdxLAdd` |
//!   | `mul_add` | `i32.mul` | `local.get z; i32.add [; local.set]` (row index `y*n + z`, no 2-D tail after it) | `MulAddI32` |
//!   | `binop_set` | `binop`, `const k` | `local.set` after the binop (`k` its right operand) | `Binop`, `AddF64`, `SubF64`, `MulF64`, `BinopK`, `AddI32K` |
//!   | `binop_k` | `const k` | the adjacent `binop` (`k` its right operand) | `BinopK`, `AddI32K` |
//!   | `binop_store` | `f64.add` | `f64.store` | `AddStoreF64` |
//!   | `add_load` | `i32.add` | a full-width load (`k = 1`) | `ScaleAddLoadI32`, `ScaleAddLoadF64` |
//!   | `cmp_br` | `binop` | `i32.eqzⁿ; if` or `i32.eqzⁿ; br_if` | `CmpBr` |
//!   | `eqz_br` | `i32.eqz` | `i32.eqzⁿ; if` or `i32.eqzⁿ; br_if` (no binop in front) | `BrIf` with the polarity folded |
//!   | `latch` | `br` | the loop head's compare-and-exit, and an `i += k` step in front of the `br` when the head tests `i < n` | `IncBrLtS`, `CmpBr` |
//!
//!   The `latch` rule is loop inversion, as LLVM's LoopRotate does it, at a
//!   `br` that moves no values back to a loop whose first op is its head
//!   test: a `CmpBr` of `cmp_br` (never a `div`/`rem`), whose `br_if`
//!   leaves the loop. A head that compares with a value computed from
//!   invariants (`i < n - 1`) still has its test first: code motion moved
//!   the computation in front of the loop, and the test reads its cache
//!   slot. The `br` lowers to a copy of that test
//!   with its polarity inverted, jumping to the op after the head, then a
//!   `Jump` to the test's exit for the fall-through. When the head tests
//!   `i < n` and the op just before the `br` is the step `AddI32K { a: i,
//!   k, dst: i }`, with no branch destination between them, the step joins
//!   too: `IncBrLtS` is Lua 5.0's `FORLOOP`, and a counted loop pays one
//!   dispatch per iteration to step, go back and test, where it paid three.
//!   The latch retires the step's, the `br`'s and the head test's weights,
//!   the exit jump none; it counts one back edge whether it jumps or not,
//!   as the `br` it stands for does. A joined step counts under
//!   `binop_set` and `latch` both.
//!
//!   The row rules read both factors of the multiply from slots, so a
//!   `const k` in front of such an `i32.mul` stays a `Const` rather than
//!   becoming the multiply's inline operand; and the row index joins only
//!   a push or a `local.set`, because the `i32.add`'s own rules already
//!   join its branch and load follows in the same number of ops. A 2-D
//!   tail whose row is not a multiply joins no rule: its `i32.add` is an
//!   op, and the 1-D tail after it another.
//!
//!   A load joins a rule only at full width (`i32`/`f32` → `*I32`,
//!   `i64`/`f64` → `*F64`); the narrow, extending loads stay their own op.
//!   Each specialised or fused op a rule emits carries at least 1 % of the
//!   dispatches of PolyBench, the speedtest guest or Genann (the ledger in
//!   `reg/ledger.rs` derives each op's duty from [`RULES`], and fails a
//!   variant that no row, specialisation or generic form accounts for,
//!   and a table here that is not [`RULES`] row for row); every other
//!   shape lowers to the generic ops, one per instruction. A `br_if` joins
//!   only when its branch moves no values. A trap-capable binop
//!   (`div`/`rem`) sinks only into a `local.set`, whose retirement is
//!   deferred until the division succeeds. **No rule reads past a
//!   structural instruction** (`block`, `loop`, `else`, `end`; an `if` or
//!   a `br_if` only ends a window, as its jump): every branch destination
//!   starts a register op. [`EngineConfig::fuse`] off switches exactly
//!   these rules off (forwarding stays), for bisection; [`FusionStats`]
//!   counts what each rule joined, one count per row. A new rule is one
//!   row of [`RULES`] and one arm of the window checker's alphabet
//!   (`reg/window.rs`), which then runs every short window of its
//!   instructions on the tree, fused and unfused; the ledger holds what
//!   it emits to its 1 %.
//! * **Stack-polymorphic edges keep explicit fix-ups** — branches that
//!   transfer values (`br`/`br_if` with results, `br_table` arms) become
//!   jumps carrying a static `src → dst × keep` block copy, calls require
//!   their arguments contiguous at the callee's frame base (the simulation
//!   flushes forwarded operands there), and `return` copies results to the
//!   frame base.
//!
//! **Frame limit.** Slot operands are `u16`. A function whose frame
//! (locals, cache slots and operand positions) does not fit fails
//! instantiation with a [`Trap::Instantiation`] naming the function and
//! the limit; the core spec's implementation limits allow an engine to
//! refuse it. [`ExecMode::Aot`] runs register code or nothing; the tree
//! interpreter in [`crate::exec`] runs only under `ExecMode::Interpreted`,
//! as the reference implementation. Every other lowering failure is a
//! defect and fails instantiation too. [`RegStats`] reports what the pass
//! did.
//!
//! **Frame window.** The dispatch loop reaches a frame's slots through
//! `&mut [Slot; 1 << 16]`, the window of the frame stack at the frame's
//! base, re-derived at each call and return: every `u16` slot index is
//! inside it, so a slot access compiles without a bounds check, in safe
//! Rust. The stack stays at least a window past every frame base (a call
//! grows it by the callee's offset only). It is one `Vec` per thread,
//! taken out of a thread-local cell for an invoke and put back after it,
//! so an invoke a host import makes mid-call runs on a stack of its own; a
//! stack per instance would hold 512 KiB for each live one. Slots left by
//! an earlier invoke or a deeper earlier call are never read: the verifier
//! checks, on every `Aot` compile, that each op names slots below its
//! function's frame and reads only slots written on every path to it, and
//! the locals, which Wasm zeroes, are zeroed at entry and at each call.
//!
//! Semantics (every result, every trap, every retired-instruction count)
//! are identical to the tree-walking oracle; the differential suites run
//! both, fused and unfused, counting off and on.
//!
//! [`ExecMode::Aot`]: crate::exec::ExecMode::Aot
//! [`EngineConfig::fuse`]: crate::exec::EngineConfig::fuse

use std::cell::Cell;
use std::collections::HashMap;

use crate::exec::{HostEnv, Memory, Trap, Value, MAX_CALL_DEPTH};
use crate::flat::{
    apply_binop, apply_unop, as_f64, as_i32, as_u32, bad, do_load, do_store, from_f64, from_i32,
    map_simple, slot_from_value, value_from_slot, BinOpKind, CompiledModule, LoadKind, Simple,
    Slot, StoreKind, UnOpKind,
};
use crate::instr::Instr;
use crate::module::{FuncBody, Module};
use crate::profile::{ProfOp, Profiler};
use crate::types::{BlockType, FuncType, ValType};

#[cfg(test)]
mod ledger;
#[cfg(test)]
mod window;

/// Counters from the register-allocation pass over a whole module,
/// reported by [`Instance::reg_stats`](crate::exec::Instance::reg_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegStats {
    /// Functions lowered to register form.
    pub funcs: u64,
    /// Total frame slots allocated (locals, global caches and operand
    /// positions).
    pub frame_slots: u64,
    /// `local.get` ops forwarded into their consumers (no code emitted).
    pub gets_forwarded: u64,
    /// `Move` fix-ups inserted (local writes, forwarding hazards, edges).
    pub moves_inserted: u64,
    /// Runtime operand-stack pushes/pops replaced by static slot addressing.
    pub stack_ops_eliminated: u64,
    /// Loop-invariant ops moved out of the loops they sat in (see *Code
    /// motion* in the module docs); identical ones share one moved op.
    pub hoisted: u64,
}

impl RegStats {
    /// Per-counter `(name, count)` pairs, for coverage assertions and logs.
    #[must_use]
    pub fn counts(&self) -> [(&'static str, u64); 6] {
        [
            ("funcs", self.funcs),
            ("frame_slots", self.frame_slots),
            ("gets_forwarded", self.gets_forwarded),
            ("moves_inserted", self.moves_inserted),
            ("stack_ops_eliminated", self.stack_ops_eliminated),
            ("hoisted", self.hoisted),
        ]
    }

    /// Accumulates another module's counters into this one.
    pub fn merge(&mut self, other: &RegStats) {
        self.funcs += other.funcs;
        self.frame_slots += other.frame_slots;
        self.gets_forwarded += other.gets_forwarded;
        self.moves_inserted += other.moves_inserted;
        self.stack_ops_eliminated += other.stack_ops_eliminated;
        self.hoisted += other.hoisted;
    }
}

/// A fusion rule of [`lower_func`], named by its row of [`RULES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    IdxLoad,
    IdxAddr,
    MulAdd,
    BinopSet,
    BinopK,
    BinopStore,
    AddLoad,
    CmpBr,
    EqzBr,
    Latch,
}

/// What the op-set ledger (`reg/ledger.rs`) holds a rule's ops to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Duty {
    /// Not held to a share, for the reason given.
    Exempt(&'static str),
    /// Each specialised or fused op it emits carries >= 1 % of the
    /// dispatches of at least one suite.
    Pays,
}

/// The fusion rules, one row per [`Rule`] in its declaration order, which
/// is lowering's precedence (the module docs' table lists the same rows):
/// the rule, its name in [`FusionStats`], the [`RegOp`] variants it may
/// emit (space-separated) and its ledger duty.
#[rustfmt::skip]
pub(crate) const RULES: [(Rule, &str, &str, Duty); 10] = [
    (Rule::IdxLoad, "idx_load", "ScaleAddLoadI32 ScaleAddLoadF64 IdxLAddLoadF64", Duty::Pays),
    (Rule::IdxAddr, "idx_addr", "ScaleAdd IdxLAdd", Duty::Pays),
    (Rule::MulAdd, "mul_add", "MulAddI32", Duty::Pays),
    (Rule::BinopSet, "binop_set", "Binop AddF64 SubF64 MulF64 BinopK AddI32K", Duty::Pays),
    (Rule::BinopK, "binop_k", "BinopK AddI32K", Duty::Pays),
    (Rule::BinopStore, "binop_store", "AddStoreF64", Duty::Pays),
    (Rule::AddLoad, "add_load", "ScaleAddLoadI32 ScaleAddLoadF64", Duty::Pays),
    (Rule::CmpBr, "cmp_br", "CmpBr", Duty::Pays),
    (Rule::EqzBr, "eqz_br", "BrIf", Duty::Exempt("folds into the generic BrIf")),
    (Rule::Latch, "latch", "IncBrLtS CmpBr", Duty::Pays),
];

/// Per-rule counts of the superinstructions the register pass formed over
/// a whole module, one per row of [`RULES`], reported by
/// [`Instance::fusion_stats`](crate::exec::Instance::fusion_stats). A rule
/// names what was joined, never where an operand came from: operands
/// always come from the abstract stack. Each emitted superinstruction
/// counts once, under the rule that formed it, except a latch that joined
/// its loop's step: that counts under `binop_set` too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    counts: [u64; RULES.len()],
}

impl FusionStats {
    pub(crate) fn record(&mut self, rule: Rule) {
        self.counts[rule as usize] += 1;
    }

    /// How many superinstructions `rule` formed.
    #[cfg(test)]
    pub(crate) fn of(&self, rule: Rule) -> u64 {
        self.counts[rule as usize]
    }

    /// Total superinstructions emitted across all rules.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-rule `(name, count)` pairs, in [`RULES`] order, for coverage
    /// assertions and logs.
    #[must_use]
    pub fn counts(&self) -> [(&'static str, u64); RULES.len()] {
        std::array::from_fn(|i| (RULES[i].1, self.counts[i]))
    }

    /// Accumulates another module's counts into this one.
    pub fn merge(&mut self, other: &FusionStats) {
        for (n, m) in self.counts.iter_mut().zip(other.counts) {
            *n += m;
        }
    }
}

/// One `br_table` arm in register form: absolute target plus a static
/// `keep`-slot block copy (`src → dst`) for the label's value transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RegBrEntry {
    pub(crate) target: u32,
    pub(crate) src: u16,
    pub(crate) dst: u16,
    pub(crate) keep: u16,
}

/// A register-form opcode: every operand names a frame slot explicitly;
/// no opcode moves an operand-stack pointer.
///
/// Slot indices are frame-relative (`0..n_locals` are params + locals, then
/// come the global cache slots, the rest are operand positions); `dst` is
/// always written last, after all reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    // time for the operators and access widths that dominate the guest
    // suites: they skip the second-level `BinOpKind`/`LoadKind`/`StoreKind`
    // dispatch the generic arms pay. Each one carries at least 1 % of the
    // dispatches of PolyBench, the speedtest guest or Genann at the
    // benchmark's sizes, which the ledger in `reg/ledger.rs` pins.
    // Semantics are bit-identical to the generic forms (same
    // wrapping/IEEE behaviour, same traps — the specialized operators
    // cannot trap, and a memory form traps exactly where its generic one
    // does).
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
    /// [`RegOp::ScaleAdd`] plus the trailing 4-byte load (i32 or f32).
    ScaleAddLoadI32 {
        base: u16,
        idx: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::ScaleAdd`] plus the trailing 8-byte load (i64 or f64).
    ScaleAddLoadF64 {
        base: u16,
        idx: u16,
        k: u32,
        offset: u32,
        dst: u16,
    },
    /// [`RegOp::IdxLAdd`] plus the trailing 8-byte load (i64 or f64).
    IdxLAddLoadF64 {
        base: u16,
        y: u16,
        n: u16,
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

    /// Jumps when `op(frame[a], frame[b])`'s truthiness equals `jump_if`.
    /// A `latch` is a loop head's test copied to a `br` back to that loop
    /// (see `latch` in the module docs): it stands for the guest's `br`, so
    /// it counts one back edge whether it jumps or not.
    CmpBr {
        op: BinOpKind,
        a: u16,
        b: u16,
        jump_if: bool,
        latch: bool,
        target: u32,
    },
    /// `frame[i] = frame[i] +ₙ k` (i32 wrapping), then jumps when
    /// `frame[i] <ₛ frame[n]`, `n` read after the write — a counted loop's
    /// step, back edge and head test in one op (Lua 5.0's `FORLOOP`).
    /// Counts one back edge whether it jumps or not.
    IncBrLtS {
        i: u16,
        n: u16,
        k: u32,
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
    /// `frame[dst] = frame[base] + (frame[y]*frame[n] + frame[z])*k` (the
    /// 2-D row-column address, row multiply included; i32 wrapping).
    IdxLAdd {
        base: u16,
        y: u16,
        n: u16,
        z: u16,
        k: u32,
        dst: u16,
    },
    /// `frame[dst] = frame[y]*frame[n] + frame[z]` (i32 wrapping) — the
    /// row index `y*n + z` where no 2-D address tail follows it, as in the
    /// inner row of a 3-D `(r*n + q)*n + s`.
    MulAddI32 {
        y: u16,
        n: u16,
        z: u16,
        dst: u16,
    },
}

impl RegOp {
    /// The target of a jump (of its arm `slot`, for a `br_table`).
    fn target_mut(&mut self, slot: usize) -> Option<&mut u32> {
        match self {
            RegOp::Jump { target }
            | RegOp::BrIf { target, .. }
            | RegOp::BrMoves { target, .. }
            | RegOp::BrIfMoves { target, .. }
            | RegOp::CmpBr { target, .. }
            | RegOp::IncBrLtS { target, .. } => Some(target),
            RegOp::BrTable { entries, .. } => entries.get_mut(slot).map(|e| &mut e.target),
            _ => None,
        }
    }

    /// How many jump targets the op has ([`RegOp::target_mut`]'s arms).
    fn arms(&self) -> usize {
        match self {
            RegOp::BrTable { entries, .. } => entries.len(),
            _ => 1,
        }
    }

    /// Calls `f` on every frame-slot operand (not on a transfer's `keep`).
    fn slots_mut(&mut self, mut f: impl FnMut(&mut u16)) {
        use RegOp as R;
        match self {
            R::Unreachable | R::Jump { .. } => {}
            R::BrIf { cond: a, .. }
            | R::Return { src: a }
            | R::CallLocal { base: a, .. }
            | R::CallImport { base: a, .. }
            | R::Const { dst: a, .. }
            | R::GlobalGet { dst: a, .. }
            | R::GlobalSet { src: a, .. }
            | R::MemorySize { dst: a }
            | R::MemoryCopy { args: a }
            | R::MemoryFill { args: a } => f(a),
            R::BrMoves { src: a, dst: b, .. }
            | R::CallIndirect {
                idx: a, base: b, ..
            }
            | R::Move { src: a, dst: b }
            | R::Load {
                addr: a, dst: b, ..
            }
            | R::Store {
                addr: a, val: b, ..
            }
            | R::MemoryGrow { src: a, dst: b }
            | R::Unop { src: a, dst: b, .. }
            | R::BinopK { a, dst: b, .. }
            | R::AddI32K { a, dst: b, .. }
            | R::StoreI32R {
                addr: a, val: b, ..
            }
            | R::StoreF64R {
                addr: a, val: b, ..
            }
            | R::CmpBr { a, b, .. }
            | R::IncBrLtS { i: a, n: b, .. } => {
                f(a);
                f(b);
            }
            R::BrIfMoves {
                cond: a,
                src: b,
                dst: c,
                ..
            }
            | R::Binop { a, b, dst: c, .. }
            | R::AddF64 { a, b, dst: c }
            | R::SubF64 { a, b, dst: c }
            | R::MulF64 { a, b, dst: c }
            | R::ScaleAddLoadI32 {
                base: a,
                idx: b,
                dst: c,
                ..
            }
            | R::ScaleAddLoadF64 {
                base: a,
                idx: b,
                dst: c,
                ..
            }
            | R::AddStoreF64 { a, b, addr: c, .. }
            | R::ScaleAdd {
                base: a,
                idx: b,
                dst: c,
                ..
            } => {
                f(a);
                f(b);
                f(c);
            }
            R::Select { cond, a, b, dst }
            | R::MulAddI32 {
                y: cond,
                n: a,
                z: b,
                dst,
            } => {
                f(cond);
                f(a);
                f(b);
                f(dst);
            }
            R::IdxLAddLoadF64 {
                base, y, n, z, dst, ..
            }
            | R::IdxLAdd {
                base, y, n, z, dst, ..
            } => {
                f(base);
                f(y);
                f(n);
                f(z);
                f(dst);
            }
            R::BrTable { idx, entries } => {
                f(idx);
                for e in entries.iter_mut() {
                    f(&mut e.src);
                    f(&mut e.dst);
                }
            }
        }
    }
}

/// A function lowered to register form.
#[derive(Debug)]
pub(crate) struct RegFunc {
    pub(crate) n_params: u32,
    /// Params + declared locals (frame slots `0..n_locals`).
    pub(crate) n_locals: u32,
    pub(crate) n_results: u32,
    /// Locals, global cache slots, the maximum operand height and the
    /// moved ops' cache slots: the whole frame.
    pub(crate) frame_size: u32,
    pub(crate) result_types: Box<[ValType]>,
    pub(crate) code: Box<[RegOp]>,
    /// Retirement metadata, 1:1 with `code`: the guest instructions each
    /// register op accounts for when profiling is on.
    pub(crate) prof: Box<[ProfOp]>,
}

/// Picks the specialized form of a two-operand op when one exists (see
/// the specialization block in [`RegOp`]).
fn sel_binop(op: BinOpKind, a: u16, b: u16, dst: u16) -> RegOp {
    use BinOpKind as B;
    match op {
        B::F64Add => RegOp::AddF64 { a, b, dst },
        B::F64Sub => RegOp::SubF64 { a, b, dst },
        B::F64Mul => RegOp::MulF64 { a, b, dst },
        _ => RegOp::Binop { op, a, b, dst },
    }
}

/// Picks the specialized form of an op-with-constant when one exists; an
/// `i32.sub` of `k` is an add of its wrapped negation.
fn sel_binop_k(op: BinOpKind, a: u16, k: u64, dst: u16) -> RegOp {
    match op {
        BinOpKind::I32Add => RegOp::AddI32K {
            a,
            k: k as u32,
            dst,
        },
        BinOpKind::I32Sub => RegOp::AddI32K {
            a,
            k: (k as u32).wrapping_neg(),
            dst,
        },
        _ => RegOp::BinopK { op, a, k, dst },
    }
}

/// The width of a full-width load. On raw slots an f32 load equals an i32
/// load (4 bytes, zero-extended) and an i64 load equals an f64 load (the
/// full slot), so two specialized forms cover the four full-width kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    /// `i32`/`f32`: the `*I32` forms.
    W32,
    /// `i64`/`f64`: the `*F64` forms.
    W64,
}

/// `kind`'s width, `None` for the narrow, extending loads: they join no
/// fusion rule. (Unfused, every load is the generic [`RegOp::Load`].)
fn width(kind: LoadKind) -> Option<Width> {
    match kind {
        LoadKind::I32 | LoadKind::F32 => Some(Width::W32),
        LoadKind::I64 | LoadKind::F64 => Some(Width::W64),
        _ => None,
    }
}

/// Picks the specialized store form. On raw slots an f32 store equals an
/// i32 store and an f64 store an i64 one (same width-aliasing as
/// [`width`]), and `i64.store32` also writes exactly the low four bytes.
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

/// Picks the scaled-index load form of a full-width load.
fn sel_scale_add_load(base: u16, idx: u16, k: u32, w: Width, offset: u32, dst: u16) -> RegOp {
    match w {
        Width::W32 => RegOp::ScaleAddLoadI32 {
            base,
            idx,
            k,
            offset,
            dst,
        },
        Width::W64 => RegOp::ScaleAddLoadF64 {
            base,
            idx,
            k,
            offset,
            dst,
        },
    }
}

/// Where a pending abstract-stack value currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// At its canonical slot `base + position` (see [`Lowerer::base`]).
    /// An op in the innermost open loop wrote it: it is invariant in none.
    Canon,
    /// Forwarded: still in the named local or cache slot, no copy made;
    /// invariant in the open loops from the one at this index of
    /// [`Motion::loops`] in (none when the index is past the last).
    Fwd(u16, u32),
}

/// [`Src::Fwd`]'s loop index of a value invariant in no open loop.
const VARIANT: u32 = u32::MAX;

/// A control frame of the walk: a `block`, `loop` or `if`, or the body.
struct Ctrl {
    is_loop: bool,
    /// Operand height just below the label's params.
    label_height: usize,
    params: usize,
    results: usize,
    /// Register index of the frame's first op: a loop's branch target.
    head: u32,
    /// Head of the list of forward branches to this frame's end (an index
    /// into [`RegScratch::patches`], or [`NO_PATCH`]).
    patches: u32,
    /// The conditional jump of an `if`, waiting for its else/end.
    else_patch: Option<u32>,
    /// The rest of this frame is statically unreachable.
    unreachable: bool,
    /// For a loop whose first op is a compare that leaves it (its head
    /// test, `code[head]`): the index in the control stack of the frame
    /// that test exits to. A `br` back to such a loop is its latch.
    exit: Option<usize>,
    /// A loop's hoist list (an index into [`Motion::heads`]).
    list: u32,
    /// How many open loops enclose the innermost `if` arm around (or
    /// at) this frame: code motion moves no op out of an arm.
    floor: u32,
}

impl Ctrl {
    /// Values a branch to this frame's label transfers.
    fn arity(&self) -> usize {
        if self.is_loop {
            self.params
        } else {
            self.results
        }
    }
}

/// End of a patch list in [`RegScratch::patches`].
const NO_PATCH: u32 = u32::MAX;

/// The index in `ctrl` of the frame relative depth `d` labels.
fn frame_index(ctrl: &[Ctrl], d: u32) -> Option<usize> {
    ctrl.len().checked_sub(1 + d as usize)
}

/// The walk's working buffers, owned by one compile and reused for each
/// function body, so lowering allocates only what the [`RegFunc`] keeps,
/// and the compile's counters, summed over its bodies.
#[derive(Default)]
pub(crate) struct RegScratch {
    pub(crate) stats: RegStats,
    pub(crate) fusion: FusionStats,
    vstack: Vec<Src>,
    ctrl: Vec<Ctrl>,
    /// Forward branches waiting for the end of their target frame, as
    /// linked lists through this arena: `(op index, br_table arm, next)`.
    patches: Vec<(u32, u32, u32)>,
    hoist: Hoist,
    motion: Motion,
}

/// A `global.get` inside a loop, as the hoisting pre-pass records it.
struct GetSite {
    global: u32,
    /// Index of the instruction in the body.
    pos: u32,
    /// How many of the loops open here were open at the global's previous
    /// poison (its `global.set`, or a call): the outermost candidate to
    /// cache it is the next one in.
    a: u32,
    /// `max(a, b)`, with `b` the loops open here that are still open at
    /// the next poison, once that poison (or the body's end) settles it:
    /// the index among the open loops of the one that caches this read.
    t: Option<u32>,
    /// The previous unsettled get of the same global.
    next: Option<u32>,
}

/// The pre-pass's state of one global, indexed by global index.
#[derive(Clone, Default)]
struct GlobalPlan {
    /// One past the index of the last `global.set` so far (0: none).
    last_set: u32,
    /// The newest unsettled get of this global.
    gets: Option<u32>,
    /// The loop (its body index) this global was last listed for.
    listed: Option<u32>,
    /// The global's cache slot, counted from the first slot past the
    /// locals, once a loop caches it.
    slot: Option<u32>,
    /// Whether the walk is inside the loop that loaded the slot.
    live: bool,
    /// While live, the index in [`Motion::loops`] of that loop.
    from: u32,
}

/// Global hoisting (see the module docs): which globals each call-free
/// loop loads into a cache slot in front of itself, planned by a pre-pass
/// over the body, and which caches the walk is inside of.
#[derive(Default)]
struct Hoist {
    /// `(loop, global)`: the globals each loop (its body index) loads,
    /// sorted last loop first, so the walk pops them in body order.
    loads: Vec<(u32, u32)>,
    gets: Vec<GetSite>,
    globals: Vec<GlobalPlan>,
    /// The globals of `globals` this body touched, reset before the next.
    touched: Vec<u32>,
    /// Per open block: a loop's index in `loop_ends`.
    frames: Vec<Option<u32>>,
    /// The open loops' body indices, outermost first.
    open: Vec<u32>,
    /// What the second walk replays of the first.
    marks: Vec<Mark>,
    /// The live caches as `(global, depth of the loop frame that loaded
    /// it in the walk's control stack)`, innermost last.
    live: Vec<(u32, usize)>,
    /// For code motion: the body indices of each loop's `loop` and `end`,
    /// in body order.
    loop_ends: Vec<(u32, u32)>,
    /// For code motion: `(local, body index)` of every `local.set` and
    /// `local.tee` inside a loop, sorted.
    writes: Vec<(u32, u32)>,
}

/// The hoisting pre-pass's record of the body for its second walk.
#[derive(Clone, Copy)]
enum Mark {
    /// A loop opens at this body index.
    Open(u32),
    /// The innermost open loop ends.
    Close,
    /// This [`Hoist::gets`] entry.
    Get(u32),
}

impl Hoist {
    /// Plans `code`'s caches over `n_globals` globals and returns how
    /// many cache slots the body needs; with `motion`, also records each
    /// loop's extent and the local writes inside loops, for code motion.
    ///
    /// A loop caches a global when it reads it and neither sets it nor
    /// calls anything (a Wasm global cannot alias memory, so only those
    /// change it), and no enclosing loop caches it. The first walk keeps
    /// the open loops on a stack; each get records how many of them an
    /// earlier poison (a set of the global, or a call) already rules out,
    /// and its next poison, or the body's end, settles how many a later
    /// one does. The second walk, over the loops and gets the first one
    /// marked, lists each global for the outermost loop left to it. A get
    /// costs a binary search over the open loops, so the pass is linear in
    /// the body up to the log of its loop depth.
    fn plan(&mut self, code: &[Instr], n_globals: usize, motion: bool) -> usize {
        for g in self.touched.drain(..) {
            self.globals[g as usize] = GlobalPlan::default();
        }
        if self.globals.len() < n_globals {
            self.globals.resize(n_globals, GlobalPlan::default());
        }
        self.loads.clear();
        self.gets.clear();
        self.frames.clear();
        self.open.clear();
        self.marks.clear();
        self.live.clear();
        self.loop_ends.clear();
        self.writes.clear();
        let Hoist {
            loads,
            gets,
            globals,
            touched,
            frames,
            open,
            marks,
            loop_ends,
            writes,
            ..
        } = self;
        // How many open loops opened before `pos`.
        let before = |open: &[u32], pos: u32| open.partition_point(|&l| l < pos) as u32;
        let mut unsettled = 0;
        let mut last_call = 0;
        for (pos, instr) in (0..).zip(code) {
            match instr {
                Instr::Loop(_) => {
                    frames.push(Some(loop_ends.len() as u32));
                    loop_ends.push((pos, pos));
                    open.push(pos);
                    marks.push(Mark::Open(pos));
                }
                Instr::Block(_) | Instr::If(_) => frames.push(None),
                Instr::End => {
                    if let Some(Some(l)) = frames.pop() {
                        loop_ends[l as usize].1 = pos;
                        open.pop();
                        marks.push(Mark::Close);
                    }
                }
                Instr::LocalSet(x) | Instr::LocalTee(x) if motion && !open.is_empty() => {
                    writes.push((*x, pos));
                }
                Instr::GlobalGet(g) if (*g as usize) < n_globals => {
                    let plan = &mut globals[*g as usize];
                    let a = before(open, plan.last_set.max(last_call));
                    if (a as usize) < open.len() {
                        touched.push(*g);
                        gets.push(GetSite {
                            global: *g,
                            pos,
                            a,
                            t: None,
                            next: plan.gets,
                        });
                        plan.gets = Some(gets.len() as u32 - 1);
                        marks.push(Mark::Get(gets.len() as u32 - 1));
                    }
                }
                Instr::GlobalSet(g) if (*g as usize) < n_globals => {
                    touched.push(*g);
                    let plan = &mut globals[*g as usize];
                    // A call settled the gets below `unsettled`.
                    let mut at = plan.gets.take();
                    while let Some(i) = at.map(|i| i as usize).filter(|&i| i >= unsettled) {
                        let get = &mut gets[i];
                        get.t = Some(get.a.max(before(open, get.pos)));
                        at = get.next;
                    }
                    plan.last_set = pos + 1;
                }
                Instr::Call(_) | Instr::CallIndirect { .. } => {
                    for get in &mut gets[unsettled..] {
                        get.t
                            .get_or_insert_with(|| get.a.max(before(open, get.pos)));
                    }
                    unsettled = gets.len();
                    last_call = pos + 1;
                }
                _ => {}
            }
        }

        writes.sort_unstable();
        if gets.is_empty() {
            return 0;
        }

        open.clear();
        let mut slots = 0;
        for mark in marks.iter() {
            let site = match *mark {
                Mark::Open(pos) => {
                    open.push(pos);
                    continue;
                }
                Mark::Close => {
                    open.pop();
                    continue;
                }
                Mark::Get(i) => &gets[i as usize],
            };
            // Past the body's end no loop is open: `b = 0`.
            let t = site.t.unwrap_or(site.a);
            let Some(&l) = open.get(t as usize) else {
                continue;
            };
            let plan = &mut globals[site.global as usize];
            if plan.listed != Some(l) {
                plan.listed = Some(l);
                loads.push((l, site.global));
                if plan.slot.is_none() {
                    plan.slot = Some(slots);
                    slots += 1;
                }
            }
        }
        loads.sort_unstable_by(|x, y| y.cmp(x));
        slots as usize
    }

    /// The cache slot (past the locals) of `global` while the walk is
    /// inside the loop that loaded it, and that loop's index in
    /// [`Motion::loops`].
    fn cached(&self, global: u32) -> Option<(u32, u32)> {
        let plan = self.globals.get(global as usize).filter(|p| p.live)?;
        Some((plan.slot?, plan.from))
    }

    /// The body index of the `end` of the loop at body index `open`.
    fn loop_end(&self, open: u32) -> Option<u32> {
        let at = self.loop_ends.binary_search_by_key(&open, |l| l.0).ok()?;
        Some(self.loop_ends[at].1)
    }

    /// The index in `loops` (the open loops, outermost first) of the
    /// outermost one in which local `x`, read at body index `pos`, is
    /// invariant: each loop before it writes `x`. A write inside a loop
    /// is inside every loop around it, so the loops that write `x` are the
    /// outermost ones, and the nearest write before `pos` and the nearest
    /// after it say how many.
    fn invariant_from(&self, x: u32, pos: u32, loops: &[OpenLoop]) -> u32 {
        let w = &self.writes;
        let w = &w[w.partition_point(|l| l.0 < x)..w.partition_point(|l| l.0 <= x)];
        let k = w.partition_point(|l| l.1 < pos);
        let before = k
            .checked_sub(1)
            .map_or(0, |k| loops.partition_point(|l| l.open < w[k].1));
        let after = w
            .get(k)
            .map_or(0, |&(_, next)| loops.partition_point(|l| l.end > next));
        before.max(after) as u32
    }

    /// Whether any cache is live: the walk is inside a caching loop.
    fn any_live(&self) -> bool {
        !self.live.is_empty()
    }
}

/// A loop the walk is inside of, as code motion sees it.
#[derive(Clone, Copy)]
struct OpenLoop {
    /// The body indices of its `loop` and its `end`.
    open: u32,
    end: u32,
    /// Its hoist list, an index into [`Motion::heads`].
    list: u32,
}

/// Loop-invariant code motion (see the module docs): the loops the walk
/// is inside of, the ops it moved out of them, and the jumps to their
/// heads, for the splice at the end of the body.
#[derive(Default)]
struct Motion {
    /// Whether the walk moves ops at all (with
    /// [`EngineConfig::fuse`](crate::exec::EngineConfig::fuse)).
    on: bool,
    /// The open loops, outermost first; always empty while `on` is off,
    /// so nothing is invariant in a loop and nothing moves.
    loops: Vec<OpenLoop>,
    /// Per hoist list, one per loop the walk opened, in that order: the
    /// index in the code of its loop's head.
    heads: Vec<u32>,
    /// The moved ops with their lists, in the order they were moved; the
    /// `n`-th writes the cache slot the walk numbers `u16::MAX - n`.
    moved: Vec<(u32, RegOp)>,
    /// The cache slot of each moved op (its `dst` zeroed) in its list.
    slots: HashMap<(u32, RegOp), u16>,
    /// Jumps to a loop's head: `(op index, br_table arm, hoist list)`.
    head_jumps: Vec<(u32, u32, u32)>,
}

impl Motion {
    fn restart(&mut self, on: bool) {
        self.on = on;
        self.loops.clear();
        self.heads.clear();
        self.moved.clear();
        self.slots.clear();
        self.head_jumps.clear();
    }
}

/// How many global cache slots function `func` (function-space index) of
/// `module` has: its slots `n_locals..n_locals + cache_slots`.
#[cfg(test)]
pub(crate) fn cache_slots(module: &Module, func: usize) -> usize {
    let body = &module.funcs[func - module.func_imports.len()];
    Hoist::default().plan(&body.code, module.globals.len(), false)
}

/// The per-function lowering state: the emitted code and its retirement
/// table, the abstract stack tracking where each pending operand value
/// lives, and the control stack.
struct Lowerer<'a> {
    out: Vec<RegOp>,
    /// Retirement metadata, kept 1:1 with `out` by [`Lowerer::sync`].
    prof: Vec<ProfOp>,
    /// Weight of lowered instructions no emitted op carries yet.
    pending: ProfOp,
    vstack: &'a mut Vec<Src>,
    ctrl: &'a mut Vec<Ctrl>,
    patches: &'a mut Vec<(u32, u32, u32)>,
    hoist: &'a mut Hoist,
    motion: &'a mut Motion,
    /// The body index of the instruction being lowered.
    pos: u32,
    /// The outermost open loop (its index in [`Motion::loops`]) in which
    /// every operand popped since this instruction began is invariant.
    inv: u32,
    /// The function-space index, for the frame-limit refusal.
    func: u32,
    n_locals: usize,
    /// The first operand slot: past the locals and the global caches.
    base: usize,
    max_height: usize,
    stats: &'a mut RegStats,
}

/// `idx` as a `u16` slot operand. A frame past that encoding is refused:
/// the core spec's implementation limits let an engine bound a function's
/// size, and `Aot` runs register code or nothing.
fn slot16(func: u32, idx: usize) -> Result<u16, Trap> {
    u16::try_from(idx).map_err(|_| frame_limit(func))
}

/// The refusal of function `func`'s frame.
fn frame_limit(func: u32) -> Trap {
    Trap::Instantiation(format!(
        "function {func}: frame past the register engine's limit of {} slots",
        u16::MAX
    ))
}

fn block_arities(module: &Module, bt: BlockType) -> Result<(usize, usize), Trap> {
    Ok(match bt {
        BlockType::Empty => (0, 0),
        BlockType::Value(_) => (0, 1),
        BlockType::Func(idx) => {
            let ty = module
                .types
                .get(idx as usize)
                .ok_or_else(|| bad("block type index out of range"))?;
            (ty.params.len(), ty.results.len())
        }
    })
}

/// Points the jump at `code[at]` (its arm `slot`, for a `br_table`) at
/// `target`.
fn patch(code: &mut [RegOp], at: u32, slot: u32, target: u32) -> Result<(), Trap> {
    let t = code
        .get_mut(at as usize)
        .and_then(|op| op.target_mut(slot as usize))
        .ok_or_else(|| bad("patched op is not a jump"))?;
    *t = target;
    Ok(())
}

impl Lowerer<'_> {
    fn canon(&self, pos: usize) -> Result<u16, Trap> {
        slot16(self.func, self.base + pos)
    }

    /// The slot currently holding the value at stack position `pos`.
    fn slot_of(&self, pos: usize) -> Result<u16, Trap> {
        match self.vstack[pos] {
            Src::Canon => self.canon(pos),
            Src::Fwd(s, _) => Ok(s),
        }
    }

    /// Pops the top operand, returning the slot its value lives in.
    fn pop(&mut self) -> Result<u16, Trap> {
        let pos = self
            .vstack
            .len()
            .checked_sub(1)
            .ok_or_else(|| bad("operand stack underflow"))?;
        let s = self.slot_of(pos)?;
        let from = match self.vstack.pop() {
            Some(Src::Fwd(_, from)) => from,
            _ => VARIANT,
        };
        self.inv = self.inv.max(from);
        self.stats.stack_ops_eliminated += 1;
        Ok(s)
    }

    /// Pushes a canonical operand, returning the slot to write it to.
    fn push(&mut self) -> Result<u16, Trap> {
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
    fn spill(&mut self, pos: usize, from: u16) -> Result<(), Trap> {
        let dst = self.canon(pos)?;
        self.emit_move(from, dst);
        self.vstack[pos] = Src::Canon;
        self.max_height = self.max_height.max(pos + 1);
        Ok(())
    }

    /// Flushes every forwarded entry except the top `keep_top` to its
    /// canonical slot (branch/call edges need canonical state).
    fn flush_below(&mut self, keep_top: usize) -> Result<(), Trap> {
        let n = self.vstack.len().saturating_sub(keep_top);
        for pos in 0..n {
            if let Src::Fwd(s, _) = self.vstack[pos] {
                self.spill(pos, s)?;
            }
        }
        Ok(())
    }

    fn flush_all(&mut self) -> Result<(), Trap> {
        self.flush_below(0)
    }

    /// Before a write to local slot `local`: any pending operand still
    /// forwarded from that local (except the top `keep_top`, which the
    /// writing op itself consumes) must be copied out first.
    fn guard_local_write(&mut self, local: u16, keep_top: usize) -> Result<(), Trap> {
        let n = self.vstack.len().saturating_sub(keep_top);
        for pos in 0..n {
            if matches!(self.vstack[pos], Src::Fwd(s, _) if s == local) {
                self.spill(pos, local)?;
            }
        }
        Ok(())
    }

    /// The slot of local `idx`, written by the op about to be emitted:
    /// operands still forwarded from it are copied out first.
    fn sink(&mut self, idx: u32) -> Result<u16, Trap> {
        let dst = self.local(idx)?;
        self.guard_local_write(dst, 0)?;
        Ok(dst)
    }

    /// Validates and converts a local index carried by a (possibly
    /// unvalidated) instruction.
    fn local(&self, idx: u32) -> Result<u16, Trap> {
        if (idx as usize) < self.n_locals {
            slot16(self.func, idx as usize)
        } else {
            Err(bad("local index out of range"))
        }
    }

    /// The outermost open loop in which local `idx`, read here, is
    /// invariant (see [`Src::Fwd`]).
    fn local_inv(&self, idx: u32) -> u32 {
        let m = &*self.motion;
        if m.loops.is_empty() {
            VARIANT
        } else {
            self.hoist.invariant_from(idx, self.pos, &m.loops)
        }
    }

    /// A local a fused op reads directly (a row's `z`): its slot, its
    /// invariance joining the operands'.
    fn read_local(&mut self, idx: u32) -> Result<u16, Trap> {
        self.inv = self.inv.max(self.local_inv(idx));
        self.local(idx)
    }

    /// Emits `op(dst)`, an op that reads no memory and pushes its result,
    /// after its operands were popped. Under code motion, when it is
    /// `movable` (it cannot trap) and those operands are invariant in the
    /// innermost open loop, it moves instead to the hoist list of the
    /// outermost loop they are invariant in, staying inside any `if` arm
    /// around it. There it writes a cache slot (one per distinct op and
    /// list); the result is forwarded from the slot, and its instructions'
    /// weight stays pending for the next op the loop runs.
    fn emit_value(&mut self, movable: bool, op: impl Fn(u16) -> RegOp) -> Result<(), Trap> {
        let floor = self.top()?.floor;
        let m = &mut *self.motion;
        let from = self.inv.max(floor);
        if !movable || from as usize >= m.loops.len() {
            let dst = self.push()?;
            self.out.push(op(dst));
            return Ok(());
        }
        let list = m.loops[from as usize].list;
        let slot = match m.slots.get(&(list, op(0))) {
            Some(&slot) => slot,
            None => {
                // Numbered down from the top of the slot space, clear of
                // every slot the walk hands out, until the splice places
                // them below the operand slots. A frame that cannot hold
                // them all is lowered again without code motion.
                let slot = u16::try_from(m.moved.len())
                    .ok()
                    .and_then(|n| u16::MAX.checked_sub(n))
                    .filter(|&s| usize::from(s) >= self.base + self.max_height)
                    .ok_or_else(|| frame_limit(self.func))?;
                m.slots.insert((list, op(0)), slot);
                m.moved.push((list, op(slot)));
                slot
            }
        };
        self.vstack.push(Src::Fwd(slot, from));
        self.stats.stack_ops_eliminated += 1;
        self.stats.hoisted += 1;
        Ok(())
    }

    /// Gives the pending retirement weight to the first op emitted since
    /// the last call, and zero to the rest.
    fn sync(&mut self) {
        while self.prof.len() < self.out.len() {
            self.prof.push(std::mem::take(&mut self.pending));
        }
    }

    /// Re-seeds the abstract stack, all canonical, where code is reachable
    /// again after a terminator: only branches arrive there, and every
    /// branch flushes first.
    fn reseed(&mut self, height: usize) {
        self.vstack.clear();
        self.vstack.resize(height, Src::Canon);
        self.max_height = self.max_height.max(height);
    }

    /// Fall-through into a branch target (a loop head, or an else/end a
    /// branch lands on): forwarded operands become canonical here so every
    /// predecessor agrees on the state.
    fn enter_target(&mut self) -> Result<(), Trap> {
        self.flush_all()?;
        self.sync();
        if self.pending != ProfOp::zero() {
            // Emit-less ops left retirement weight pending and no flush
            // move was emitted to carry it. A self-move keeps the weight on
            // the fall-through path only — jumping predecessors already
            // retired their own ops.
            let carrier = if self.n_locals == 0 {
                self.max_height = self.max_height.max(1);
                self.canon(0)?
            } else {
                0
            };
            self.emit_move(carrier, carrier);
            self.sync();
        }
        Ok(())
    }

    /// In front of the `loop` at body index `pos`, after its entry flush
    /// (so no operand is still forwarded from a slot this overwrites):
    /// loads each global the loop caches into the global's slot.
    fn load_caches(&mut self, pos: usize) -> Result<(), Trap> {
        let h = &mut *self.hoist;
        // `loads` is sorted last loop first: pop the loops behind the walk
        // (in statically unreachable code, never entered), then this one's.
        while let Some(&(l, g)) = h.loads.last().filter(|&&(l, _)| l as usize <= pos) {
            h.loads.pop();
            let plan = &mut h.globals[g as usize];
            if l as usize == pos && !plan.live {
                plan.live = true;
                plan.from = self.motion.loops.len() as u32;
                h.live.push((g, self.ctrl.len()));
                let slot = plan
                    .slot
                    .ok_or_else(|| bad("a listed global without a slot"))?;
                let dst = slot16(self.func, self.n_locals + slot as usize)?;
                self.out.push(RegOp::GlobalGet { idx: g, dst });
            }
        }
        Ok(())
    }

    /// The innermost frame (the body's stays open until its final `end`).
    fn top(&mut self) -> Result<&mut Ctrl, Trap> {
        self.ctrl
            .last_mut()
            .ok_or_else(|| bad("instructions after the function's final end"))
    }

    /// Marks the rest of the innermost frame statically unreachable.
    fn terminate(&mut self) -> Result<(), Trap> {
        self.top()?.unreachable = true;
        Ok(())
    }

    fn check_height(&self, height: usize) -> Result<(), Trap> {
        if self.vstack.len() == height {
            Ok(())
        } else {
            Err(bad("operand height mismatch at a block's end"))
        }
    }

    /// Opens a frame of block type `bt` over the params on the stack.
    fn open(
        &mut self,
        module: &Module,
        bt: BlockType,
        is_loop: bool,
        else_patch: Option<u32>,
    ) -> Result<(), Trap> {
        let (params, results) = block_arities(module, bt)?;
        let label_height = self
            .vstack
            .len()
            .checked_sub(params)
            .ok_or_else(|| bad("operand stack underflow"))?;
        let head = self.out.len() as u32;
        let m = &mut *self.motion;
        let floor = match else_patch {
            Some(_) => m.loops.len() as u32,
            None => self.ctrl.last().map_or(0, |c| c.floor),
        };
        let list = m.heads.len() as u32;
        if is_loop && m.on {
            let end = self
                .hoist
                .loop_end(self.pos)
                .ok_or_else(|| bad("a loop the pre-pass did not see"))?;
            m.loops.push(OpenLoop {
                open: self.pos,
                end,
                list,
            });
            m.heads.push(head);
        }
        self.ctrl.push(Ctrl {
            is_loop,
            label_height,
            params,
            results,
            head,
            patches: NO_PATCH,
            else_patch,
            unreachable: false,
            exit: None,
            list,
            floor,
        });
        Ok(())
    }

    /// A branch to relative depth `d` from the current height: the slots
    /// its value transfer copies from and to, and how many.
    fn transfer(&self, d: u32) -> Result<(u16, u16, usize), Trap> {
        let frame = frame_index(self.ctrl, d)
            .map(|i| &self.ctrl[i])
            .ok_or_else(|| bad("branch depth exceeds control stack"))?;
        let (keep, lh) = (frame.arity(), frame.label_height);
        let h = self.vstack.len();
        if h < keep + lh {
            return Err(bad("operand stack underflow at branch"));
        }
        Ok((self.canon(h - keep)?, self.canon(lh)?, keep))
    }

    /// The target of the branch to relative depth `d` about to be emitted
    /// at `out.len()` (its arm `slot`, for a `br_table`).
    fn branch_target(&mut self, d: u32, slot: u32) -> Result<u32, Trap> {
        let idx =
            frame_index(self.ctrl, d).ok_or_else(|| bad("branch depth exceeds control stack"))?;
        Ok(self.frame_target(idx, slot))
    }

    /// The target of a branch to frame `ctrl[idx]` about to be emitted at
    /// `out.len()`: a loop's head, or 0 and a patch on the frame's list,
    /// resolved at its end.
    fn frame_target(&mut self, idx: usize, slot: u32) -> u32 {
        let frame = &mut self.ctrl[idx];
        if frame.is_loop {
            if self.motion.on {
                let at = self.out.len() as u32;
                self.motion.head_jumps.push((at, slot, frame.list));
            }
            return frame.head;
        }
        self.patches
            .push((self.out.len() as u32, slot, frame.patches));
        frame.patches = self.patches.len() as u32 - 1;
        0
    }

    /// Before the compare-and-branch of `jump` is emitted: if it is the
    /// innermost loop's first op and `jump` a `br_if` out of the loop, it
    /// is the loop's head test, and its frame is the loop's exit.
    fn head_test(&mut self, jump: &Instr) {
        let at = self.out.len() as u32;
        let Instr::BrIf(d @ 1..) = *jump else {
            return;
        };
        let exit = frame_index(self.ctrl, d);
        if let Some(frame) = self.ctrl.last_mut().filter(|f| f.is_loop && f.head == at) {
            frame.exit = exit;
        }
    }

    /// A `br` to relative depth `d`, moving no values, after its flush: if
    /// `d` labels a loop with a head test, emits the loop's latch (see
    /// `latch` in the module docs) and returns true. The latch's weight is
    /// the step's, the `br`'s (still pending) and the head test's; the
    /// exit jump after it retires nothing.
    fn latch(&mut self, d: u32, fusion: &mut FusionStats) -> Result<bool, Trap> {
        let idx =
            frame_index(self.ctrl, d).ok_or_else(|| bad("branch depth exceeds control stack"))?;
        let (head, Some(exit)) = (self.ctrl[idx].head, self.ctrl[idx].exit) else {
            return Ok(false);
        };
        let (op, a, b, jump_if) = match self.out[head as usize] {
            RegOp::CmpBr {
                op, a, b, jump_if, ..
            } => (op, a, b, jump_if),
            _ => return Err(bad("a loop's head test is not a compare-and-branch")),
        };
        let target = head + 1;
        // The step `i += k` of a head `i < n` joins. No branch lands
        // between the two: a step into local `i` leaves its `local.set`'s
        // weight pending, so a branch destination after it would have
        // started with the move that carries that weight.
        let step = match self.out.last() {
            Some(&RegOp::AddI32K { a: i, k, dst })
                if (op, jump_if, i, dst) == (BinOpKind::I32LtS, false, a, a) =>
            {
                Some(k)
            }
            _ => None,
        };
        let latch = match step {
            Some(k) => {
                self.out.pop();
                if let Some(weight) = self.prof.pop() {
                    self.pending.merge(&weight);
                }
                RegOp::IncBrLtS {
                    i: a,
                    n: b,
                    k,
                    target,
                }
            }
            None => RegOp::CmpBr {
                op,
                a,
                b,
                jump_if: !jump_if,
                latch: true,
                target,
            },
        };
        let head_weight = self.prof[head as usize];
        self.pending.merge(&head_weight);
        self.out.push(latch);
        let exit = self.frame_target(exit, 0);
        self.out.push(RegOp::Jump { target: exit });
        fusion.record(Rule::Latch);
        Ok(true)
    }

    /// The target of the conditional jump about to be emitted at
    /// `out.len()` for `jump`, an `if` or a `br_if`; an `if` opens its
    /// frame here, its false path waiting for the else/end.
    fn cond_target(&mut self, module: &Module, jump: &Instr) -> Result<u32, Trap> {
        match jump {
            Instr::If(bt) => {
                let at = self.out.len() as u32;
                self.open(module, *bt, false, Some(at))?;
                Ok(0)
            }
            Instr::BrIf(d) => self.branch_target(*d, 0),
            _ => Err(bad("conditional jump expected")),
        }
    }

    /// Starts the else-branch of the innermost frame, where its
    /// condition's false path lands.
    fn else_arm(&mut self) -> Result<(), Trap> {
        let frame = self.top()?;
        let at = frame
            .else_patch
            .take()
            .ok_or_else(|| bad("else without matching if"))?;
        frame.unreachable = false;
        let height = frame.label_height + frame.params;
        self.reseed(height);
        let here = self.out.len() as u32;
        patch(&mut self.out, at, 0, here)
    }

    /// Closes the innermost frame at its `end`, pointing every branch to
    /// it here; the body's own `end` returns.
    fn close(&mut self) -> Result<(), Trap> {
        let frame = self.ctrl.pop().ok_or_else(|| bad("unbalanced end"))?;
        if frame.is_loop {
            self.motion.loops.pop();
        }
        while let Some(&(g, _)) = self.hoist.live.last().filter(|l| l.1 >= self.ctrl.len()) {
            self.hoist.globals[g as usize].live = false;
            self.hoist.live.pop();
        }
        let height = frame.label_height + frame.results;
        if frame.unreachable {
            self.reseed(height);
        } else {
            if frame.patches != NO_PATCH || frame.else_patch.is_some() {
                self.enter_target()?;
            }
            self.check_height(height)?;
        }
        let end = self.out.len() as u32;
        if let Some(at) = frame.else_patch {
            // `if` without `else`: the false path jumps straight here.
            patch(&mut self.out, at, 0, end)?;
        }
        let mut next = frame.patches;
        while let Some(&(at, slot, link)) = self.patches.get(next as usize) {
            patch(&mut self.out, at, slot, end)?;
            next = link;
        }
        if self.ctrl.is_empty() {
            self.ret(frame.results)?;
        }
        Ok(())
    }

    /// Copies the top `n_results` values to the frame base and returns.
    fn ret(&mut self, n_results: usize) -> Result<(), Trap> {
        self.flush_all()?;
        let h = self.vstack.len();
        if h < n_results {
            return Err(bad("missing results at return"));
        }
        let src = self.canon(h - n_results)?;
        self.out.push(RegOp::Return { src });
        Ok(())
    }

    /// Pops the `n_args` canonical operands an op reads from consecutive
    /// slots (a call's arguments at the callee's frame base, a bulk-memory
    /// op's three) and pushes its `n_res` results there; returns the first
    /// slot.
    fn args(&mut self, n_args: usize, n_res: usize) -> Result<u16, Trap> {
        let h = self.vstack.len();
        if h < n_args {
            return Err(bad("missing operands"));
        }
        let base = self.canon(h - n_args)?;
        for _ in 0..n_args {
            self.pop()?;
        }
        for _ in 0..n_res {
            self.push()?;
        }
        Ok(base)
    }
}

/// Where a binop's result goes, read off the instructions that follow it.
enum Follow {
    /// Nothing joinable: the result is pushed.
    Push,
    /// `local.set`: the result is written straight to the local.
    Set(u32),
    /// `f64.store` after `f64.add`: the sum is the value stored (address
    /// beneath it), at this offset.
    Store(u32),
    /// `i32.eqzⁿ; if` or `i32.eqzⁿ; br_if`: the result is only tested,
    /// and the jump is taken when its truthiness equals this.
    Br(bool),
    /// A full-width load after `i32.add`: the result is only the address.
    Load(Width, u32),
    /// `local.get z; i32.add; const k; i32.mul; i32.add [; 64-bit load]`
    /// after `i32.mul`: the product is the row `y*n` of the 2-D address
    /// `base + (y*n + z)*k`, and the load at this offset reads it.
    Addr { z: u32, k: u32, load: Option<u32> },
    /// `local.get z; i32.add [; local.set]` after `i32.mul`: the row index
    /// `y*n + z`, pushed or written to the local.
    MulAdd { z: u32, set: Option<u32> },
}

/// The fusion rules' view of the instructions past the one being lowered.
/// No rule matches a structural instruction except as the jump that ends a
/// window (an `if` or a `br_if`), so no window reads past one: every branch
/// destination — a loop head, an else, an end — starts a register op.
struct Ahead<'a> {
    code: &'a [Instr],
    fuse: bool,
}

impl<'a> Ahead<'a> {
    /// `code[j]`, when fusion is on.
    fn at(&self, j: usize) -> Option<&'a Instr> {
        if self.fuse {
            self.code.get(j)
        } else {
            None
        }
    }

    /// The class of `code[j]`, when fusion is on.
    fn simple(&self, j: usize) -> Option<Simple> {
        self.at(j).and_then(map_simple)
    }

    /// Reads `i32.eqzⁿ; if` or `i32.eqzⁿ; br_if` at `code[j..]`, the jump
    /// popping its condition to height `h`: whether it is taken on a
    /// non-zero value *entering* the chain (each inversion flips the
    /// polarity; MiniC's truthiness normalization emits these chains), and
    /// the instructions read, the jump last. A `br_if` joins only when its
    /// branch moves no values.
    fn cond_jump(&self, j: usize, ctrl: &[Ctrl], h: usize) -> Option<(bool, usize)> {
        let mut n = 0;
        while let Some(Instr::I32Eqz) = self.at(j + n) {
            n += 1;
        }
        let jump_if = match self.at(j + n)? {
            Instr::If(_) => false,
            Instr::BrIf(d) => {
                let frame = &ctrl[frame_index(ctrl, *d)?];
                if h.checked_sub(frame.arity()) != Some(frame.label_height) {
                    return None;
                }
                true
            }
            _ => return None,
        };
        Some((jump_if ^ (n % 2 == 1), n + 1))
    }

    /// Classifies the instructions following a binop `op` at `code[j - 1]`
    /// whose conditional jump, if any, would pop to height `h`; returns
    /// the follow and how many instructions it takes. An `i32.mul` tries
    /// the row rules first ([`Ahead::row`]).
    ///
    /// A trap-capable binop (`div`/`rem`) sinks only into a `local.set`:
    /// the set's retirement is deferred until the division succeeds (see
    /// `deferred_set` in [`lower_func`]), so inclusive-at-fetch instret
    /// stays exact on trapping inputs. A store or branch would put a second
    /// trap point or a control transfer after the division, which the
    /// deferred-suffix scheme does not cover.
    fn follow(&self, j: usize, op: BinOpKind, ctrl: &[Ctrl], h: usize) -> (Follow, usize) {
        if let Some(Instr::LocalSet(dst)) = self.at(j) {
            return (Follow::Set(*dst), 1);
        }
        if op.traps() {
            return (Follow::Push, 0);
        }
        if let Some(row) = (op == BinOpKind::I32Mul)
            .then(|| self.row(j, ctrl, h))
            .flatten()
        {
            return row;
        }
        match (op, self.simple(j)) {
            (
                BinOpKind::F64Add,
                Some(Simple::Store {
                    kind: StoreKind::F64,
                    offset,
                }),
            ) => (Follow::Store(offset), 1),
            (BinOpKind::I32Add, Some(Simple::Load { kind, offset })) => match width(kind) {
                Some(w) => (Follow::Load(w, offset), 1),
                None => (Follow::Push, 0),
            },
            _ => match self.cond_jump(j, ctrl, h) {
                Some((jump_if, n)) => (Follow::Br(jump_if), n),
                None => (Follow::Push, 0),
            },
        }
    }

    /// Reads `i32.mul; i32.add [; load]` at `code[j..]` — an array-address
    /// tail past its `const k`: the trailing load, when its width is one
    /// of `joins`, and the instructions read.
    fn scale_tail(&self, j: usize, joins: &[Width]) -> Option<(Option<(Width, u32)>, usize)> {
        let (Some(Instr::I32Mul), Some(Instr::I32Add)) = (self.at(j), self.at(j + 1)) else {
            return None;
        };
        let load = match self.simple(j + 2) {
            Some(Simple::Load { kind, offset }) => width(kind)
                .filter(|w| joins.contains(w))
                .map(|w| (w, offset)),
            _ => None,
        };
        Some((load, 2 + usize::from(load.is_some())))
    }

    /// Reads `local.get z; i32.add` at `code[j..]`, a local added to the
    /// product of the `i32.mul` before it, and what joins that row index
    /// `y*n + z`: the 2-D address tail `const k; i32.mul; i32.add [; 64-bit
    /// load]`, or else the add's own follow when it is a push or a
    /// `local.set` (any other follow keeps the add, and its rule, to
    /// itself). Returns the follow and the instructions read.
    fn row(&self, j: usize, ctrl: &[Ctrl], h: usize) -> Option<(Follow, usize)> {
        let (Some(Instr::LocalGet(z)), Some(Instr::I32Add)) = (self.at(j), self.at(j + 1)) else {
            return None;
        };
        let z = *z;
        let tail = match self.simple(j + 2) {
            Some(Simple::Const(k)) => u32::try_from(k)
                .ok()
                .zip(self.scale_tail(j + 3, &[Width::W64])),
            _ => None,
        };
        if let Some((k, (load, tail_len))) = tail {
            let load = load.map(|(_, offset)| offset);
            return Some((Follow::Addr { z, k, load }, 3 + tail_len));
        }
        match self.follow(j + 2, BinOpKind::I32Add, ctrl, h) {
            (Follow::Push, _) => Some((Follow::MulAdd { z, set: None }, 2)),
            (Follow::Set(local), n) => Some((
                Follow::MulAdd {
                    z,
                    set: Some(local),
                },
                2 + n,
            )),
            _ => None,
        }
    }
}

/// Lowers `body`, function `func` of the function space, to register form
/// in one walk over its structured code (see the module docs), in
/// `scratch`'s buffers. `fuse` turns the fusion rules and code motion on;
/// what the rules joined is counted in `scratch.fusion`. A body whose
/// frame cannot hold its moved ops' cache slots is lowered again without
/// code motion, so code motion never refuses a body.
///
/// # Errors
///
/// [`Trap::Instantiation`], which fails instantiation, when the frame
/// outgrows the `u16` slot encoding (the message names `func` and the
/// limit), for a malformed body — truncated code (unbalanced control),
/// out-of-range type, function, local or branch indices, or operand-stack
/// underflow — and for a broken invariant. A module that passed
/// [`crate::validate`] never hits the malformed group, but lowering must
/// not panic the host either way.
pub(crate) fn lower_func(
    module: &Module,
    func: u32,
    body: &FuncBody,
    scratch: &mut RegScratch,
    fuse: bool,
) -> Result<RegFunc, Trap> {
    if !fuse {
        return lower_body(module, func, body, scratch, false, false);
    }
    let counts = (scratch.stats, scratch.fusion);
    lower_body(module, func, body, scratch, true, true).or_else(|_| {
        (scratch.stats, scratch.fusion) = counts;
        lower_body(module, func, body, scratch, true, false)
    })
}

/// [`lower_func`]'s walk, with code motion on or off.
#[allow(clippy::too_many_lines)]
fn lower_body(
    module: &Module,
    func: u32,
    body: &FuncBody,
    scratch: &mut RegScratch,
    fuse: bool,
    motion: bool,
) -> Result<RegFunc, Trap> {
    let ty = module
        .types
        .get(body.type_idx as usize)
        .ok_or_else(|| bad("function type index out of range"))?;
    let n_params = ty.params.len();
    let n_locals = n_params + body.locals.len();
    let n_results = ty.results.len();
    let code = &body.code[..];
    let RegScratch {
        stats,
        fusion,
        vstack,
        ctrl,
        patches,
        hoist,
        motion: moves,
    } = scratch;
    let base = n_locals + hoist.plan(code, module.globals.len(), motion);
    vstack.clear();
    ctrl.clear();
    patches.clear();
    moves.restart(motion);
    ctrl.push(Ctrl {
        is_loop: false,
        label_height: 0,
        params: 0,
        results: n_results,
        head: 0,
        patches: NO_PATCH,
        else_patch: None,
        unreachable: false,
        exit: None,
        list: 0,
        floor: 0,
    });
    // Retirement: each instruction's weight accumulates into `pending` and
    // attaches to the *first* register op emitted on its behalf (fix-up
    // moves included — they cannot trap and run before the main op on the
    // same path, so inclusive-at-fetch retirement stays exact even on
    // trapping programs). Emit-less instructions (forwarded gets, drops,
    // same-slot sets, structure) leave their weight pending for the next
    // emission on the same fall-through path.
    let mut lo = Lowerer {
        out: Vec::with_capacity(code.len()),
        prof: Vec::with_capacity(code.len()),
        pending: ProfOp::zero(),
        vstack,
        ctrl,
        patches,
        hoist,
        motion: moves,
        pos: 0,
        inv: 0,
        func,
        n_locals,
        base,
        max_height: 0,
        stats,
    };
    let ahead = Ahead { code, fuse };
    let n_imports = module.func_imports.len() as u32;
    // The arity of a call target, for arg/result placement.
    let call_arity = |func: u32| -> Result<(usize, usize), Trap> {
        let ty_idx = module
            .func_type_idx(func)
            .ok_or_else(|| bad("call target out of range"))?;
        let ty = module
            .types
            .get(ty_idx as usize)
            .ok_or_else(|| bad("call type index out of range"))?;
        Ok((ty.params.len(), ty.results.len()))
    };
    // Nesting depth of the blocks skipped inside statically unreachable
    // code.
    let mut skip = 0usize;

    let mut i = 0;
    while i < code.len() {
        let instr = &code[i];
        // Inside statically unreachable code nothing is emitted; only the
        // block structure is tracked so the matching else/end is found.
        if lo.top()?.unreachable {
            match instr {
                x if x.opens_block() => skip += 1,
                Instr::Else if skip == 0 => lo.else_arm()?,
                Instr::End if skip == 0 => lo.close()?,
                Instr::End => skip -= 1,
                _ => {}
            }
            lo.sync();
            i += 1;
            continue;
        }
        lo.pos = i as u32;
        lo.inv = 0;
        // Instructions this iteration lowers: `code[i]` plus what a fusion
        // rule joins to it.
        let mut used = 1;
        // A binop sunk into a `local.set` retires the set only after the
        // (possibly trapping) binop succeeds: the set's weight joins
        // `pending` after this op's sync, attaching to the next emission
        // on the fall-through path (or a carrier move at a join).
        let mut deferred_set = false;

        match instr {
            Instr::Nop => {}
            Instr::Unreachable => {
                lo.out.push(RegOp::Unreachable);
                lo.terminate()?;
            }
            Instr::Block(bt) => lo.open(module, *bt, false, None)?,
            Instr::Loop(bt) => {
                lo.enter_target()?;
                lo.load_caches(i)?;
                lo.open(module, *bt, true, None)?;
            }
            Instr::If(_) => {
                lo.flush_below(1)?;
                let cond = lo.pop()?;
                let target = lo.cond_target(module, instr)?;
                lo.out.push(RegOp::BrIf {
                    cond,
                    jump_if: false,
                    target,
                });
            }
            Instr::Else => {
                let frame = lo.top()?;
                let height = frame.label_height + frame.results;
                lo.check_height(height)?;
                // The then-branch falls through: jump over the else.
                lo.flush_all()?;
                let target = lo.branch_target(0, 0)?;
                lo.out.push(RegOp::Jump { target });
                lo.else_arm()?;
            }
            Instr::End => lo.close()?,
            Instr::Br(d) => {
                lo.flush_all()?;
                let (src, dst, keep) = lo.transfer(*d)?;
                // Only a fused loop has a head test, so only it has a latch.
                if keep != 0 || !lo.latch(*d, fusion)? {
                    let target = lo.branch_target(*d, 0)?;
                    lo.out.push(if keep == 0 || src == dst {
                        RegOp::Jump { target }
                    } else {
                        RegOp::BrMoves {
                            target,
                            src,
                            dst,
                            keep: slot16(lo.func, keep)?,
                        }
                    });
                }
                lo.terminate()?;
            }
            Instr::BrIf(d) => {
                lo.flush_below(1)?;
                let cond = lo.pop()?;
                let (src, dst, keep) = lo.transfer(*d)?;
                let target = lo.branch_target(*d, 0)?;
                lo.out.push(if keep == 0 || src == dst {
                    RegOp::BrIf {
                        cond,
                        jump_if: true,
                        target,
                    }
                } else {
                    RegOp::BrIfMoves {
                        cond,
                        jump_if: true,
                        target,
                        src,
                        dst,
                        keep: slot16(lo.func, keep)?,
                    }
                });
            }
            Instr::BrTable { targets, default } => {
                lo.flush_below(1)?;
                let idx = lo.pop()?;
                let mut entries = Vec::with_capacity(targets.len() + 1);
                for (slot, d) in targets.iter().chain(std::iter::once(default)).enumerate() {
                    let (src, dst, keep) = lo.transfer(*d)?;
                    entries.push(RegBrEntry {
                        target: lo.branch_target(*d, slot as u32)?,
                        src,
                        dst,
                        keep: slot16(lo.func, keep)?,
                    });
                }
                lo.out.push(RegOp::BrTable {
                    idx,
                    entries: entries.into_boxed_slice(),
                });
                lo.terminate()?;
            }
            Instr::Return => {
                lo.ret(n_results)?;
                lo.terminate()?;
            }
            Instr::Call(_) | Instr::CallIndirect { .. } if lo.hoist.any_live() => {
                return Err(bad("call inside a loop that caches a global"));
            }
            Instr::Call(func) => {
                let (n_args, n_res) = call_arity(*func)?;
                lo.flush_all()?;
                let base = lo.args(n_args, n_res)?;
                lo.out.push(if *func < n_imports {
                    RegOp::CallImport { func: *func, base }
                } else {
                    RegOp::CallLocal { func: *func, base }
                });
            }
            Instr::CallIndirect { type_idx, .. } => {
                let ty = module
                    .types
                    .get(*type_idx as usize)
                    .ok_or_else(|| bad("call_indirect type index out of range"))?;
                lo.flush_all()?;
                let idx = lo.pop()?;
                let base = lo.args(ty.params.len(), ty.results.len())?;
                lo.out.push(RegOp::CallIndirect {
                    type_idx: *type_idx,
                    idx,
                    base,
                });
            }

            Instr::Drop => {
                lo.pop()?;
            }
            Instr::Select => {
                let cond = lo.pop()?;
                let b = lo.pop()?;
                let a = lo.pop()?;
                let dst = lo.push()?;
                lo.out.push(RegOp::Select { cond, a, b, dst });
            }

            Instr::LocalGet(idx) => {
                // Forwarded: the operand stays in the local's slot and takes
                // a frame slot of its own only if it is spilled.
                let src = Src::Fwd(lo.local(*idx)?, lo.local_inv(*idx));
                lo.vstack.push(src);
                lo.stats.gets_forwarded += 1;
                lo.stats.stack_ops_eliminated += 1;
            }
            Instr::LocalSet(idx) => {
                let dst = lo.local(*idx)?;
                let src = lo.pop()?;
                if src != dst {
                    lo.guard_local_write(dst, 0)?;
                    lo.emit_move(src, dst);
                }
            }
            Instr::LocalTee(idx) => {
                let dst = lo.local(*idx)?;
                let top = lo
                    .vstack
                    .len()
                    .checked_sub(1)
                    .ok_or_else(|| bad("tee on empty stack"))?;
                let src = lo.slot_of(top)?;
                if src != dst {
                    lo.guard_local_write(dst, 1)?;
                    lo.emit_move(src, dst);
                }
            }
            Instr::GlobalGet(idx) => {
                if let Some((slot, from)) = lo.hoist.cached(*idx) {
                    // Cached by an enclosing loop: forwarded from the
                    // slot, exactly like a `local.get`.
                    let slot = slot16(lo.func, n_locals + slot as usize)?;
                    lo.vstack.push(Src::Fwd(slot, from));
                    lo.stats.stack_ops_eliminated += 1;
                } else {
                    let dst = lo.push()?;
                    lo.out.push(RegOp::GlobalGet { idx: *idx, dst });
                }
            }
            Instr::GlobalSet(idx) => {
                if lo.hoist.cached(*idx).is_some() {
                    return Err(bad("global.set inside the loop that caches it"));
                }
                let src = lo.pop()?;
                lo.out.push(RegOp::GlobalSet { idx: *idx, src });
            }

            Instr::MemorySize => {
                let dst = lo.push()?;
                lo.out.push(RegOp::MemorySize { dst });
            }
            Instr::MemoryGrow => {
                let src = lo.pop()?;
                let dst = lo.push()?;
                lo.out.push(RegOp::MemoryGrow { src, dst });
            }
            Instr::MemoryCopy | Instr::MemoryFill => {
                lo.flush_all()?;
                let args = lo.args(3, 0)?;
                lo.out.push(match instr {
                    Instr::MemoryCopy => RegOp::MemoryCopy { args },
                    _ => RegOp::MemoryFill { args },
                });
            }

            other => match map_simple(other).ok_or_else(|| bad("unknown instruction"))? {
                Simple::Const(k) => {
                    let tail = u32::try_from(k)
                        .ok()
                        .zip(ahead.scale_tail(i + 1, &[Width::W32, Width::W64]));
                    let binop = match ahead.simple(i + 1) {
                        Some(Simple::Binop(op)) => {
                            let h = lo.vstack.len().saturating_sub(1);
                            let (follow, follow_len) = ahead.follow(i + 2, op, lo.ctrl, h);
                            // A row rule reads both factors from slots: `k`
                            // takes one, and the multiply joins its row.
                            let row = matches!(follow, Follow::Addr { .. } | Follow::MulAdd { .. });
                            (!row).then_some((op, follow, follow_len))
                        }
                        _ => None,
                    };
                    if let Some((k, (load, tail_len))) = tail {
                        // The 1-D address tail `const k; i32.mul; i32.add
                        // [; load]`: base + idx*k.
                        used = 1 + tail_len;
                        let idx = lo.pop()?;
                        let base = lo.pop()?;
                        if let Some((w, offset)) = load {
                            fusion.record(Rule::IdxLoad);
                            let dst = lo.push()?;
                            lo.out
                                .push(sel_scale_add_load(base, idx, k, w, offset, dst));
                        } else {
                            fusion.record(Rule::IdxAddr);
                            lo.emit_value(true, |dst| RegOp::ScaleAdd { base, idx, k, dst })?;
                        }
                    } else if let Some((op, follow, follow_len)) = binop {
                        // `const k; binop`: `k` is the inline right operand.
                        // Of the binop's follows only a `local.set` joins:
                        // the register code has no constant form of the
                        // store, branch and address sinks.
                        let a = lo.pop()?;
                        if let Follow::Set(local) = follow {
                            fusion.record(Rule::BinopSet);
                            used = 2 + follow_len;
                            deferred_set = true;
                            let dst = lo.sink(local)?;
                            lo.out.push(sel_binop_k(op, a, k, dst));
                        } else {
                            fusion.record(Rule::BinopK);
                            used = 2;
                            lo.emit_value(!op.traps(), |dst| sel_binop_k(op, a, k, dst))?;
                        }
                    } else {
                        lo.emit_value(true, |dst| RegOp::Const { bits: k, dst })?;
                    }
                }
                // Reinterpret casts are identities on raw slots: no code,
                // the value stays wherever it lives.
                Simple::Reinterpret => {}
                Simple::Binop(op) => {
                    let h = lo.vstack.len().saturating_sub(2);
                    let (follow, follow_len) = ahead.follow(i + 1, op, lo.ctrl, h);
                    used = 1 + follow_len;
                    if matches!(follow, Follow::Br(_)) {
                        lo.flush_below(2)?;
                    }
                    let b = lo.pop()?;
                    let a = lo.pop()?;
                    // The ops that push their result go through
                    // `emit_value`, which may move them out of the loop.
                    let reg_op = match follow {
                        Follow::Push => {
                            lo.emit_value(!op.traps(), |dst| sel_binop(op, a, b, dst))?;
                            None
                        }
                        Follow::Set(dst) => {
                            fusion.record(Rule::BinopSet);
                            deferred_set = true;
                            Some(sel_binop(op, a, b, lo.sink(dst)?))
                        }
                        Follow::Store(offset) => {
                            fusion.record(Rule::BinopStore);
                            Some(RegOp::AddStoreF64 {
                                a,
                                b,
                                addr: lo.pop()?,
                                offset,
                            })
                        }
                        Follow::Br(jump_if) => {
                            fusion.record(Rule::CmpBr);
                            let jump = &code[i + used - 1];
                            lo.head_test(jump);
                            let target = lo.cond_target(module, jump)?;
                            Some(RegOp::CmpBr {
                                op,
                                a,
                                b,
                                jump_if,
                                latch: false,
                                target,
                            })
                        }
                        Follow::Load(w, offset) => {
                            fusion.record(Rule::AddLoad);
                            Some(sel_scale_add_load(a, b, 1, w, offset, lo.push()?))
                        }
                        Follow::Addr { z, k, load } => {
                            let (y, n, z) = (a, b, lo.read_local(z)?);
                            let base = lo.pop()?;
                            if let Some(offset) = load {
                                fusion.record(Rule::IdxLoad);
                                Some(RegOp::IdxLAddLoadF64 {
                                    base,
                                    y,
                                    n,
                                    z,
                                    k,
                                    offset,
                                    dst: lo.push()?,
                                })
                            } else {
                                fusion.record(Rule::IdxAddr);
                                lo.emit_value(true, |dst| RegOp::IdxLAdd {
                                    base,
                                    y,
                                    n,
                                    z,
                                    k,
                                    dst,
                                })?;
                                None
                            }
                        }
                        Follow::MulAdd { z, set } => {
                            fusion.record(Rule::MulAdd);
                            let z = lo.read_local(z)?;
                            deferred_set = set.is_some();
                            match set {
                                Some(local) => Some(RegOp::MulAddI32 {
                                    y: a,
                                    n: b,
                                    z,
                                    dst: lo.sink(local)?,
                                }),
                                None => {
                                    lo.emit_value(true, |dst| RegOp::MulAddI32 {
                                        y: a,
                                        n: b,
                                        z,
                                        dst,
                                    })?;
                                    None
                                }
                            }
                        }
                    };
                    lo.out.extend(reg_op);
                }
                Simple::Unop(op) => {
                    // A bare truthiness chain `i32.eqzⁿ; jump` (no binop in
                    // front to take it as a follow) folds into the jump.
                    let fold = match op {
                        UnOpKind::I32Eqz => {
                            let h = lo.vstack.len().saturating_sub(1);
                            ahead.cond_jump(i + 1, lo.ctrl, h)
                        }
                        _ => None,
                    };
                    if let Some((jump_if, jump_len)) = fold {
                        fusion.record(Rule::EqzBr);
                        used = 1 + jump_len;
                        lo.flush_below(1)?;
                        let cond = lo.pop()?;
                        let target = lo.cond_target(module, &code[i + used - 1])?;
                        lo.out.push(RegOp::BrIf {
                            cond,
                            jump_if: !jump_if,
                            target,
                        });
                    } else {
                        let src = lo.pop()?;
                        lo.emit_value(!op.traps(), |dst| RegOp::Unop { op, src, dst })?;
                    }
                }
                Simple::Load { kind, offset } => {
                    let addr = lo.pop()?;
                    let dst = lo.push()?;
                    lo.out.push(RegOp::Load {
                        kind,
                        addr,
                        offset,
                        dst,
                    });
                }
                Simple::Store { kind, offset } => {
                    let val = lo.pop()?;
                    let addr = lo.pop()?;
                    lo.out.push(sel_store(kind, addr, val, offset));
                }
            },
        }
        // Everything lowered here retires at the first op emitted for it,
        // except a deferred set.
        let retired = i + used - usize::from(deferred_set);
        for instr in &code[i..retired] {
            lo.pending.merge(&ProfOp::of_instr(instr));
        }
        lo.sync();
        if deferred_set {
            lo.pending.merge(&ProfOp::of_instr(&code[retired]));
        }
        i += used;
    }
    if !lo.ctrl.is_empty() {
        return Err(bad("truncated body: unbalanced control (missing end)"));
    }
    // Every body ends on the return its final `end` emits, so no weight
    // can be left pending.
    if lo.prof.len() != lo.out.len() || lo.pending != ProfOp::zero() {
        return Err(bad("lowering produced skewed code/prof arrays"));
    }

    let frame_size = base + lo.motion.moved.len() + lo.max_height;
    slot16(lo.func, frame_size)?; // the whole frame must stay u16-addressable
    let (code, prof) = if lo.motion.moved.is_empty() {
        (lo.out, lo.prof)
    } else {
        splice(lo.out, lo.prof, lo.motion, base)?
    };
    let stats = lo.stats;
    stats.funcs += 1;
    stats.frame_slots += frame_size as u64;

    Ok(RegFunc {
        n_params: n_params as u32,
        n_locals: n_locals as u32,
        n_results: n_results as u32,
        frame_size: frame_size as u32,
        result_types: ty.results.clone().into_boxed_slice(),
        code: code.into_boxed_slice(),
        prof: prof.into_boxed_slice(),
    })
}

/// Code motion's last step: inserts each loop's hoist list in front of its
/// head, after the loop's global loads, and points each jump where it
/// meant to go: a jump to a loop's head (it comes from inside the loop)
/// past the list, any other jump in front of the lists at its target. The
/// cache slots the walk numbered down from `u16::MAX` become the slots
/// from `base` on, below the operand slots (a callee's frame starts at
/// one), which move up past them. The moved ops retire nothing: their
/// weight rode the next op of their loop.
fn splice(
    mut out: Vec<RegOp>,
    prof: Vec<ProfOp>,
    m: &mut Motion,
    base: usize,
) -> Result<(Vec<RegOp>, Vec<ProfOp>), Trap> {
    let moved = m.moved.len();
    let cache = |s: &mut u16| {
        let n = usize::from(u16::MAX - *s);
        if n < moved {
            *s = (base + n) as u16;
        } else if usize::from(*s) >= base {
            *s += moved as u16;
        }
    };
    // Each list in the order its ops were moved; the lists are in the
    // order of their loops, so of their heads.
    m.moved.sort_by_key(|op| op.0);
    let mut len = vec![0; m.heads.len()];
    for op in &m.moved {
        len[op.0 as usize] += 1;
    }
    // Where position `p` of `out` lands, in front of its lists, and where
    // each list ends.
    let mut enter = Vec::with_capacity(out.len() + 1);
    let mut inside = vec![0; m.heads.len()];
    let (mut shift, mut l) = (0, 0);
    for p in 0..=out.len() as u32 {
        enter.push(p + shift);
        while m.heads.get(l) == Some(&p) {
            shift += len[l];
            inside[l] = p + shift;
            l += 1;
        }
    }
    if l != m.heads.len() {
        return Err(bad("hoist lists out of code order"));
    }
    for op in &mut out {
        for arm in 0..op.arms() {
            if let Some(t) = op.target_mut(arm) {
                *t = *enter
                    .get(*t as usize)
                    .ok_or_else(|| bad("jump past the code"))?;
            }
        }
        op.slots_mut(cache);
    }
    for &(at, arm, list) in &m.head_jumps {
        let t = out
            .get_mut(at as usize)
            .and_then(|op| op.target_mut(arm as usize))
            .ok_or_else(|| bad("a jump to a loop head is not a jump"))?;
        *t = inside[list as usize];
    }
    let mut code = Vec::with_capacity(out.len() + moved);
    let mut weights = Vec::with_capacity(out.len() + moved);
    let mut lists = m.moved.drain(..).peekable();
    let mut l = 0;
    for (p, (op, w)) in (0..).zip(out.into_iter().zip(prof)) {
        while m.heads.get(l) == Some(&p) {
            while let Some((_, mut op)) = lists.next_if(|op| op.0 as usize == l) {
                op.slots_mut(cache);
                code.push(op);
                weights.push(ProfOp::zero());
            }
            l += 1;
        }
        code.push(op);
        weights.push(w);
    }
    Ok((code, weights))
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
    if let Some(imp) = cm.imports.get(func_idx as usize) {
        let results = host.call(&imp.module, &imp.name, memory, args)?;
        crate::exec::check_host_results(&imp.module, &imp.name, results.len(), imp.n_results)?;
        return Ok(results);
    }
    let entry = cm.funcs[func_idx as usize]
        .as_ref()
        .expect("local function register-lowered");
    let mut mem = memory.take_data();
    // This thread's frame stack, out of its cell for the run: an invoke a
    // host import makes meanwhile finds the cell empty and uses a stack of
    // its own.
    let mut stack = STACK.take();
    if stack.len() < WINDOW {
        // A window, and as much again for the frames above the entry's:
        // a call stack that fits never grows it. Growing copies the stack,
        // which commits every page of it; the zeroed allocation is
        // committed only where frames touch it.
        stack = vec![0; 2 * WINDOW];
    }
    // Monomorphize the dispatch loop on the profiler: the `None` arm
    // instantiates with the no-op profiler, whose guarded counting code
    // is erased entirely — the default hot path gains no work.
    let result = match profile {
        Some(p) => run_loop(
            cm, types, table, &mut mem, memory, globals, host, &mut stack, entry, args, p,
        ),
        None => run_loop(
            cm,
            types,
            table,
            &mut mem,
            memory,
            globals,
            host,
            &mut stack,
            entry,
            args,
            &mut crate::profile::NoProfile,
        ),
    };
    STACK.set(stack);
    memory.put_data(mem);
    result
}

/// The slots a frame window spans: every `u16` slot operand.
const WINDOW: usize = 1 << 16;

thread_local! {
    /// The frame stack of the invokes on this thread (see *Frame window*
    /// in the module docs), reused by each: at least [`WINDOW`] slots
    /// once an invoke has run.
    static STACK: Cell<Vec<Slot>> = const { Cell::new(Vec::new()) };
}

/// The window of `stack` at frame base `base`. `run_loop` keeps the stack
/// at least `WINDOW` slots past every frame base it runs at.
#[inline(always)]
fn window(stack: &mut [Slot], base: usize) -> &mut [Slot; WINDOW] {
    stack[base..]
        .first_chunk_mut()
        .expect("the frame stack holds a whole window past the frame base")
}

/// Calls imported function `imp` with its arguments at the start of
/// `args` and writes its results back there. Out of line, like
/// [`entry_results`], so that the dispatch loop holds only what its hot
/// arms run: inlined into it, these cold paths led the register allocator
/// to keep several copies of the frame base, which every dispatch then
/// refreshed.
#[inline(never)]
fn call_host(
    imp: &crate::flat::ImportedFunc,
    args: &mut [Slot],
    mem: &mut Vec<u8>,
    memory: &mut Memory,
    host: &mut dyn HostEnv,
) -> Result<(), Trap> {
    let host_args: Vec<Value> = imp
        .params
        .iter()
        .zip(args.iter())
        .map(|(ty, v)| value_from_slot(*ty, *v))
        .collect();
    // The host sees (and may grow) the real memory.
    memory.put_data(std::mem::take(mem));
    let call_result = host.call(&imp.module, &imp.name, memory, &host_args);
    *mem = memory.take_data();
    let results = call_result?;
    crate::exec::check_host_results(&imp.module, &imp.name, results.len(), imp.n_results)?;
    for (slot, v) in args.iter_mut().zip(results) {
        *slot = slot_from_value(v);
    }
    Ok(())
}

/// The results of entry function `f`, read from the start of its `frame`.
#[cold]
fn entry_results(f: &RegFunc, frame: &[Slot]) -> Vec<Value> {
    f.result_types
        .iter()
        .zip(frame)
        .map(|(ty, v)| value_from_slot(*ty, *v))
        .collect()
}

/// The register engine's dispatch loop: no operand stack, only frames of
/// statically-addressed slots (and the cached memory vec, handed back to
/// [`Memory`] around host calls), on `stack`, at least [`WINDOW`] slots
/// long.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_loop<P: Profiler>(
    cm: &CompiledModule,
    types: &[FuncType],
    table: &[Option<u32>],
    mem: &mut Vec<u8>,
    memory: &mut Memory,
    globals: &mut [Value],
    host: &mut dyn HostEnv,
    stack: &mut Vec<Slot>,
    entry: &RegFunc,
    args: &[Value],
    prof: &mut P,
) -> Result<Vec<Value>, Trap> {
    let mut frames: Vec<Frame> = Vec::new();
    let mut cur: &RegFunc = entry;
    let mut base: usize = 0;
    let mut pc: usize = 0;
    // The current frame's window: every `u16` slot index is in bounds, so
    // a slot access needs no check. The stack may hold stale slots from
    // an earlier invoke or call; the verifier has shown that no op reads a
    // slot its function has not written, except the locals, zeroed here
    // and at each call.
    let mut fr = window(stack, 0);
    for (slot, v) in fr.iter_mut().zip(args) {
        *slot = slot_from_value(*v);
    }
    fr[entry.n_params as usize..entry.n_locals as usize].fill(0);

    macro_rules! r {
        ($s:expr) => {
            fr[$s as usize]
        };
    }
    macro_rules! call_local {
        ($callee:expr, $off:expr) => {{
            let callee: &RegFunc = $callee;
            if frames.len() + 1 >= MAX_CALL_DEPTH {
                return Err(Trap::CallStackExhausted);
            }
            let new_base = base + $off as usize;
            if stack.len() < new_base + WINDOW {
                stack.resize(new_base + WINDOW, 0);
            }
            fr = window(stack, new_base);
            // Non-param locals start zeroed; slots may hold stale data
            // from a deeper earlier call (the stack never shrinks).
            fr[callee.n_params as usize..callee.n_locals as usize].fill(0);
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
            let args = &mut fr[$off as usize..];
            call_host(&cm.imports[$func as usize], args, mem, memory, host)?;
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
            #[cfg(test)]
            ledger::tally(op);
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
                let (s, d, k) = (*src as usize, *dst as usize, *keep as usize);
                fr.copy_within(s..s + k, d);
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
                    let (s, d, k) = (*src as usize, *dst as usize, *keep as usize);
                    fr.copy_within(s..s + k, d);
                    backedge!(*target);
                    pc = *target as usize;
                }
            }
            RegOp::BrTable { idx, entries } => {
                let i = as_u32(r!(*idx)) as usize;
                let e = entries[i.min(entries.len() - 1)];
                if e.keep > 0 && e.src != e.dst {
                    let (s, d, k) = (e.src as usize, e.dst as usize, e.keep as usize);
                    fr.copy_within(s..s + k, d);
                }
                backedge!(e.target);
                pc = e.target as usize;
            }
            RegOp::Return { src } => {
                let n = cur.n_results as usize;
                let s = *src as usize;
                if s != 0 && n > 0 {
                    fr.copy_within(s..s + n, 0);
                }
                match frames.pop() {
                    Some(caller) => {
                        cur = caller.func;
                        pc = caller.pc;
                        base = caller.base;
                        fr = window(stack, base);
                    }
                    None => return Ok(entry_results(cur, &fr[..])),
                }
            }
            RegOp::CallLocal { func, base: off } => {
                let callee = cm.funcs[*func as usize]
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
                match &cm.funcs[f as usize] {
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
                let a = *args as usize;
                let (dst, src, len) = (as_u32(fr[a]), as_u32(fr[a + 1]), as_u32(fr[a + 2]));
                let mem_len = mem.len() as u64;
                if u64::from(src) + u64::from(len) > mem_len
                    || u64::from(dst) + u64::from(len) > mem_len
                {
                    return Err(Trap::MemoryOutOfBounds);
                }
                mem.copy_within(src as usize..(src + len) as usize, dst as usize);
            }
            RegOp::MemoryFill { args } => {
                let a = *args as usize;
                let (dst, val, len) = (as_u32(fr[a]), as_u32(fr[a + 1]) as u8, as_u32(fr[a + 2]));
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
            RegOp::IdxLAddLoadF64 {
                base: b,
                y,
                n,
                z,
                k,
                offset,
                dst,
            } => {
                let idx = as_i32(r!(*y))
                    .wrapping_mul(as_i32(r!(*n)))
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
            RegOp::CmpBr {
                op,
                a,
                b,
                jump_if,
                latch,
                target,
            } => {
                if P::ENABLED && *latch {
                    prof.backedge();
                }
                let v = apply_binop(*op, r!(*a), r!(*b))?;
                if (as_u32(v) != 0) == *jump_if {
                    if !*latch {
                        backedge!(*target);
                    }
                    pc = *target as usize;
                }
            }
            RegOp::IncBrLtS { i, n, k, target } => {
                if P::ENABLED {
                    prof.backedge();
                }
                let v = as_i32(r!(*i)).wrapping_add(*k as i32);
                r!(*i) = from_i32(v);
                if v < as_i32(r!(*n)) {
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
            RegOp::IdxLAdd {
                base: b,
                y,
                n,
                z,
                k,
                dst,
            } => {
                let idx = as_i32(r!(*y))
                    .wrapping_mul(as_i32(r!(*n)))
                    .wrapping_add(as_i32(r!(*z)))
                    .wrapping_mul(*k as i32);
                r!(*dst) = from_i32(as_i32(r!(*b)).wrapping_add(idx));
            }
            RegOp::MulAddI32 { y, n, z, dst } => {
                let row = as_i32(r!(*y)).wrapping_mul(as_i32(r!(*n)));
                r!(*dst) = from_i32(row.wrapping_add(as_i32(r!(*z))));
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

    /// The register-engine A/B matrix: fused/unfused × counting off/on;
    /// every one passes the IR verifier before it runs.
    pub(crate) fn engine_matrix() -> Vec<(String, EngineConfig)> {
        let mut out = Vec::new();
        for fuse in [true, false] {
            for profile in [ProfileMode::Off, ProfileMode::Count] {
                let cfg = EngineConfig { fuse, profile };
                out.push((format!("{cfg:?}"), cfg));
            }
        }
        out
    }

    /// Runs an export on the oracle and on the register engine in every
    /// [`engine_matrix`] configuration; all must agree on results AND
    /// traps, and the counting runs on instret and back edges too.
    /// Register instances must not silently fall back to the interpreter.
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
        let counts = |p: &crate::profile::ExecProfile| (p.instret, p.backedges);
        let oracle_counts = counts(interp.profile().expect("counting oracle"));
        for (label, cfg) in engine_matrix() {
            let mut inst =
                Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost).unwrap();
            assert!(
                inst.reg_stats().is_some(),
                "{label}: fell back to the interpreter"
            );
            let outcome = inst.invoke(&mut NoHost, name, args);
            if let Some(p) = inst.profile() {
                assert_eq!(
                    counts(p),
                    oracle_counts,
                    "{label}: (instret, back edges) diverge from the oracle"
                );
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
        // 24 bytes (set by `BrTable`'s fat `Box<[RegBrEntry]>`).
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
        assert_eq!(inst.fusion_stats().map(|s| s.of(Rule::BinopK)), Some(1));
        // The tree oracle lowers nothing: no register program, no fusion.
        let mut oracle_run =
            Instance::instantiate_with(&module, ExecMode::Interpreted, production, &mut NoHost)
                .unwrap();
        assert!(oracle_run.reg_stats().is_none());
        assert_eq!(oracle_run.fusion_stats(), None);
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
    fn oversized_frame_is_refused_under_aot_and_runs_interpreted() {
        // 50 000 locals under a 16 000-deep operand stack: a valid module
        // whose frame cannot be addressed by u16 slots. `Aot` refuses it at
        // instantiation, naming the function and the limit, in every
        // configuration; it is never demoted to the tree. `Interpreted`
        // still runs it: result, trap and instret.
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

        for (label, cfg) in engine_matrix() {
            match Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost) {
                Err(Trap::Instantiation(msg)) => assert!(
                    msg.contains(&format!("function {f}:")) && msg.contains("limit of 65535 slots"),
                    "{label}: {msg}"
                ),
                other => panic!("{label}: expected a refusal, got {other:?}"),
            }
        }
        let counting = EngineConfig {
            profile: ProfileMode::Count,
            ..EngineConfig::default()
        };
        let mut interp =
            Instance::instantiate_with(&module, ExecMode::Interpreted, counting, &mut NoHost)
                .unwrap();
        for (arg, want, instret) in [
            (1, Ok(DEPTH as i32 + 7), 32_005),
            (-3, Ok(-5335), 64_010),
            (0, Err(Trap::DivisionByZero), 96_015),
        ] {
            let got = interp.invoke(&mut NoHost, "f", &[Value::I32(arg)]);
            assert_eq!(got, want.map(|v| vec![Value::I32(v)]), "f({arg})");
            let profile = interp.profile().expect("counting");
            assert_eq!(profile.instret, instret, "f({arg}) instret");
        }
        assert_eq!(interp.profile().expect("counting").traps, 1);
    }

    /// Compiles `bytes` to register code, fusion rules on or off.
    fn compiled(bytes: &[u8], fuse: bool) -> CompiledModule {
        let module = crate::load(bytes).unwrap();
        CompiledModule::compile_full(&module, fuse).unwrap()
    }

    /// The register code of local function `idx`.
    fn code_of(cm: &CompiledModule, idx: usize) -> &[RegOp] {
        &cm.funcs[idx].as_ref().unwrap().code
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
            let func = cm.funcs[0].as_ref().unwrap();
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
        // the generic pair where none does (an i32 operator + store, a
        // constant right operand or a trap-capable operator + branch), and
        // full parity with the oracle —
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
                        // An `i32.sub` of a constant adds its negation.
                        want.push(match (constant, traps) {
                            (false, _) => "Binop",
                            (true, false) => "AddI32K",
                            (true, true) => "BinopK",
                        });
                        // `(joined, second)`: the op a rule makes of the
                        // binop and its sink, and the sink's own op
                        // where no rule applies. A set sink changes
                        // only the binop's destination.
                        let br = Some(("CmpBr", "BrIf"));
                        let (tail, sink_ops): (&[&str], _) = match sink {
                            Sink::Push => (&["Return"], None),
                            Sink::Set => {
                                code.extend([I::LocalSet(2), I::LocalGet(2)]);
                                (&["Move", "Return"], None)
                            }
                            Sink::Store => {
                                let m = crate::instr::MemArg::new(2, 0);
                                code.extend([I::I32Store(m), I::I32Const(16), I::I32Load(m)]);
                                (&["StoreI32R", "Const", "Load", "Return"], None)
                            }
                            Sink::BrZero => {
                                code.extend([
                                    I::If(BlockType::Value(ValType::I32)),
                                    I::I32Const(1),
                                    I::Else,
                                    I::I32Const(2),
                                    I::End,
                                ]);
                                (&["Const", "Jump", "Const", "Return"], br)
                            }
                            Sink::BrNonZero => {
                                code.extend([
                                    I::BrIf(0),
                                    I::I32Const(1),
                                    I::Return,
                                    I::End,
                                    I::I32Const(2),
                                ]);
                                (&["Const", "Return", "Const", "Return"], br)
                            }
                        };
                        if let Some((joined, second)) = sink_ops {
                            if traps || constant {
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
                            if let RegOp::CmpBr { jump_if, .. } = op {
                                assert_eq!(*jump_if, sink == Sink::BrNonZero, "{ctx}");
                            }
                            if let RegOp::Binop { dst, .. }
                            | RegOp::BinopK { dst, .. }
                            | RegOp::AddI32K { dst, .. } = op
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

        // The row rules, at the `i32.mul` of `y*n + z`: each shape, the ops
        // it lowers to and how many the lowering before these rules made
        // of it (the multiply was an op of its own, and the 2-D tail
        // joined at `local.get z`), which it never exceeds.
        let m8 = crate::instr::MemArg::new(3, 0);
        let m4 = crate::instr::MemArg::new(2, 0);
        let address = |y: Vec<I>, z: u32| {
            let mut code = vec![I::I32Const(64)];
            code.extend(y);
            code.extend([I::I32Mul, I::LocalGet(z), I::I32Add]);
            code.extend([I::I32Const(8), I::I32Mul, I::I32Add]);
            code
        };
        let yn = || vec![I::LocalGet(0), I::LocalGet(1)];
        let row = || {
            vec![
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32Mul,
                I::LocalGet(2),
                I::I32Add,
            ]
        };
        let with = |mut code: Vec<I>, tail: &[I]| {
            code.extend_from_slice(tail);
            code
        };
        let load8 = [I::F64Load(m8), I::I64ReinterpretF64];
        let rows: [(&str, Vec<I>, &[&str], usize); 10] = [
            (
                "2-D load",
                with(address(yn(), 2), &load8),
                &["Const", "IdxLAddLoadF64", "Return"],
                4,
            ),
            (
                "2-D address",
                with(address(yn(), 2), &[I::I64ExtendI32U]),
                &["Const", "IdxLAdd", "Unop", "Return"],
                5,
            ),
            (
                "2-D address, 4-byte load",
                with(address(yn(), 2), &[I::I32Load(m4), I::I64ExtendI32U]),
                &["Const", "IdxLAdd", "Load", "Unop", "Return"],
                6,
            ),
            (
                "a[y*n + y]",
                with(address(yn(), 0), &load8),
                &["Const", "IdxLAddLoadF64", "Return"],
                4,
            ),
            (
                "computed row (y + 1)*n + z",
                with(
                    address(
                        vec![I::LocalGet(0), I::I32Const(1), I::I32Add, I::LocalGet(1)],
                        2,
                    ),
                    &load8,
                ),
                &["Const", "AddI32K", "IdxLAddLoadF64", "Return"],
                5,
            ),
            (
                "constant row width",
                with(address(vec![I::LocalGet(0), I::I32Const(6)], 2), &load8),
                &["Const", "Const", "IdxLAddLoadF64", "Return"],
                4,
            ),
            (
                "row index pushed",
                with(row(), &[I::I64ExtendI32S]),
                &["MulAddI32", "Unop", "Return"],
                4,
            ),
            (
                "row index set",
                with(row(), &[I::LocalSet(3), I::LocalGet(3), I::I64ExtendI32S]),
                &["MulAddI32", "Unop", "Return"],
                4,
            ),
            (
                "row index tested",
                {
                    let mut code = vec![I::Block(BlockType::Value(ValType::I64)), I::I64Const(1)];
                    code.extend(row());
                    code.extend([I::I32Eqz, I::BrIf(0), I::Drop, I::I64Const(2), I::End]);
                    code
                },
                &["Const", "Binop", "CmpBr", "Const", "Return"],
                5,
            ),
            (
                "row index as an address",
                with(row(), &[I::I64Load(m8)]),
                &["Binop", "ScaleAddLoadF64", "Return"],
                3,
            ),
        ];
        let row_module = |mut code: Vec<I>| {
            code.push(I::End);
            let mut b = ModuleBuilder::new();
            b.add_memory(1, None);
            let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 37 + 11) as u8).collect();
            b.add_data(0, &pattern);
            let ty = b.add_type(&[ValType::I32; 3], &[ValType::I64]);
            let f = b.add_func(ty, &[ValType::I32], code);
            b.export_func("f", f);
            b.build()
        };
        // In bounds, `y*n` wrapping past `i32::MAX` to an address in
        // bounds, and a 2-D address far out of bounds.
        let row_args = [
            (2, 3, 1),
            (0, 0, 0),
            (-1, 1, 0),
            (i32::MAX, 2, 5),
            (0x4000_0000, 4, 7),
            (1000, 1000, 0),
        ];
        for (ctx, code, want, parent) in rows {
            let bytes = row_module(code);
            let cm = compiled(&bytes, true);
            let code = code_of(&cm, 0);
            assert_eq!(names(code), want, "{ctx}: {code:?}");
            assert!(want.len() <= parent, "{ctx}: more ops than before");
            for op in code {
                if let RegOp::IdxLAddLoadF64 { y, z, .. } = op {
                    assert_eq!(*y == *z, ctx == "a[y*n + y]", "{ctx}: {op:?}");
                }
                if let RegOp::MulAddI32 { dst, .. } = op {
                    assert_eq!(*dst == 3, ctx == "row index set", "{ctx}: {op:?}");
                }
            }
            for (y, n, z) in row_args {
                let args = [Value::I32(y), Value::I32(n), Value::I32(z)];
                let out = agreed_outcome(&bytes, "f", &args, &format!("{ctx} f({y},{n},{z})"));
                if ctx == "2-D load" {
                    assert_eq!(out.is_err(), y == 1000, "{ctx} f({y},{n},{z}): {out:?}");
                }
            }
            assert_verifies(&bytes);
        }
        // The former 2-D shape whose row is not a multiply (here a plain
        // local) joined at its `local.get z`; that rule is gone, and it
        // lowers to the add and a 1-D tail, one op more than it was.
        let bytes = row_module(with(
            vec![
                I::I32Const(64),
                I::LocalGet(0),
                I::LocalGet(2),
                I::I32Add,
                I::I32Const(8),
                I::I32Mul,
                I::I32Add,
            ],
            &load8,
        ));
        let cm = compiled(&bytes, true);
        assert_eq!(
            names(code_of(&cm, 0)),
            ["Const", "Binop", "ScaleAddLoadF64", "Return"]
        );
        for (y, n, z) in row_args {
            let args = [Value::I32(y), Value::I32(n), Value::I32(z)];
            assert_matrix_agrees(&bytes, "f", &args, &format!("plain row f({y},{n},{z})"));
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn wide_constant_compares_then_branches() {
        // A constant right operand goes inline into the comparison, however
        // wide, and the branch stays its own op: no rule joins a
        // compare-with-constant to its branch.
        for k in [1i64 << 40, 7] {
            let mut b = ModuleBuilder::new();
            let ty = b.add_type(&[ValType::I64], &[ValType::I32]);
            let f = b.add_func(
                ty,
                &[],
                vec![
                    I::LocalGet(0),
                    I::I64Const(k),
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
            assert_eq!(names(code_of(&cm, 0))[..2], ["BinopK", "BrIf"], "k = {k}");
            assert_eq!(
                (cm.fusion.of(Rule::BinopK), cm.fusion.of(Rule::CmpBr)),
                (1, 0),
                "k = {k}"
            );
            for (arg, want) in [(k, 1), (k + 1, 2), (0, 2)] {
                let out = agreed_outcome(&bytes, "f", &[Value::I64(arg)], "constant k").unwrap();
                assert_eq!(out, vec![Value::I32(want)], "f({arg}), k = {k}");
            }
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

    // Were the look-ahead to read past an `end`, the bodies of the next
    // two tests would fuse across the landing site and the branch into it
    // would have no register op to go to.

    #[test]
    fn set_sink_stops_at_a_jump_target() {
        let bytes = target_between_binop_and_set();
        let cm = compiled(&bytes, true);
        assert_eq!(cm.fusion.of(Rule::BinopSet), 0, "{:?}", code_of(&cm, 0));
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
            (cm.fusion.of(Rule::IdxAddr), cm.fusion.of(Rule::BinopK)),
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
    fn register_code_is_pinned() {
        // The register code of the benchmark's guests, one digest per
        // suite — the 30 PolyBench kernels, the speedtest guest, the
        // Genann guest — so a lowering change shows which suite's code it
        // moved: every function's ops, retirement table and frame, fused
        // then unfused, rendered with `Debug` and hashed, and
        // the suite's fusions (the unfused compile makes none).
        use workloads::{genann_guest, polybench, speedtest};
        let options = minic::Options {
            min_pages: 256,
            max_pages: None,
        };
        let suites = [
            (
                "polybench",
                polybench::suite()
                    .iter()
                    .map(|k| minic::compile(k.minic).expect("kernel compiles"))
                    .collect(),
            ),
            (
                "minisql",
                vec![minic::compile_with_options(speedtest::MINISQL_GUEST, &options).unwrap()],
            ),
            (
                "genann",
                vec![minic::compile(&genann_guest::source()).unwrap()],
            ),
        ];
        let pins: Vec<(&str, u64, String)> = suites
            .iter()
            .map(|(name, corpus): &(&str, Vec<Vec<u8>>)| {
                let mut h = watz_crypto::sha256::Sha256::new();
                let mut fused = 0;
                for fuse in [true, false] {
                    for wasm in corpus {
                        let module = crate::load(wasm).unwrap();
                        let cm = CompiledModule::compile_full(&module, fuse).unwrap();
                        if fuse {
                            fused += cm.fusion.total();
                        } else {
                            assert_eq!(cm.fusion, FusionStats::default(), "{name}");
                        }
                        for f in cm.funcs.iter().flatten() {
                            h.update(format!("{f:?}").as_bytes());
                        }
                    }
                }
                let hex = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
                (*name, fused, hex)
            })
            .collect();
        // Re-pinned, every suite, for code motion: loop-invariant ops
        // moved in front of their loops (into cache slots below the
        // operand slots, which moved up), `CmpBrLtSZ` went for `CmpBr`,
        // and an `i32.sub` of a constant became an `AddI32K`. The unfused
        // code did not move. A head that compared with a moved value now
        // has a latch: 201 → 252 in PolyBench (`i < n - 1`, `r < n*n*n`)
        // and 29 → 30 in minisql (its delete loop's `i < count - 1`).
        // (Before that, the `latch` rule moved every suite, with 1607 /
        // 463 / 196 other fusions; the check-free opcodes, the i32
        // multiply and the unfused full-width load forms went one op for
        // one op, and global hoisting moved minisql and Genann only.)
        let want = [
            (
                "polybench",
                1607 + 252,
                "dd5d5bd3a6a13329396e86929890db35ea44ae03b18994c1d64e7b6d1d141809",
            ),
            (
                "minisql",
                463 + 30,
                "92dbe30571fc4a554b8003c4579ba7ee5d9f3c53437161afb9567ecbb979ce2f",
            ),
            (
                "genann",
                196 + 2,
                "e6c4429e4254d79cb4db39109b822fa55d10e17d98f6d743f8ece9c46192773a",
            ),
        ];
        assert_eq!(
            pins,
            want.map(|(name, fused, hex)| (name, fused, hex.to_string()))
        );
    }

    /// Compiles `bytes` fused and unfused, and has the verifier accept
    /// both results.
    fn assert_verifies(bytes: &[u8]) {
        let module = crate::load(bytes).unwrap();
        for fuse in [true, false] {
            let cm = CompiledModule::compile_full(&module, fuse).unwrap();
            if let Err(e) = crate::verify::verify_module(&cm, &module.types) {
                panic!("fuse = {fuse}: {e}");
            }
        }
    }

    #[test]
    fn param_block_between_a_binop_and_its_set() {
        // `i32.div_s; block (param i32); local.set` — the look-ahead stops
        // at the `block`, so the division keeps its own op (and its own
        // trap point) and the set sits inside the block.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let takes_one = b.add_type(&[ValType::I32], &[]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32DivS,
                I::Block(BlockType::Func(takes_one)),
                I::LocalSet(2),
                I::End,
                I::LocalGet(2),
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        assert_eq!(compiled(&bytes, true).fusion.of(Rule::BinopSet), 0);
        for (x, y, want) in [
            (7, 2, Ok(vec![Value::I32(3)])),
            (i32::MIN, -1, Err(Trap::IntegerOverflow)),
            (5, 0, Err(Trap::DivisionByZero)),
        ] {
            let args = [Value::I32(x), Value::I32(y)];
            assert_eq!(agreed_outcome(&bytes, "f", &args, "param block"), want);
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn loop_without_back_edge_over_a_forwarded_local() {
        // `local.get 0` is still forwarded when the walk reaches a loop
        // that no branch re-enters, and the loop body overwrites local 0:
        // the loop head flushes the pending operand to its own slot.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::Loop(BlockType::Empty),
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(0),
                I::End,
                I::LocalGet(0),
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        for fuse in [true, false] {
            let cm = compiled(&bytes, fuse);
            assert_eq!(names(code_of(&cm, 0))[0], "Move", "fuse = {fuse}");
        }
        for x in [0, 41, -1, i32::MAX] {
            let out = agreed_outcome(&bytes, "f", &[Value::I32(x)], "loop head");
            let want = x.wrapping_add(x.wrapping_add(1));
            assert_eq!(out.unwrap(), vec![Value::I32(want)], "f({x})");
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn value_carrying_br_out_of_nested_blocks() {
        // `br 1` carries 2x past both blocks' end, dropping the 5 and 6
        // beneath it; the dead `i32.add` after the inner end stays lowered.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let i32_block = BlockType::Value(ValType::I32);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::I32Const(1000),
                I::Block(i32_block),
                I::I32Const(5),
                I::Block(i32_block),
                I::I32Const(6),
                I::LocalGet(0),
                I::I32Const(2),
                I::I32Mul,
                I::Br(1),
                I::End,
                I::I32Add,
                I::End,
                I::I32Add,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        assert!(names(code_of(&compiled(&bytes, true), 0)).contains(&"BrMoves".to_string()));
        for x in [0, 21, -500] {
            let out = agreed_outcome(&bytes, "f", &[Value::I32(x)], "br 1 with a value");
            assert_eq!(out.unwrap(), vec![Value::I32(1000 + 2 * x)], "f({x})");
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn if_without_else_carries_a_value_through() {
        // `if (param i32) (result i32)` without an `else`: the false path
        // jumps to the end with the value untouched. The condition is a
        // comparison, so with fusion on the `if` ends a compare-and-branch
        // window and opens its frame there.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32, ValType::I32], &[ValType::I32]);
        let through = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::LocalGet(1),
                I::LocalGet(2),
                I::I32LtS,
                I::If(BlockType::Func(through)),
                I::I32Const(10),
                I::I32Add,
                I::End,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        assert_eq!(compiled(&bytes, true).fusion.of(Rule::CmpBr), 1);
        for (x, a, c, want) in [(1, 2, 3, 11), (1, 3, 2, 1), (-7, 0, 0, -7)] {
            let args = [Value::I32(x), Value::I32(a), Value::I32(c)];
            let out = agreed_outcome(&bytes, "f", &args, "if without else");
            assert_eq!(out.unwrap(), vec![Value::I32(want)], "f({x},{a},{c})");
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn unreachable_code_after_br_table_in_nested_blocks() {
        // Everything between the `br_table` and its block's end is dead,
        // nested blocks, a loop and an if/else included: the walk emits
        // none of it and resumes at the end with a re-seeded stack.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::Block(BlockType::Empty),
                I::Block(BlockType::Empty),
                I::Block(BlockType::Empty),
                I::LocalGet(0),
                I::BrTable {
                    targets: vec![0, 1],
                    default: 2,
                },
                I::I32Const(1),
                I::Block(BlockType::Value(ValType::I32)),
                I::I32Const(2),
                I::Br(0),
                I::I32Const(3),
                I::End,
                I::Drop,
                I::Drop,
                I::Loop(BlockType::Empty),
                I::Br(0),
                I::End,
                I::I32Const(0),
                I::If(BlockType::Empty),
                I::Nop,
                I::Else,
                I::Unreachable,
                I::End,
                I::End,
                I::I32Const(10),
                I::Return,
                I::End,
                I::I32Const(20),
                I::Return,
                I::End,
                I::I32Const(30),
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        for fuse in [true, false] {
            let cm = compiled(&bytes, fuse);
            let code = names(code_of(&cm, 0));
            assert!(!code.contains(&"Unreachable".to_string()), "{code:?}");
        }
        for (arg, want) in [(0, 10), (1, 20), (2, 30), (-1, 30)] {
            let out = agreed_outcome(&bytes, "f", &[Value::I32(arg)], "dead code");
            assert_eq!(out.unwrap(), vec![Value::I32(want)], "f({arg})");
        }
        assert_verifies(&bytes);
    }

    // ---- loop latches ----------------------------------------------------

    /// `for (i = 0; i < n; i += 1) acc += i; return acc`, with `n` in param
    /// 0 and `m` in param 1, locals `i` (2) and `acc` (3), as MiniC emits
    /// it; `between` goes between the step and the `br` back.
    fn for_loop(between: &[I]) -> Vec<u8> {
        let mut code = vec![
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(2),
            I::LocalGet(0),
            I::I32LtS,
            I::I32Eqz,
            I::BrIf(1),
            I::LocalGet(3),
            I::LocalGet(2),
            I::I32Add,
            I::LocalSet(3),
            I::LocalGet(2),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(2),
        ];
        code.extend_from_slice(between);
        code.extend([I::Br(0), I::End, I::End, I::LocalGet(3), I::End]);
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(ty, &[ValType::I32, ValType::I32], code);
        b.export_func("f", f);
        b.build()
    }

    /// Runs `f(n, m)` of `bytes` for a few `n` and both `m` on every engine
    /// (results, instret and back edges agree), against `0 + 1 + … + n-1`.
    fn assert_sums(bytes: &[u8]) {
        for n in [0, 1, 5, -3] {
            for m in [0, 1] {
                let args = [Value::I32(n), Value::I32(m)];
                let out = agreed_outcome(bytes, "f", &args, &format!("f({n}, {m})"));
                let want = (0..n.max(0)).sum::<i32>();
                assert_eq!(out, Ok(vec![Value::I32(want)]), "f({n}, {m})");
            }
        }
        assert_verifies(bytes);
    }

    #[test]
    fn a_counted_loop_steps_and_tests_in_one_op() {
        // The step, the `br` back and a copy of the head test are one
        // `IncBrLtS`, which jumps past the head; the exit jump follows it.
        // Unfused, the loop keeps its `Jump` back to the head.
        let bytes = for_loop(&[]);
        let cm = compiled(&bytes, true);
        let code = code_of(&cm, 0);
        assert_eq!(
            names(code)[..4],
            ["CmpBr", "Binop", "IncBrLtS", "Jump"],
            "{code:?}"
        );
        assert!(matches!(
            code[2],
            RegOp::IncBrLtS {
                i: 2,
                n: 0,
                k: 1,
                target: 1
            }
        ));
        assert_eq!(cm.fusion.of(Rule::Latch), 1);
        let unfused = compiled(&bytes, false);
        assert!(!names(code_of(&unfused, 0)).contains(&"IncBrLtS".to_string()));
        assert_sums(&bytes);
    }

    #[test]
    fn a_branch_between_the_step_and_the_br_keeps_the_step_apart() {
        // `if (m == 0) i += 1`, after `i += 1`: the block's end, where the
        // skipping branch lands, sits between the second step and the
        // `br`. The landing site starts with the move that carries the
        // step's `local.set` weight, so the latch copies the head test
        // alone.
        let bytes = for_loop(&[
            I::Block(BlockType::Empty),
            I::LocalGet(1),
            I::BrIf(0),
            I::LocalGet(2),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(2),
            I::End,
        ]);
        let cm = compiled(&bytes, true);
        let code = code_of(&cm, 0);
        assert!(!names(code).contains(&"IncBrLtS".to_string()), "{code:?}");
        assert!(
            code.iter().any(|op| matches!(
                op,
                RegOp::CmpBr {
                    latch: true,
                    jump_if: true,
                    ..
                }
            )),
            "{code:?}"
        );
        assert_eq!(cm.fusion.of(Rule::Latch), 1);
        // With `m == 0` the loop steps by two: it sums the even `i` only.
        for n in [0, 1, 6, -3] {
            for m in [0, 1] {
                let args = [Value::I32(n), Value::I32(m)];
                let out = agreed_outcome(&bytes, "f", &args, &format!("f({n}, {m})"));
                let step = if m == 0 { 2 } else { 1 };
                let want = (0..n.max(0)).step_by(step).sum::<i32>();
                assert_eq!(out, Ok(vec![Value::I32(want)]), "f({n}, {m})");
            }
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn only_a_valueless_br_to_a_loop_with_a_compare_at_its_head_is_a_latch() {
        // A `br` carrying the loop's param, a head that is not a compare,
        // and a `br_if` back are no latch; a head `i >= n` rotates into a
        // `CmpBr` that cannot join the step.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let param = b.add_type(&[ValType::I32], &[ValType::I32]);
        let head = |test: Vec<I>| {
            let mut code = vec![I::Block(BlockType::Empty), I::Loop(BlockType::Empty)];
            code.extend(test);
            code.extend([
                I::BrIf(1),
                I::LocalGet(3),
                I::LocalGet(2),
                I::I32Add,
                I::LocalSet(3),
                I::LocalGet(2),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(2),
            ]);
            code
        };
        let params = vec![
            I::Block(BlockType::Value(ValType::I32)),
            I::I32Const(0),
            I::Loop(BlockType::Func(param)),
            I::LocalGet(2),
            I::LocalGet(0),
            I::I32LtS,
            I::I32Eqz,
            I::BrIf(1),
            I::LocalGet(2),
            I::I32Add,
            I::LocalGet(2),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(2),
            I::Br(0),
            I::End,
            I::End,
            I::End,
        ];
        let mut flag = head(vec![I::LocalGet(1), I::I32Eqz]);
        flag.extend([I::LocalGet(1), I::I32Const(1), I::I32Sub, I::LocalSet(1)]);
        let mut cont = head(vec![I::LocalGet(2), I::LocalGet(0), I::I32GeS]);
        cont.extend([I::I32Const(1), I::BrIf(0), I::Unreachable]);
        let mut ge = head(vec![I::LocalGet(2), I::LocalGet(0), I::I32GeS]);
        ge.push(I::Br(0));
        let mut funcs = Vec::new();
        for mut code in [flag, cont, ge] {
            if !matches!(code.last(), Some(I::Br(_) | I::Unreachable)) {
                code.push(I::Br(0));
            }
            code.extend([I::End, I::End, I::LocalGet(3), I::End]);
            funcs.push(b.add_func(ty, &[ValType::I32, ValType::I32], code));
        }
        funcs.push(b.add_func(ty, &[ValType::I32, ValType::I32], params));
        for (name, f) in ["flag", "cont", "ge", "param"].iter().zip(&funcs) {
            b.export_func(name, *f);
        }
        let bytes = b.build();
        let cm = compiled(&bytes, true);
        let latches = |idx: usize| {
            code_of(&cm, idx)
                .iter()
                .filter(|op| {
                    matches!(
                        op,
                        RegOp::IncBrLtS { .. } | RegOp::CmpBr { latch: true, .. }
                    )
                })
                .count()
        };
        assert_eq!([0, 1, 2, 3].map(latches), [0, 0, 1, 0]);
        assert!(matches!(
            code_of(&cm, 2)
                .iter()
                .find(|op| matches!(op, RegOp::CmpBr { latch: true, .. })),
            Some(RegOp::CmpBr {
                op: BinOpKind::I32GeS,
                jump_if: false,
                ..
            })
        ));
        assert_eq!(cm.fusion.of(Rule::Latch), 1);
        for (n, m) in [(0, 0), (4, 2), (5, 9), (-2, 1)] {
            let args = [Value::I32(n), Value::I32(m)];
            for name in ["cont", "ge", "param"] {
                let out = agreed_outcome(&bytes, name, &args, &format!("{name}({n}, {m})"));
                let want = (0..n.max(0)).sum::<i32>();
                assert_eq!(out, Ok(vec![Value::I32(want)]), "{name}({n}, {m})");
            }
            let out = agreed_outcome(&bytes, "flag", &args, &format!("flag({n}, {m})"));
            let want = (0..m.max(0)).sum::<i32>();
            assert_eq!(out, Ok(vec![Value::I32(want)]), "flag({n}, {m})");
        }
        assert_verifies(&bytes);
    }

    #[test]
    fn back_edges_match_the_oracle_on_polybench_and_minisql() {
        // A latch counts the back edge of the `br` it stands for, taken or
        // not, so the register engine, fused and unfused, counts the
        // oracle's back edges, as it retires its instructions: over the 30
        // PolyBench kernels and the speedtest guest, at the benchmark's
        // `--quick` sizes.
        use workloads::{polybench, speedtest};
        let kernel = [("kernel", vec![Value::I32(12)])];
        let mut sql = vec![("setup", vec![Value::I32(30)])];
        sql.extend(
            speedtest::experiments()
                .iter()
                .map(|e| ("run_exp", vec![Value::I32(e.id as i32), Value::I32(30)])),
        );
        let options = minic::Options {
            min_pages: 256,
            max_pages: None,
        };
        let check = |wasm: &[u8], calls: &[(&str, Vec<Value>)]| {
            let module = crate::load(wasm).unwrap();
            let mut counts = Vec::new();
            for (mode, fuse) in [
                (ExecMode::Interpreted, true),
                (ExecMode::Aot, true),
                (ExecMode::Aot, false),
            ] {
                let cfg = EngineConfig {
                    fuse,
                    profile: ProfileMode::Count,
                };
                let mut inst = Instance::instantiate_with(&module, mode, cfg, &mut NoHost).unwrap();
                for (export, args) in calls {
                    inst.invoke(&mut NoHost, export, args).unwrap();
                }
                let p = inst.profile().expect("counting");
                counts.push((p.instret, p.backedges));
            }
            assert!(counts[0].1 > 0, "{calls:?}: no back edge");
            assert_eq!(counts[1], counts[0], "fused vs the oracle, {calls:?}");
            assert_eq!(counts[2], counts[0], "unfused vs the oracle, {calls:?}");
        };
        for k in polybench::suite() {
            check(&minic::compile(k.minic).expect("kernel compiles"), &kernel);
        }
        check(
            &minic::compile_with_options(speedtest::MINISQL_GUEST, &options).unwrap(),
            &sql,
        );
    }

    // ---- global hoisting ------------------------------------------------

    /// `block; loop; br_if 1 when local i >= n; body; i += 1; br 0; end;
    /// end`, with `n` in local 0.
    fn counted(i: u32, body: &[I]) -> Vec<I> {
        let mut code = vec![
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(i),
            I::LocalGet(0),
            I::I32GeS,
            I::BrIf(1),
        ];
        code.extend_from_slice(body);
        code.extend([
            I::LocalGet(i),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(i),
            I::Br(0),
            I::End,
            I::End,
        ]);
        code
    }

    /// `acc += g`: local 2 accumulates global 0.
    const ADD_G: [I; 4] = [I::LocalGet(2), I::GlobalGet(0), I::I32Add, I::LocalSet(2)];

    /// A module with one mutable i32 global `g` (initially 7), a page of
    /// memory, an imported `env.tick`, a `bump` that adds 3 to `g` (also
    /// entry 0 of the table), and the export `f(n) -> i32`: `code`, over
    /// locals `i` (1), `acc` (2) and `j` (3). Returns the bytes and `f`'s
    /// index in the function space.
    fn hoisting_module(code: Vec<I>) -> (Vec<u8>, usize) {
        let mut b = ModuleBuilder::new();
        let void = b.add_type(&[], &[]);
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        b.import_func("env", "tick", void);
        b.add_memory(1, Some(1));
        b.add_table(1, Some(1));
        b.add_global(ValType::I32, true, I::I32Const(7));
        let bump = b.add_func(
            void,
            &[],
            vec![
                I::GlobalGet(0),
                I::I32Const(3),
                I::I32Add,
                I::GlobalSet(0),
                I::End,
            ],
        );
        b.add_elems(0, &[bump]);
        let f = b.add_func(ty, &[ValType::I32; 3], code);
        b.export_func("f", f);
        (b.build(), f as usize)
    }

    /// The globals function `func` loads into its cache slots, in code
    /// order, and how many `GlobalGet`s it still runs into operand slots —
    /// the same fused and unfused.
    fn global_loads(bytes: &[u8], func: usize) -> (Vec<u32>, usize) {
        let n_cache = cache_slots(&crate::load(bytes).unwrap(), func);
        let loads = |fuse| {
            let cm = compiled(bytes, fuse);
            let f = cm.funcs[func].as_ref().unwrap();
            let cache_end = f.n_locals as usize + n_cache;
            let (mut hoisted, mut unhoisted) = (Vec::new(), 0);
            for op in &*f.code {
                match op {
                    RegOp::GlobalGet { idx, dst } if usize::from(*dst) < cache_end => {
                        hoisted.push(*idx);
                    }
                    RegOp::GlobalGet { .. } => unhoisted += 1,
                    _ => {}
                }
            }
            (hoisted, unhoisted)
        };
        let fused = loads(true);
        assert_eq!(fused, loads(false), "fusion does not move a cache");
        fused
    }

    /// Parity of `f(n)` for each `n` on every configuration (results,
    /// traps, instret) with the results `want` (`None`: each traps), the
    /// verifier's acceptance, and the caches.
    fn assert_hoisting(code: Vec<I>, args: &[i32], want: Option<&[i32]>, loads: (&[u32], usize)) {
        let (bytes, f) = hoisting_module(code);
        for (k, n) in args.iter().enumerate() {
            let out = agreed_outcome(&bytes, "f", &[Value::I32(*n)], "hoisting");
            match want {
                Some(w) => assert_eq!(out.unwrap(), vec![Value::I32(w[k])], "f({n})"),
                None => assert!(out.is_err(), "f({n}) must trap"),
            }
        }
        assert_verifies(&bytes);
        assert_eq!(global_loads(&bytes, f), (loads.0.to_vec(), loads.1));
    }

    #[test]
    fn a_loop_that_sets_the_global_it_reads_keeps_reading_it() {
        // acc += g; g += 3, n times.
        let mut body = ADD_G.to_vec();
        body.extend([I::GlobalGet(0), I::I32Const(3), I::I32Add, I::GlobalSet(0)]);
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        assert_hoisting(code, &[0, 1, 4], Some(&[0, 7, 46]), (&[], 2));

        // The set comes first and the read sits in an inner loop, which
        // caches g on each entry: g += 3; for j < n { acc += g }.
        let mut body = vec![
            I::GlobalGet(0),
            I::I32Const(3),
            I::I32Add,
            I::GlobalSet(0),
            I::I32Const(0),
            I::LocalSet(3),
        ];
        body.extend(counted(3, &ADD_G));
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        // n = 3: (10 + 13 + 16) * 3.
        assert_hoisting(code, &[0, 1, 3], Some(&[0, 10, 117]), (&[0], 1));
    }

    #[test]
    fn a_loop_that_calls_a_setter_keeps_reading_the_global() {
        // acc += g; bump(), n times.
        let mut body = ADD_G.to_vec();
        body.push(I::Call(1));
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        assert_hoisting(code, &[0, 1, 4], Some(&[0, 7, 46]), (&[], 1));
    }

    #[test]
    fn an_indirect_call_or_a_host_import_in_a_loop_prevents_the_cache() {
        // acc += g; call_indirect bump, n times.
        let mut body = ADD_G.to_vec();
        body.extend([
            I::I32Const(0),
            I::CallIndirect {
                type_idx: 0,
                table: 0,
            },
        ]);
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        assert_hoisting(code, &[0, 1, 4], Some(&[0, 7, 46]), (&[], 1));

        // acc += g; env.tick() once i reaches 2: traps on the host here,
        // at the same instruction count on every configuration.
        let mut body = ADD_G.to_vec();
        body.extend([
            I::LocalGet(1),
            I::I32Const(2),
            I::I32Eq,
            I::If(BlockType::Empty),
            I::Call(0),
            I::End,
        ]);
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        assert_hoisting(code.clone(), &[0, 2], Some(&[0, 14]), (&[], 1));
        assert_hoisting(code, &[3], None, (&[], 1));
    }

    #[test]
    fn nested_loops_share_one_cache_unless_the_outer_one_calls() {
        // A call-free outer loop: its one load serves the inner loop too.
        // acc += g; for j < n { acc += g }.
        let mut body = ADD_G.to_vec();
        body.extend([I::I32Const(0), I::LocalSet(3)]);
        body.extend(counted(3, &ADD_G));
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        assert_hoisting(code, &[0, 1, 3], Some(&[0, 14, 84]), (&[0], 0));

        // The outer loop calls `bump`: the inner loop loads the cache on
        // each entry, the outer loop's own read stays a `GlobalGet`.
        // acc += g; for j < n { acc += g }; bump().
        let mut body = ADD_G.to_vec();
        body.extend([I::I32Const(0), I::LocalSet(3)]);
        body.extend(counted(3, &ADD_G));
        body.push(I::Call(1));
        let mut code = counted(1, &body);
        code.extend([I::LocalGet(2), I::End]);
        // n = 3: (7 + 10 + 13) * 4.
        assert_hoisting(code, &[0, 1, 3], Some(&[0, 14, 120]), (&[0], 1));
    }

    #[test]
    fn a_forwarded_cache_survives_a_set_and_a_second_cache_of_its_global() {
        // x = loop (result i32) { i += 1; br_if 0 when i < n; g } — x stays
        // forwarded from the cache slot past the loop; g = 100; then a
        // second loop caches g again: for j < n { acc += g }; x + acc.
        let mut code = vec![
            I::Loop(BlockType::Value(ValType::I32)),
            I::LocalGet(1),
            I::I32Const(1),
            I::I32Add,
            I::LocalTee(1),
            I::LocalGet(0),
            I::I32LtS,
            I::BrIf(0),
            I::GlobalGet(0),
            I::End,
            I::I32Const(100),
            I::GlobalSet(0),
        ];
        code.extend(counted(3, &ADD_G));
        code.extend([I::LocalGet(2), I::I32Add, I::End]);
        assert_hoisting(code, &[0, 1, 3], Some(&[7, 107, 307]), (&[0, 0], 0));
    }

    #[test]
    fn a_load_through_a_cached_base_traps_at_the_oracle_count() {
        // g = 65 528, the last 8 bytes of the page; acc += mem[g + 4 i].
        let body = [
            I::LocalGet(2),
            I::GlobalGet(0),
            I::LocalGet(1),
            I::I32Const(4),
            I::I32Mul,
            I::I32Add,
            I::I32Load(crate::instr::MemArg::new(2, 0)),
            I::I32Add,
            I::LocalSet(2),
        ];
        let mut code = vec![I::I32Const(65_528), I::GlobalSet(0)];
        code.extend(counted(1, &body));
        code.extend([I::LocalGet(2), I::End]);
        assert_hoisting(code.clone(), &[0, 2], Some(&[0, 0]), (&[0], 0));
        assert_hoisting(code, &[3, 50], None, (&[0], 0));
    }

    #[test]
    fn a_loop_in_unreachable_code_loads_no_cache() {
        // block { br 0; for i < n { acc += g } }; g.
        let mut code = vec![I::Block(BlockType::Empty), I::Br(0)];
        code.extend(counted(1, &ADD_G));
        code.extend([I::End, I::GlobalGet(0), I::End]);
        assert_hoisting(code, &[0, 3], Some(&[7, 7]), (&[], 1));
    }

    // ---- code motion -----------------------------------------------------

    /// The locals of [`motion`]'s `f(n, m)` past its params: the loop
    /// counter `i`, `x`, `acc`, a second counter `j`, and the f64s `d` and
    /// `accf`.
    const CTR: u32 = 2;
    const X: u32 = 3;
    const ACC: u32 = 4;
    const CTR2: u32 = 5;
    const D: u32 = 6;
    const ACCF: u32 = 7;

    /// `f(n, m) -> i32` running `code`, in a module with [`hoisting_module`]'s
    /// import, memory, global `g` and `bump` (function 1), on every engine
    /// for each `(n, m, want)` (`None`: it traps): results, traps, instret
    /// and back edges agree, and the verifier accepts both compiles.
    /// Returns the bytes and how many ops the fused compile moved out of
    /// loops.
    fn motion(code: Vec<I>, cases: &[(i32, i32, Option<i32>)]) -> (Vec<u8>, u64) {
        let mut b = ModuleBuilder::new();
        let void = b.add_type(&[], &[]);
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        b.import_func("env", "tick", void);
        b.add_memory(1, Some(1));
        b.add_global(ValType::I32, true, I::I32Const(7));
        let bump = [
            I::GlobalGet(0),
            I::I32Const(3),
            I::I32Add,
            I::GlobalSet(0),
            I::End,
        ];
        b.add_func(void, &[], bump.to_vec());
        let locals = [ValType::I32, ValType::I32, ValType::I32, ValType::I32];
        let f = b.add_func(ty, &[&locals[..], &[ValType::F64; 2]].concat(), code);
        b.export_func("f", f);
        let bytes = b.build();
        for &(n, m, want) in cases {
            let args = [Value::I32(n), Value::I32(m)];
            let out = agreed_outcome(&bytes, "f", &args, &format!("f({n}, {m})"));
            match want {
                Some(w) => assert_eq!(out, Ok(vec![Value::I32(w)]), "f({n}, {m})"),
                None => assert!(out.is_err(), "f({n}, {m}) must trap"),
            }
        }
        assert_verifies(&bytes);
        let unfused = compiled(&bytes, false).stats.hoisted;
        assert_eq!(unfused, 0, "code motion runs only with the fusion rules");
        let hoisted = compiled(&bytes, true).stats.hoisted;
        (bytes, hoisted)
    }

    /// `code` then `return acc`.
    fn then_acc(mut code: Vec<I>) -> Vec<I> {
        code.extend([I::LocalGet(ACC), I::End]);
        code
    }

    #[test]
    fn a_local_the_loop_writes_through_a_tee_is_not_invariant() {
        // for i < n { acc += x + 5; x = x + 1 (a tee, dropped) }.
        let code = then_acc(counted(
            CTR,
            &[
                I::LocalGet(ACC),
                I::LocalGet(X),
                I::I32Const(5),
                I::I32Add,
                I::I32Add,
                I::LocalSet(ACC),
                I::LocalGet(X),
                I::I32Const(1),
                I::I32Add,
                I::LocalTee(X),
                I::Drop,
            ],
        ));
        let cases = [(4, 0, Some(26)), (1, 0, Some(5)), (0, 0, Some(0))];
        assert_eq!(motion(code, &cases).1, 0);
    }

    #[test]
    fn a_local_a_nested_loop_writes_is_not_invariant_in_the_outer_one() {
        // for i < n { acc += x + 5; for j < n { x += 1 } }: the outer loop
        // moves only its `j = 0`.
        let mut body = vec![
            I::LocalGet(ACC),
            I::LocalGet(X),
            I::I32Const(5),
            I::I32Add,
            I::I32Add,
            I::LocalSet(ACC),
            I::I32Const(0),
            I::LocalSet(CTR2),
        ];
        body.extend(counted(
            CTR2,
            &[I::LocalGet(X), I::I32Const(1), I::I32Add, I::LocalSet(X)],
        ));
        let code = then_acc(counted(CTR, &body));
        let cases = [(3, 0, Some(24)), (2, 0, Some(12)), (0, 0, Some(0))];
        assert_eq!(motion(code, &cases).1, 1);
    }

    #[test]
    fn a_local_an_if_arm_writes_on_the_last_iteration_is_not_invariant() {
        // for i < n { if i == n - 1 { x = 100 }; acc += x + 1 }: `n - 1`
        // moves, the `100` in the arm stays there, `x + 1` stays.
        let code = then_acc(counted(
            CTR,
            &[
                I::LocalGet(CTR),
                I::LocalGet(0),
                I::I32Const(1),
                I::I32Sub,
                I::I32Eq,
                I::If(BlockType::Empty),
                I::I32Const(100),
                I::LocalSet(X),
                I::End,
                I::LocalGet(ACC),
                I::LocalGet(X),
                I::I32Const(1),
                I::I32Add,
                I::I32Add,
                I::LocalSet(ACC),
            ],
        ));
        let cases = [(3, 0, Some(103)), (1, 0, Some(101)), (0, 0, Some(0))];
        assert_eq!(motion(code, &cases).1, 1);
    }

    #[test]
    fn an_invariant_division_the_loop_never_reaches_does_not_trap() {
        // for i < n { if m == 0 break; acc += n / m; if m != 7 break;
        // acc += n / 0 }: both divisions are invariant, neither moves, so
        // `m = 0` never divides and only `m = 7` reaches the `/ 0`.
        let code = then_acc(counted(
            CTR,
            &[
                I::LocalGet(1),
                I::I32Eqz,
                I::BrIf(1),
                I::LocalGet(ACC),
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32DivS,
                I::I32Add,
                I::LocalSet(ACC),
                I::LocalGet(1),
                I::I32Const(7),
                I::I32Ne,
                I::BrIf(1),
                I::LocalGet(ACC),
                I::LocalGet(0),
                I::I32Const(0),
                I::I32DivS,
                I::I32Add,
                I::LocalSet(ACC),
            ],
        ));
        let cases = [
            (3, 0, Some(0)),
            (3, 2, Some(1)),
            (0, 7, Some(0)),
            (3, 7, None),
        ];
        // Only `m != 7` moves.
        assert_eq!(motion(code, &cases).1, 1);
    }

    #[test]
    fn an_invariant_f64_expression_moves_and_a_loop_that_runs_zero_times_skips_its_weight() {
        // d = n; for i < n { accf += d * 2.5 + d }; (i32) accf.
        let mut code = vec![I::LocalGet(0), I::F64ConvertI32S, I::LocalSet(D)];
        code.extend(counted(
            CTR,
            &[
                I::LocalGet(ACCF),
                I::LocalGet(D),
                I::F64Const(2.5),
                I::F64Mul,
                I::LocalGet(D),
                I::F64Add,
                I::F64Add,
                I::LocalSet(ACCF),
            ],
        ));
        code.extend([I::LocalGet(ACCF), I::I32TruncF64S, I::End]);
        let cases = [
            (4, 0, Some(56)),
            (1, 0, Some(3)),
            (0, 0, Some(0)),
            (-3, 0, Some(0)),
        ];
        assert_eq!(motion(code, &cases).1, 2);
    }

    #[test]
    fn an_invariant_value_left_as_the_loop_result_survives_it() {
        // x = m; y = loop (result i32) { i += 1; br_if 0 when i < n; x + 7 };
        // x = 100; y + x.
        let code = vec![
            I::LocalGet(1),
            I::LocalSet(X),
            I::Loop(BlockType::Value(ValType::I32)),
            I::LocalGet(CTR),
            I::I32Const(1),
            I::I32Add,
            I::LocalTee(CTR),
            I::LocalGet(0),
            I::I32LtS,
            I::BrIf(0),
            I::LocalGet(X),
            I::I32Const(7),
            I::I32Add,
            I::End,
            I::I32Const(100),
            I::LocalSet(X),
            I::LocalGet(X),
            I::I32Add,
            I::End,
        ];
        let cases = [(3, 5, Some(112)), (0, 5, Some(112)), (-2, -7, Some(100))];
        assert_eq!(motion(code, &cases).1, 1);
    }

    #[test]
    fn a_loop_that_calls_moves_its_locals_but_not_an_uncached_global() {
        // x = 2; for i < n { acc += x * 3 + g; bump() }.
        let mut code = vec![I::I32Const(2), I::LocalSet(X)];
        code.extend(then_acc(counted(
            CTR,
            &[
                I::LocalGet(ACC),
                I::LocalGet(X),
                I::I32Const(3),
                I::I32Mul,
                I::GlobalGet(0),
                I::I32Add,
                I::I32Add,
                I::LocalSet(ACC),
                I::Call(1),
            ],
        )));
        // n = 3: (6 + 7) + (6 + 10) + (6 + 13).
        let cases = [(3, 0, Some(48)), (1, 0, Some(13)), (0, 0, Some(0))];
        assert_eq!(motion(code, &cases).1, 1);
    }

    #[test]
    fn an_expression_over_a_cached_global_moves_after_the_cache_load() {
        // x = 1; for i < n { acc += g * 5 + x }: the cache load, then the
        // two moved ops (the row `g*5 + x` reads `5` from a slot), then
        // the head.
        let mut code = vec![I::I32Const(1), I::LocalSet(X)];
        code.extend(then_acc(counted(
            CTR,
            &[
                I::LocalGet(ACC),
                I::GlobalGet(0),
                I::I32Const(5),
                I::I32Mul,
                I::LocalGet(X),
                I::I32Add,
                I::I32Add,
                I::LocalSet(ACC),
            ],
        )));
        let cases = [(3, 0, Some(108)), (0, 0, Some(0))];
        let (bytes, hoisted) = motion(code, &cases);
        assert_eq!(hoisted, 2);
        let cm = compiled(&bytes, true);
        let code = names(code_of(&cm, 2));
        let order = ["GlobalGet", "Const", "MulAddI32", "CmpBr"];
        assert!(code.windows(4).any(|w| w == order), "{code:?}");
    }

    #[test]
    fn a_head_against_a_moved_bound_gets_its_latch() {
        // for i < n - 1 { acc += i }: `n - 1` moves in front of the loop,
        // so the head reads it from its cache slot and the `br` back is an
        // `IncBrLtS` against that slot.
        let mut code = vec![
            I::Block(BlockType::Empty),
            I::Loop(BlockType::Empty),
            I::LocalGet(CTR),
            I::LocalGet(0),
            I::I32Const(1),
            I::I32Sub,
            I::I32LtS,
            I::I32Eqz,
            I::BrIf(1),
            I::LocalGet(ACC),
            I::LocalGet(CTR),
            I::I32Add,
            I::LocalSet(ACC),
            I::LocalGet(CTR),
            I::I32Const(1),
            I::I32Add,
            I::LocalSet(CTR),
            I::Br(0),
            I::End,
            I::End,
        ];
        code = then_acc(code);
        let cases = [(5, 0, Some(6)), (1, 0, Some(0)), (0, 0, Some(0))];
        let (bytes, hoisted) = motion(code, &cases);
        assert_eq!(hoisted, 1);
        let cm = compiled(&bytes, true);
        let code = code_of(&cm, 2);
        let n1 = match code[0] {
            RegOp::AddI32K { a: 0, k, dst } if k == u32::MAX => dst,
            _ => panic!("{code:?}"),
        };
        assert!(matches!(code[1], RegOp::CmpBr { a: 2, b, .. } if b == n1));
        assert!(
            code.iter()
                .any(|op| matches!(op, RegOp::IncBrLtS { i: 2, n, .. } if *n == n1)),
            "{code:?}"
        );
        assert_eq!(cm.fusion.of(Rule::Latch), 1);
    }

    #[test]
    fn a_subtraction_of_a_constant_adds_its_negation() {
        // x - k for k = 0, 1 and i32::MIN (its own negation).
        for k in [0, 1, i32::MIN] {
            let mut b = ModuleBuilder::new();
            let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
            let code = vec![I::LocalGet(0), I::I32Const(k), I::I32Sub, I::End];
            let f = b.add_func(ty, &[], code);
            b.export_func("f", f);
            let bytes = b.build();
            let cm = compiled(&bytes, true);
            let want = (k as u32).wrapping_neg();
            assert!(
                matches!(code_of(&cm, 0)[0], RegOp::AddI32K { a: 0, k, .. } if k == want),
                "{:?}",
                code_of(&cm, 0)
            );
            for x in [0, 7, -1, i32::MIN, i32::MAX] {
                let out = agreed_outcome(&bytes, "f", &[Value::I32(x)], &format!("{x} - {k}"));
                assert_eq!(out, Ok(vec![Value::I32(x.wrapping_sub(k))]), "{x} - {k}");
            }
        }
    }
}
