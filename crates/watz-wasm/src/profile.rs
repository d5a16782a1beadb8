//! Execution profiling: retired-guest-instruction accounting (`instret`),
//! host dispatch counts, a per-opcode-class histogram, loop back-edge
//! counts and trap counts, shared by the tree interpreter and the register
//! engine.
//!
//! # Zero overhead when off
//!
//! Profiling must not tax the default hot path, so it is *not* a runtime
//! branch inside the dispatch loops. Instead every dispatch loop is
//! generic over a [`Profiler`] and is monomorphised twice: once with
//! [`NoProfile`] (a zero-sized type whose `ENABLED` constant is `false`,
//! so every counting statement is dead code the compiler deletes) and
//! once with [`ExecProfile`] (the counting build). Selecting
//! [`ProfileMode::Count`] — via `EngineConfig::profile` or the
//! `WATZ_PROFILE` environment variable — merely routes `invoke` through
//! the counting instantiation; the default loop is bit-identical to the
//! pre-profiling code. `bench_smoke` gates this invariant by timing gemm
//! with profiling off against the counting loop.
//!
//! # Instret is a correctness invariant
//!
//! `instret` counts *retired guest instructions*: every structured
//! opcode the tree oracle dispatches except the shape-only ones
//! (`block`/`loop`/`end`/`else`/`nop`, which the flat lowering erases).
//! The register engine executes fewer host ops than that, so each lowered
//! op carries a [`ProfOp`] weight — how many guest instructions it
//! retires — computed at lowering time and merged by the register pass.
//! Counting is *inclusive at fetch*: an op's full weight retires when it
//! is dispatched, before it can trap, and no fusion rule retires anything
//! past a trap-capable div/rem at that op's fetch, so both executors
//! retire exactly the same count for the same input — including programs
//! that trap, up to and including the trapping instruction. The
//! differential suite pins this.

use crate::instr::Instr;

/// Number of opcode classes in the histogram.
pub const N_CLASSES: usize = 12;

/// Coarse opcode classes for the retired-instruction histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// Branches, returns, `unreachable`, and structural opcodes.
    Control = 0,
    /// Direct and indirect calls.
    Call = 1,
    /// `local.get`/`local.set`/`local.tee`.
    Local = 2,
    /// `global.get`/`global.set`.
    Global = 3,
    /// Constant pushes.
    Const = 4,
    /// Memory loads.
    Load = 5,
    /// Memory stores.
    Store = 6,
    /// Integer and float arithmetic/bit ops.
    Arith = 7,
    /// Comparisons and `eqz`.
    Compare = 8,
    /// Width/type conversions and reinterprets.
    Convert = 9,
    /// `memory.size`/`grow`/`copy`/`fill`.
    Mem = 10,
    /// Everything else (`drop`, `select`).
    Other = 11,
}

impl OpClass {
    /// Display names, indexed by discriminant.
    pub const NAMES: [&'static str; N_CLASSES] = [
        "control", "call", "local", "global", "const", "load", "store", "arith", "compare",
        "convert", "mem", "other",
    ];
}

/// Classifies a structured instruction and gives its retirement weight.
///
/// Shape-only opcodes (`block`/`loop`/`end`/`else`/`nop`) weigh 0: the
/// flat lowering erases them, so counting them in the tree oracle would
/// break cross-engine instret parity.
#[must_use]
pub fn classify(instr: &Instr) -> (OpClass, u32) {
    use Instr::{
        Block, Call, CallIndirect, Else, End, GlobalGet, GlobalSet, LocalGet, LocalSet, LocalTee,
        Loop, MemoryCopy, MemoryFill, MemoryGrow, MemorySize, Nop,
    };
    match instr {
        Block(_) | Loop(_) | End | Else | Nop => (OpClass::Control, 0),
        Instr::Unreachable
        | Instr::If(_)
        | Instr::Br(_)
        | Instr::BrIf(_)
        | Instr::BrTable { .. }
        | Instr::Return => (OpClass::Control, 1),
        Call(_) | CallIndirect { .. } => (OpClass::Call, 1),
        LocalGet(_) | LocalSet(_) | LocalTee(_) => (OpClass::Local, 1),
        GlobalGet(_) | GlobalSet(_) => (OpClass::Global, 1),
        Instr::I32Const(_) | Instr::I64Const(_) | Instr::F32Const(_) | Instr::F64Const(_) => {
            (OpClass::Const, 1)
        }
        Instr::I32Load(_)
        | Instr::I64Load(_)
        | Instr::F32Load(_)
        | Instr::F64Load(_)
        | Instr::I32Load8S(_)
        | Instr::I32Load8U(_)
        | Instr::I32Load16S(_)
        | Instr::I32Load16U(_)
        | Instr::I64Load8S(_)
        | Instr::I64Load8U(_)
        | Instr::I64Load16S(_)
        | Instr::I64Load16U(_)
        | Instr::I64Load32S(_)
        | Instr::I64Load32U(_) => (OpClass::Load, 1),
        Instr::I32Store(_)
        | Instr::I64Store(_)
        | Instr::F32Store(_)
        | Instr::F64Store(_)
        | Instr::I32Store8(_)
        | Instr::I32Store16(_)
        | Instr::I64Store8(_)
        | Instr::I64Store16(_)
        | Instr::I64Store32(_) => (OpClass::Store, 1),
        MemorySize | MemoryGrow | MemoryCopy | MemoryFill => (OpClass::Mem, 1),
        Instr::I32Eqz
        | Instr::I32Eq
        | Instr::I32Ne
        | Instr::I32LtS
        | Instr::I32LtU
        | Instr::I32GtS
        | Instr::I32GtU
        | Instr::I32LeS
        | Instr::I32LeU
        | Instr::I32GeS
        | Instr::I32GeU
        | Instr::I64Eqz
        | Instr::I64Eq
        | Instr::I64Ne
        | Instr::I64LtS
        | Instr::I64LtU
        | Instr::I64GtS
        | Instr::I64GtU
        | Instr::I64LeS
        | Instr::I64LeU
        | Instr::I64GeS
        | Instr::I64GeU
        | Instr::F32Eq
        | Instr::F32Ne
        | Instr::F32Lt
        | Instr::F32Gt
        | Instr::F32Le
        | Instr::F32Ge
        | Instr::F64Eq
        | Instr::F64Ne
        | Instr::F64Lt
        | Instr::F64Gt
        | Instr::F64Le
        | Instr::F64Ge => (OpClass::Compare, 1),
        Instr::I32WrapI64
        | Instr::I32TruncF32S
        | Instr::I32TruncF32U
        | Instr::I32TruncF64S
        | Instr::I32TruncF64U
        | Instr::I64ExtendI32S
        | Instr::I64ExtendI32U
        | Instr::I64TruncF32S
        | Instr::I64TruncF32U
        | Instr::I64TruncF64S
        | Instr::I64TruncF64U
        | Instr::F32ConvertI32S
        | Instr::F32ConvertI32U
        | Instr::F32ConvertI64S
        | Instr::F32ConvertI64U
        | Instr::F32DemoteF64
        | Instr::F64ConvertI32S
        | Instr::F64ConvertI32U
        | Instr::F64ConvertI64S
        | Instr::F64ConvertI64U
        | Instr::F64PromoteF32
        | Instr::I32ReinterpretF32
        | Instr::I64ReinterpretF64
        | Instr::F32ReinterpretI32
        | Instr::F64ReinterpretI64
        | Instr::I32Extend8S
        | Instr::I32Extend16S
        | Instr::I64Extend8S
        | Instr::I64Extend16S
        | Instr::I64Extend32S => (OpClass::Convert, 1),
        Instr::Drop | Instr::Select => (OpClass::Other, 1),
        _ => (OpClass::Arith, 1),
    }
}

/// Retirement metadata for one lowered (flat or register) op: how many
/// guest instructions it retires and how they split across classes.
///
/// Built once at lowering time; the register pass merges the metadata of
/// every source op a register op stands for, so retire-at-fetch stays
/// exact on the register engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfOp {
    /// Guest instructions retired when this op is dispatched.
    pub weight: u32,
    /// Per-class split of `weight` (saturating at 255 per class).
    pub cls: [u8; N_CLASSES],
}

impl ProfOp {
    /// An op that retires nothing (synthetic returns, erased jumps).
    #[must_use]
    pub const fn zero() -> Self {
        ProfOp {
            weight: 0,
            cls: [0; N_CLASSES],
        }
    }

    /// A single guest instruction of class `cls`.
    #[must_use]
    pub fn of(cls: OpClass, weight: u32) -> Self {
        let mut p = Self::zero();
        p.weight = weight;
        p.cls[cls as usize] = u8::try_from(weight.min(255)).unwrap_or(255);
        p
    }

    /// Metadata for a structured instruction, via [`classify`].
    #[must_use]
    pub fn of_instr(instr: &Instr) -> Self {
        let (cls, weight) = classify(instr);
        Self::of(cls, weight)
    }

    /// Absorbs another op's retirement into this one.
    pub fn merge(&mut self, other: &ProfOp) {
        self.weight += other.weight;
        for (a, b) in self.cls.iter_mut().zip(other.cls.iter()) {
            *a = a.saturating_add(*b);
        }
    }
}

impl Default for ProfOp {
    fn default() -> Self {
        Self::zero()
    }
}

/// Whether an instance counts execution events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProfileMode {
    /// No counting; dispatch loops are the unchanged hot path.
    #[default]
    Off,
    /// Count retired instructions, dispatches, back edges and traps.
    Count,
}

/// Counters retired by a profiled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecProfile {
    /// Retired guest instructions — identical on the interpreter and the
    /// register engine for the same input (the cross-engine invariant).
    pub instret: u64,
    /// Host dispatch-loop iterations (per-engine; *not* an invariant —
    /// this is exactly what fusion and register allocation shrink).
    pub host_ops: u64,
    /// Taken loop back edges (a fuel-style progress measure).
    pub backedges: u64,
    /// Executions that ended in a trap.
    pub traps: u64,
    /// Retired guest instructions per [`OpClass`].
    pub class_counts: [u64; N_CLASSES],
}

impl ExecProfile {
    /// Retired memory loads.
    #[must_use]
    pub fn loads(&self) -> u64 {
        self.class_counts[OpClass::Load as usize]
    }

    /// Retired memory stores.
    #[must_use]
    pub fn stores(&self) -> u64 {
        self.class_counts[OpClass::Store as usize]
    }

    /// Retired direct + indirect calls.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.class_counts[OpClass::Call as usize]
    }

    /// Host dispatch ops per retired guest instruction (1.0 for the
    /// tree interpreter, < 1.0 once fusion/regalloc batch guest work).
    #[must_use]
    pub fn ops_per_instr(&self) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            self.host_ops as f64 / self.instret as f64
        }
    }

    /// Adds another profile's counters into this one.
    pub fn merge(&mut self, other: &ExecProfile) {
        self.instret += other.instret;
        self.host_ops += other.host_ops;
        self.backedges += other.backedges;
        self.traps += other.traps;
        for (a, b) in self.class_counts.iter_mut().zip(other.class_counts.iter()) {
            *a += b;
        }
    }
}

impl std::fmt::Display for ExecProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "instret {}  host_ops {}  ops/instr {:.3}  backedges {}  traps {}",
            self.instret,
            self.host_ops,
            self.ops_per_instr(),
            self.backedges,
            self.traps
        )?;
        write!(f, "classes:")?;
        for (name, count) in OpClass::NAMES.iter().zip(self.class_counts.iter()) {
            if *count > 0 {
                write!(f, " {name} {count}")?;
            }
        }
        Ok(())
    }
}

/// The dispatch loops' counting hook, monomorphised per mode.
///
/// Call sites are guarded by `if P::ENABLED { ... }`, so the
/// [`NoProfile`] instantiation compiles to the unchanged hot loop.
pub trait Profiler {
    /// `false` erases every counting statement at compile time.
    const ENABLED: bool;

    /// Retires one dispatched op with lowered metadata (also counts
    /// the host dispatch).
    fn retire(&mut self, op: &ProfOp);

    /// Retires one dispatched op of a known class and weight (also
    /// counts the host dispatch).
    fn retire1(&mut self, cls: OpClass, weight: u32);

    /// Records a taken loop back edge.
    fn backedge(&mut self);
}

/// The disabled profiler: a ZST whose hooks are dead code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProfile;

impl Profiler for NoProfile {
    const ENABLED: bool = false;

    #[inline(always)]
    fn retire(&mut self, _op: &ProfOp) {}

    #[inline(always)]
    fn retire1(&mut self, _cls: OpClass, _weight: u32) {}

    #[inline(always)]
    fn backedge(&mut self) {}
}

impl Profiler for ExecProfile {
    const ENABLED: bool = true;

    #[inline]
    fn retire(&mut self, op: &ProfOp) {
        self.host_ops += 1;
        self.instret += u64::from(op.weight);
        for (total, c) in self.class_counts.iter_mut().zip(op.cls.iter()) {
            *total += u64::from(*c);
        }
    }

    #[inline]
    fn retire1(&mut self, cls: OpClass, weight: u32) {
        self.host_ops += 1;
        self.instret += u64::from(weight);
        self.class_counts[cls as usize] += u64::from(weight);
    }

    #[inline]
    fn backedge(&mut self) {
        self.backedges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_weights_match_flat_lowering_shape() {
        // Shape-only opcodes retire nothing; everything else retires 1.
        for (i, w) in [
            (Instr::Nop, 0),
            (Instr::End, 0),
            (Instr::Else, 0),
            (Instr::Block(crate::types::BlockType::Empty), 0),
            (Instr::Loop(crate::types::BlockType::Empty), 0),
            (Instr::If(crate::types::BlockType::Empty), 1),
            (Instr::Return, 1),
            (Instr::I32Add, 1),
            (Instr::LocalGet(0), 1),
            (Instr::I32Const(7), 1),
            (Instr::Drop, 1),
        ] {
            assert_eq!(classify(&i).1, w, "weight of {i:?}");
        }
    }

    #[test]
    fn profop_merge_accumulates_weight_and_classes() {
        let mut window = ProfOp::of(OpClass::Local, 1);
        window.merge(&ProfOp::of(OpClass::Local, 1));
        window.merge(&ProfOp::of(OpClass::Arith, 1));
        assert_eq!(window.weight, 3);
        assert_eq!(window.cls[OpClass::Local as usize], 2);
        assert_eq!(window.cls[OpClass::Arith as usize], 1);
    }

    #[test]
    fn retire_sums_into_histogram() {
        let mut p = ExecProfile::default();
        let mut w = ProfOp::of(OpClass::Load, 1);
        w.merge(&ProfOp::of(OpClass::Arith, 1));
        p.retire(&w);
        p.retire1(OpClass::Store, 1);
        p.retire1(OpClass::Control, 0);
        assert_eq!(p.instret, 3);
        assert_eq!(p.host_ops, 3);
        assert_eq!(p.loads(), 1);
        assert_eq!(p.stores(), 1);
        let total: u64 = p.class_counts.iter().sum();
        assert_eq!(total, p.instret);
    }
}
