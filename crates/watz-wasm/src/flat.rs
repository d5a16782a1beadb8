//! The untagged operand slot, the operator vocabulary on it, and the
//! load-time compile that drives register lowering over a module.
//!
//! * operands are untagged 64-bit slots (`Slot`): validation already
//!   guarantees types, so the enum tag the tree-walking interpreter
//!   carries on every value is dead weight past load time. The slot
//!   conversions and the operator semantics on slots (`apply_unop`,
//!   `apply_binop`, `do_load`, `do_store`) live here and are what the
//!   register dispatch loop calls;
//! * the numeric, constant and memory instructions collapse into six
//!   classes over that vocabulary — `Const`, `Unop(`[`UnOpKind`]`)`,
//!   `Binop(`[`BinOpKind`]`)`, `Load { `[`LoadKind`]` }`,
//!   `Store { `[`StoreKind`]` }` and one `Reinterpret` — so `map_simple`
//!   is the compile's only per-instruction table, and an instruction's
//!   stack effect follows from its class. Register lowering's simple-op
//!   arm and its fusion look-ahead both match on it;
//! * [`CompiledModule::compile_full`] runs [`crate::reg::lower_func`] — the
//!   one walk from each structured body to register code — over every
//!   body, and keeps what an artifact executes.
//!
//! [`crate::verify`] checks the register code this compile ends in,
//! every time: no compile that fails it is kept.

use crate::exec::{wasm_fmax32, wasm_fmax64, wasm_fmin32, wasm_fmin64, Trap, Value};
use crate::instr::{Instr, MemArg};
use crate::module::Module;
use crate::types::ValType;
use std::time::{Duration, Instant};

/// An untagged 64-bit operand-stack slot.
///
/// i32 values are stored zero-extended, i64 as-is, floats as their IEEE bit
/// patterns. Validation guarantees each slot is only ever read at the type
/// it was written with.
pub(crate) type Slot = u64;

#[inline]
pub(crate) fn from_i32(v: i32) -> Slot {
    u64::from(v as u32)
}
#[inline]
pub(crate) fn from_i64(v: i64) -> Slot {
    v as u64
}
#[inline]
pub(crate) fn from_f32(v: f32) -> Slot {
    u64::from(v.to_bits())
}
#[inline]
pub(crate) fn from_f64(v: f64) -> Slot {
    v.to_bits()
}
#[inline]
pub(crate) fn as_i32(s: Slot) -> i32 {
    s as u32 as i32
}
#[inline]
pub(crate) fn as_u32(s: Slot) -> u32 {
    s as u32
}
#[inline]
pub(crate) fn as_i64(s: Slot) -> i64 {
    s as i64
}
#[inline]
pub(crate) fn as_u64(s: Slot) -> u64 {
    s
}
#[inline]
pub(crate) fn as_f32(s: Slot) -> f32 {
    f32::from_bits(s as u32)
}
#[inline]
pub(crate) fn as_f64(s: Slot) -> f64 {
    f64::from_bits(s)
}

#[inline]
pub(crate) fn slot_from_value(v: Value) -> Slot {
    match v {
        Value::I32(x) => from_i32(x),
        Value::I64(x) => from_i64(x),
        Value::F32(x) => from_f32(x),
        Value::F64(x) => from_f64(x),
    }
}

#[inline]
pub(crate) fn value_from_slot(ty: ValType, s: Slot) -> Value {
    match ty {
        ValType::I32 => Value::I32(as_i32(s)),
        ValType::I64 => Value::I64(as_i64(s)),
        ValType::F32 => Value::F32(as_f32(s)),
        ValType::F64 => Value::F64(as_f64(s)),
    }
}

// ---------------------------------------------------------------------------
// Shared trapping-operator semantics. These helpers are the single source
// of truth for `div`/`rem` traps: the plain dispatch arms and every fused
// superinstruction route through them, so the fused paths cannot drift
// from the tree interpreter on `INT_MIN / -1`, `INT_MIN % -1` (== 0, no
// trap) or division by zero.
// ---------------------------------------------------------------------------

#[inline]
fn i32_div_s(a: i32, b: i32) -> Result<i32, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    match a.overflowing_div(b) {
        (_, true) => Err(Trap::IntegerOverflow),
        (q, false) => Ok(q),
    }
}

#[inline]
fn i32_div_u(a: u32, b: u32) -> Result<u32, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    Ok(a / b)
}

#[inline]
fn i32_rem_s(a: i32, b: i32) -> Result<i32, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    Ok(a.wrapping_rem(b))
}

#[inline]
fn i32_rem_u(a: u32, b: u32) -> Result<u32, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    Ok(a % b)
}

#[inline]
fn i64_div_s(a: i64, b: i64) -> Result<i64, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    match a.overflowing_div(b) {
        (_, true) => Err(Trap::IntegerOverflow),
        (q, false) => Ok(q),
    }
}

#[inline]
fn i64_div_u(a: u64, b: u64) -> Result<u64, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    Ok(a / b)
}

#[inline]
fn i64_rem_s(a: i64, b: i64) -> Result<i64, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    Ok(a.wrapping_rem(b))
}

#[inline]
fn i64_rem_u(a: u64, b: u64) -> Result<u64, Trap> {
    if b == 0 {
        return Err(Trap::DivisionByZero);
    }
    Ok(a % b)
}

/// A two-operand numeric or relational operator. Variants mirror the
/// spec's instruction names 1:1. (`Hash` feeds the value-numbering keys in
/// [`crate::analysis`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub(crate) enum BinOpKind {
    I32Add,
    I32Sub,
    I32Mul,
    I32DivS,
    I32DivU,
    I32RemS,
    I32RemU,
    I32And,
    I32Or,
    I32Xor,
    I32Shl,
    I32ShrS,
    I32ShrU,
    I32Rotl,
    I32Rotr,
    I64Add,
    I64Sub,
    I64Mul,
    I64DivS,
    I64DivU,
    I64RemS,
    I64RemU,
    I64And,
    I64Or,
    I64Xor,
    I64Shl,
    I64ShrS,
    I64ShrU,
    I64Rotl,
    I64Rotr,
    F32Add,
    F32Sub,
    F32Mul,
    F32Div,
    F32Min,
    F32Max,
    F32Copysign,
    F64Add,
    F64Sub,
    F64Mul,
    F64Div,
    F64Min,
    F64Max,
    F64Copysign,
    I32Eq,
    I32Ne,
    I32LtS,
    I32LtU,
    I32GtS,
    I32GtU,
    I32LeS,
    I32LeU,
    I32GeS,
    I32GeU,
    I64Eq,
    I64Ne,
    I64LtS,
    I64LtU,
    I64GtS,
    I64GtU,
    I64LeS,
    I64LeU,
    I64GeS,
    I64GeU,
    F32Eq,
    F32Ne,
    F32Lt,
    F32Gt,
    F32Le,
    F32Ge,
    F64Eq,
    F64Ne,
    F64Lt,
    F64Gt,
    F64Le,
    F64Ge,
}

impl BinOpKind {
    /// Whether the operator takes two i32 operands to an i32 result (the
    /// first fifteen variants and the ten i32 comparisons).
    pub(crate) fn is_i32(self) -> bool {
        let i = self as u8;
        i <= Self::I32Rotr as u8 || (Self::I32Eq as u8..=Self::I32GeU as u8).contains(&i)
    }

    /// Whether the operator can trap (integer `div`/`rem`).
    ///
    /// Retired-instruction counting is inclusive at fetch, so exact
    /// cross-rung instret parity on trapping inputs requires that a
    /// trap-capable binop is always the *last* guest op a register op
    /// retires at fetch — the register pass's follow rule refuses to
    /// extend past one.
    pub(crate) fn traps(self) -> bool {
        matches!(
            self,
            BinOpKind::I32DivS
                | BinOpKind::I32DivU
                | BinOpKind::I32RemS
                | BinOpKind::I32RemU
                | BinOpKind::I64DivS
                | BinOpKind::I64DivU
                | BinOpKind::I64RemS
                | BinOpKind::I64RemU
        )
    }
}

/// Applies a binary operator to two raw slots.
///
/// # Errors
///
/// Exactly the traps the corresponding plain opcode raises (`div`/`rem`
/// route through the shared helpers above).
#[inline]
pub(crate) fn apply_binop(op: BinOpKind, a: Slot, b: Slot) -> Result<Slot, Trap> {
    use BinOpKind as B;
    Ok(match op {
        B::I32Add => from_i32(as_i32(a).wrapping_add(as_i32(b))),
        B::I32Sub => from_i32(as_i32(a).wrapping_sub(as_i32(b))),
        B::I32Mul => from_i32(as_i32(a).wrapping_mul(as_i32(b))),
        B::I32DivS => from_i32(i32_div_s(as_i32(a), as_i32(b))?),
        B::I32DivU => u64::from(i32_div_u(as_u32(a), as_u32(b))?),
        B::I32RemS => from_i32(i32_rem_s(as_i32(a), as_i32(b))?),
        B::I32RemU => u64::from(i32_rem_u(as_u32(a), as_u32(b))?),
        B::I32And => from_i32(as_i32(a) & as_i32(b)),
        B::I32Or => from_i32(as_i32(a) | as_i32(b)),
        B::I32Xor => from_i32(as_i32(a) ^ as_i32(b)),
        B::I32Shl => from_i32(as_i32(a).wrapping_shl(as_u32(b))),
        B::I32ShrS => from_i32(as_i32(a).wrapping_shr(as_u32(b))),
        B::I32ShrU => from_i32(as_u32(a).wrapping_shr(as_u32(b)) as i32),
        B::I32Rotl => from_i32(as_i32(a).rotate_left(as_u32(b) % 32)),
        B::I32Rotr => from_i32(as_i32(a).rotate_right(as_u32(b) % 32)),
        B::I64Add => from_i64(as_i64(a).wrapping_add(as_i64(b))),
        B::I64Sub => from_i64(as_i64(a).wrapping_sub(as_i64(b))),
        B::I64Mul => from_i64(as_i64(a).wrapping_mul(as_i64(b))),
        B::I64DivS => from_i64(i64_div_s(as_i64(a), as_i64(b))?),
        B::I64DivU => i64_div_u(as_u64(a), as_u64(b))?,
        B::I64RemS => from_i64(i64_rem_s(as_i64(a), as_i64(b))?),
        B::I64RemU => i64_rem_u(as_u64(a), as_u64(b))?,
        B::I64And => from_i64(as_i64(a) & as_i64(b)),
        B::I64Or => from_i64(as_i64(a) | as_i64(b)),
        B::I64Xor => from_i64(as_i64(a) ^ as_i64(b)),
        B::I64Shl => from_i64(as_i64(a).wrapping_shl(as_u64(b) as u32)),
        B::I64ShrS => from_i64(as_i64(a).wrapping_shr(as_u64(b) as u32)),
        B::I64ShrU => from_i64(as_u64(a).wrapping_shr(as_u64(b) as u32) as i64),
        B::I64Rotl => from_i64(as_i64(a).rotate_left((as_u64(b) as u32) % 64)),
        B::I64Rotr => from_i64(as_i64(a).rotate_right((as_u64(b) as u32) % 64)),
        B::F32Add => from_f32(as_f32(a) + as_f32(b)),
        B::F32Sub => from_f32(as_f32(a) - as_f32(b)),
        B::F32Mul => from_f32(as_f32(a) * as_f32(b)),
        B::F32Div => from_f32(as_f32(a) / as_f32(b)),
        B::F32Min => from_f32(wasm_fmin32(as_f32(a), as_f32(b))),
        B::F32Max => from_f32(wasm_fmax32(as_f32(a), as_f32(b))),
        B::F32Copysign => from_f32(as_f32(a).copysign(as_f32(b))),
        B::F64Add => from_f64(as_f64(a) + as_f64(b)),
        B::F64Sub => from_f64(as_f64(a) - as_f64(b)),
        B::F64Mul => from_f64(as_f64(a) * as_f64(b)),
        B::F64Div => from_f64(as_f64(a) / as_f64(b)),
        B::F64Min => from_f64(wasm_fmin64(as_f64(a), as_f64(b))),
        B::F64Max => from_f64(wasm_fmax64(as_f64(a), as_f64(b))),
        B::F64Copysign => from_f64(as_f64(a).copysign(as_f64(b))),
        B::I32Eq => u64::from(as_i32(a) == as_i32(b)),
        B::I32Ne => u64::from(as_i32(a) != as_i32(b)),
        B::I32LtS => u64::from(as_i32(a) < as_i32(b)),
        B::I32LtU => u64::from(as_u32(a) < as_u32(b)),
        B::I32GtS => u64::from(as_i32(a) > as_i32(b)),
        B::I32GtU => u64::from(as_u32(a) > as_u32(b)),
        B::I32LeS => u64::from(as_i32(a) <= as_i32(b)),
        B::I32LeU => u64::from(as_u32(a) <= as_u32(b)),
        B::I32GeS => u64::from(as_i32(a) >= as_i32(b)),
        B::I32GeU => u64::from(as_u32(a) >= as_u32(b)),
        B::I64Eq => u64::from(as_i64(a) == as_i64(b)),
        B::I64Ne => u64::from(as_i64(a) != as_i64(b)),
        B::I64LtS => u64::from(as_i64(a) < as_i64(b)),
        B::I64LtU => u64::from(as_u64(a) < as_u64(b)),
        B::I64GtS => u64::from(as_i64(a) > as_i64(b)),
        B::I64GtU => u64::from(as_u64(a) > as_u64(b)),
        B::I64LeS => u64::from(as_i64(a) <= as_i64(b)),
        B::I64LeU => u64::from(as_u64(a) <= as_u64(b)),
        B::I64GeS => u64::from(as_i64(a) >= as_i64(b)),
        B::I64GeU => u64::from(as_u64(a) >= as_u64(b)),
        B::F32Eq => u64::from(as_f32(a) == as_f32(b)),
        B::F32Ne => u64::from(as_f32(a) != as_f32(b)),
        B::F32Lt => u64::from(as_f32(a) < as_f32(b)),
        B::F32Gt => u64::from(as_f32(a) > as_f32(b)),
        B::F32Le => u64::from(as_f32(a) <= as_f32(b)),
        B::F32Ge => u64::from(as_f32(a) >= as_f32(b)),
        B::F64Eq => u64::from(as_f64(a) == as_f64(b)),
        B::F64Ne => u64::from(as_f64(a) != as_f64(b)),
        B::F64Lt => u64::from(as_f64(a) < as_f64(b)),
        B::F64Gt => u64::from(as_f64(a) > as_f64(b)),
        B::F64Le => u64::from(as_f64(a) <= as_f64(b)),
        B::F64Ge => u64::from(as_f64(a) >= as_f64(b)),
    })
}

/// A one-operand operator (everything that rewrites the stack top).
/// Variants mirror the spec's instruction names; the four reinterpret casts
/// are identities on raw slots, classify as [`Simple::Reinterpret`] and
/// never reach the register code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum UnOpKind {
    I32Eqz,
    I64Eqz,
    I32Clz,
    I32Ctz,
    I32Popcnt,
    I64Clz,
    I64Ctz,
    I64Popcnt,
    F32Abs,
    F32Neg,
    F32Ceil,
    F32Floor,
    F32Trunc,
    F32Nearest,
    F32Sqrt,
    F64Abs,
    F64Neg,
    F64Ceil,
    F64Floor,
    F64Trunc,
    F64Nearest,
    F64Sqrt,
    I32WrapI64,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64ExtendI32S,
    I64ExtendI32U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F32DemoteF64,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F64PromoteF32,
    I32Extend8S,
    I32Extend16S,
    I64Extend8S,
    I64Extend16S,
    I64Extend32S,
}

/// Applies a one-operand operator to a raw slot.
///
/// # Errors
///
/// Exactly the traps the corresponding plain opcode raises (the float→int
/// truncations).
#[inline]
pub(crate) fn apply_unop(op: UnOpKind, s: Slot) -> Result<Slot, Trap> {
    use crate::exec::{
        trunc_f32_to_i32_s, trunc_f32_to_i64_s, trunc_f32_to_u32, trunc_f32_to_u64,
        trunc_f64_to_i32_s, trunc_f64_to_i64_s, trunc_f64_to_u32, trunc_f64_to_u64,
    };
    use UnOpKind as U;
    Ok(match op {
        U::I32Eqz => u64::from(as_u32(s) == 0),
        U::I64Eqz => u64::from(s == 0),
        U::I32Clz => from_i32(as_i32(s).leading_zeros() as i32),
        U::I32Ctz => from_i32(as_i32(s).trailing_zeros() as i32),
        U::I32Popcnt => from_i32(as_i32(s).count_ones() as i32),
        U::I64Clz => from_i64(i64::from(as_i64(s).leading_zeros())),
        U::I64Ctz => from_i64(i64::from(as_i64(s).trailing_zeros())),
        U::I64Popcnt => from_i64(i64::from(as_i64(s).count_ones())),
        U::F32Abs => from_f32(as_f32(s).abs()),
        U::F32Neg => from_f32(-as_f32(s)),
        U::F32Ceil => from_f32(as_f32(s).ceil()),
        U::F32Floor => from_f32(as_f32(s).floor()),
        U::F32Trunc => from_f32(as_f32(s).trunc()),
        U::F32Nearest => from_f32(as_f32(s).round_ties_even()),
        U::F32Sqrt => from_f32(as_f32(s).sqrt()),
        U::F64Abs => from_f64(as_f64(s).abs()),
        U::F64Neg => from_f64(-as_f64(s)),
        U::F64Ceil => from_f64(as_f64(s).ceil()),
        U::F64Floor => from_f64(as_f64(s).floor()),
        U::F64Trunc => from_f64(as_f64(s).trunc()),
        U::F64Nearest => from_f64(as_f64(s).round_ties_even()),
        U::F64Sqrt => from_f64(as_f64(s).sqrt()),
        U::I32WrapI64 => from_i32(as_i64(s) as i32),
        U::I32TruncF32S => from_i32(trunc_f32_to_i32_s(as_f32(s))?),
        U::I32TruncF32U => u64::from(trunc_f32_to_u32(as_f32(s))?),
        U::I32TruncF64S => from_i32(trunc_f64_to_i32_s(as_f64(s))?),
        U::I32TruncF64U => u64::from(trunc_f64_to_u32(as_f64(s))?),
        U::I64ExtendI32S => from_i64(i64::from(as_i32(s))),
        U::I64ExtendI32U => u64::from(as_u32(s)),
        U::I64TruncF32S => from_i64(trunc_f32_to_i64_s(as_f32(s))?),
        U::I64TruncF32U => trunc_f32_to_u64(as_f32(s))?,
        U::I64TruncF64S => from_i64(trunc_f64_to_i64_s(as_f64(s))?),
        U::I64TruncF64U => trunc_f64_to_u64(as_f64(s))?,
        U::F32ConvertI32S => from_f32(as_i32(s) as f32),
        U::F32ConvertI32U => from_f32(as_u32(s) as f32),
        U::F32ConvertI64S => from_f32(as_i64(s) as f32),
        U::F32ConvertI64U => from_f32(as_u64(s) as f32),
        U::F32DemoteF64 => from_f32(as_f64(s) as f32),
        U::F64ConvertI32S => from_f64(f64::from(as_i32(s))),
        U::F64ConvertI32U => from_f64(f64::from(as_u32(s))),
        U::F64ConvertI64S => from_f64(as_i64(s) as f64),
        U::F64ConvertI64U => from_f64(as_u64(s) as f64),
        U::F64PromoteF32 => from_f64(f64::from(as_f32(s))),
        U::I32Extend8S => from_i32(i32::from(as_i32(s) as i8)),
        U::I32Extend16S => from_i32(i32::from(as_i32(s) as i16)),
        U::I64Extend8S => from_i64(i64::from(as_i64(s) as i8)),
        U::I64Extend16S => from_i64(i64::from(as_i64(s) as i16)),
        U::I64Extend32S => from_i64(i64::from(as_i64(s) as i32)),
    })
}

/// The width/extension shape of a load. Variants mirror the spec's load
/// instruction names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum LoadKind {
    I32,
    I64,
    F32,
    F64,
    I32L8S,
    I32L8U,
    I32L16S,
    I32L16U,
    I64L8S,
    I64L8U,
    I64L16S,
    I64L16U,
    I64L32S,
    I64L32U,
}

/// The width shape of a store. Variants mirror the spec's store
/// instruction names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum StoreKind {
    I32,
    I64,
    F32,
    F64,
    I32S8,
    I32S16,
    I64S8,
    I64S16,
    I64S32,
}

/// Performs a load at `base + offset` on a raw memory slice (the register
/// dispatch loop caches the memory contents locally — see
/// [`crate::reg::run`]).
///
/// # Errors
///
/// Traps with [`Trap::MemoryOutOfBounds`] exactly like the plain opcode.
#[inline]
pub(crate) fn do_load(kind: LoadKind, mem: &[u8], base: i32, offset: u32) -> Result<Slot, Trap> {
    use crate::exec::mem_load as ld;
    Ok(match kind {
        LoadKind::I32 => from_i32(i32::from_le_bytes(ld(mem, base, offset)?)),
        LoadKind::I64 => from_i64(i64::from_le_bytes(ld(mem, base, offset)?)),
        LoadKind::F32 => u64::from(u32::from_le_bytes(ld(mem, base, offset)?)),
        LoadKind::F64 => u64::from_le_bytes(ld(mem, base, offset)?),
        LoadKind::I32L8S => {
            let b: [u8; 1] = ld(mem, base, offset)?;
            from_i32(i32::from(b[0] as i8))
        }
        LoadKind::I32L8U | LoadKind::I64L8U => {
            let b: [u8; 1] = ld(mem, base, offset)?;
            u64::from(b[0])
        }
        LoadKind::I32L16S => from_i32(i32::from(i16::from_le_bytes(ld(mem, base, offset)?))),
        LoadKind::I32L16U | LoadKind::I64L16U => {
            u64::from(u16::from_le_bytes(ld(mem, base, offset)?))
        }
        LoadKind::I64L8S => {
            let b: [u8; 1] = ld(mem, base, offset)?;
            from_i64(i64::from(b[0] as i8))
        }
        LoadKind::I64L16S => from_i64(i64::from(i16::from_le_bytes(ld(mem, base, offset)?))),
        LoadKind::I64L32S => from_i64(i64::from(i32::from_le_bytes(ld(mem, base, offset)?))),
        LoadKind::I64L32U => u64::from(u32::from_le_bytes(ld(mem, base, offset)?)),
    })
}

/// Performs a store of raw slot `v` at `base + offset` on a raw memory
/// slice.
///
/// # Errors
///
/// Traps with [`Trap::MemoryOutOfBounds`] exactly like the plain opcode.
#[inline]
pub(crate) fn do_store(
    kind: StoreKind,
    mem: &mut [u8],
    base: i32,
    offset: u32,
    v: Slot,
) -> Result<(), Trap> {
    use crate::exec::mem_store as st;
    match kind {
        StoreKind::I32 | StoreKind::F32 => st(mem, base, offset, &(v as u32).to_le_bytes()),
        StoreKind::I64 | StoreKind::F64 => st(mem, base, offset, &v.to_le_bytes()),
        StoreKind::I32S8 | StoreKind::I64S8 => st(mem, base, offset, &[(v & 0xff) as u8]),
        StoreKind::I32S16 | StoreKind::I64S16 => st(mem, base, offset, &(v as u16).to_le_bytes()),
        StoreKind::I64S32 => st(mem, base, offset, &(v as u32).to_le_bytes()),
    }
}

/// The class of a numeric, constant or memory instruction, in the operator
/// vocabulary the register code uses (see [`map_simple`]). The stack
/// effect follows from the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simple {
    /// All four constant forms, pre-encoded as a raw slot: pushes one.
    Const(Slot),
    /// Any one-operand numeric operator: rewrites the stack top.
    Unop(UnOpKind),
    /// Any two-operand numeric or relational operator: pops two, pushes
    /// one.
    Binop(BinOpKind),
    /// Any of the 14 loads: pops the address, pushes the loaded value.
    Load { kind: LoadKind, offset: u32 },
    /// Any of the 9 stores: pops the value, then the address.
    Store { kind: StoreKind, offset: u32 },
    /// Any of the four reinterpret casts — an identity on raw slots, which
    /// emits no code and only retires.
    Reinterpret,
}

/// An imported function, with its signature pre-split for slot/Value
/// conversion at the host boundary.
#[derive(Debug)]
pub(crate) struct ImportedFunc {
    pub(crate) module: String,
    pub(crate) name: String,
    pub(crate) params: Box<[ValType]>,
    /// Declared result count, enforced at the host boundary.
    pub(crate) n_results: usize,
}

/// What an artifact keeps of a load-time compile: the register program
/// [`crate::reg::run`] executes, the tables it indexes, and the pass
/// statistics.
#[derive(Debug)]
pub(crate) struct CompiledModule {
    /// The imported functions: function indices `0..imports.len()`.
    pub(crate) imports: Box<[ImportedFunc]>,
    /// Type index of every function, imports first.
    pub(crate) func_type_idx: Box<[u32]>,
    pub(crate) global_types: Box<[ValType]>,
    /// Register-form code, indexed like the function space; `None` for
    /// imports.
    pub(crate) funcs: Box<[Option<crate::reg::RegFunc>]>,
    pub(crate) stats: crate::reg::RegStats,
    pub(crate) fusion: crate::reg::FusionStats,
    /// The memory's minimum size in bytes — the floor the range
    /// analysis anchors its in-bounds proofs to (linear memory never
    /// shrinks).
    pub(crate) min_mem: u64,
    /// What the verifier counted over the register program; a compile it
    /// rejects is never kept.
    pub(crate) verify: crate::verify::VerifyStats,
    /// What the compile cost.
    pub(crate) times: CompileTimes,
}

/// Wall time of the load-time compile, summed over a module's function
/// bodies: the compile part of Fig 4's "instantiate" bar. Exposed via
/// [`Instance::compile_times`](crate::exec::Instance::compile_times).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileTimes {
    /// Structured bodies to register code in one walk, fusion rules
    /// included ([`crate::reg`]).
    pub lower: Duration,
    /// The independent verifier over the register code ([`crate::verify`]).
    pub verify: Duration,
}

impl CompiledModule {
    /// Compiles every function body of a validated module: register
    /// lowering, with `fuse` controlling its fusion rules, then the
    /// independent verifier over all of the register code.
    ///
    /// # Errors
    ///
    /// Returns the first body's [`Trap::Instantiation`]: a frame past the
    /// `u16` slot encoding, a malformed module (a truncated/unbalanced
    /// body, out-of-range indices) or lowering breaking one of its own
    /// invariants — lowering never panics, even on input that skipped
    /// validation — or the first [`crate::verify::VerifyError`] in the
    /// code it left.
    pub(crate) fn compile_full(module: &Module, fuse: bool) -> Result<CompiledModule, Trap> {
        let n_funcs = module.func_count();
        let mut imports = Vec::with_capacity(module.func_imports.len());
        let mut func_type_idx = Vec::with_capacity(n_funcs);
        // Indexed like the function space: `None` for every import.
        let mut funcs = Vec::with_capacity(n_funcs);
        for imp in &module.func_imports {
            let ty = module
                .types
                .get(imp.type_idx as usize)
                .ok_or_else(|| bad("import type index out of range"))?;
            imports.push(ImportedFunc {
                module: imp.module.clone(),
                name: imp.name.clone(),
                params: ty.params.clone().into_boxed_slice(),
                n_results: ty.results.len(),
            });
            func_type_idx.push(imp.type_idx);
            funcs.push(None);
        }
        let min_mem = module
            .memories
            .first()
            .map_or(0, |l| u64::from(l.min) * crate::PAGE_SIZE as u64);
        let mut scratch = crate::reg::RegScratch::default();
        let start = Instant::now();
        for body in &module.funcs {
            let func = funcs.len() as u32;
            let lowered = crate::reg::lower_func(module, func, body, &mut scratch, fuse)?;
            func_type_idx.push(body.type_idx);
            funcs.push(Some(lowered));
        }
        let lower = start.elapsed();
        let mut cm = CompiledModule {
            imports: imports.into_boxed_slice(),
            func_type_idx: func_type_idx.into_boxed_slice(),
            global_types: module.globals.iter().map(|g| g.ty.val_type).collect(),
            funcs: funcs.into_boxed_slice(),
            stats: scratch.stats,
            fusion: scratch.fusion,
            min_mem,
            verify: crate::verify::VerifyStats::default(),
            times: CompileTimes::default(),
        };
        let start = Instant::now();
        cm.verify = crate::verify::verify_module(&cm, &module.types)
            .map_err(|e| Trap::Instantiation(format!("IR verification: {e}")))?;
        cm.times = CompileTimes {
            lower,
            verify: start.elapsed(),
        };
        Ok(cm)
    }
}

/// The error malformed (unvalidated) input raises during lowering.
pub(crate) fn bad(msg: &str) -> Trap {
    Trap::Instantiation(format!("register lowering: {msg}"))
}

/// Classifies a numeric, constant or memory instruction; `None` for any
/// other (control, variable, parametric and bulk-memory instructions are
/// lowered by name). This is the one per-instruction table of the compile;
/// the stack effect follows from the class.
#[allow(clippy::too_many_lines)]
pub(crate) fn map_simple(instr: &Instr) -> Option<Simple> {
    use BinOpKind as B;
    use Instr as I;
    use Simple as S;
    use UnOpKind as U;
    let load = |kind, m: &MemArg| S::Load {
        kind,
        offset: m.offset,
    };
    let store = |kind, m: &MemArg| S::Store {
        kind,
        offset: m.offset,
    };
    Some(match instr {
        I::I32Load(m) => load(LoadKind::I32, m),
        I::I64Load(m) => load(LoadKind::I64, m),
        I::F32Load(m) => load(LoadKind::F32, m),
        I::F64Load(m) => load(LoadKind::F64, m),
        I::I32Load8S(m) => load(LoadKind::I32L8S, m),
        I::I32Load8U(m) => load(LoadKind::I32L8U, m),
        I::I32Load16S(m) => load(LoadKind::I32L16S, m),
        I::I32Load16U(m) => load(LoadKind::I32L16U, m),
        I::I64Load8S(m) => load(LoadKind::I64L8S, m),
        I::I64Load8U(m) => load(LoadKind::I64L8U, m),
        I::I64Load16S(m) => load(LoadKind::I64L16S, m),
        I::I64Load16U(m) => load(LoadKind::I64L16U, m),
        I::I64Load32S(m) => load(LoadKind::I64L32S, m),
        I::I64Load32U(m) => load(LoadKind::I64L32U, m),

        I::I32Store(m) => store(StoreKind::I32, m),
        I::I64Store(m) => store(StoreKind::I64, m),
        I::F32Store(m) => store(StoreKind::F32, m),
        I::F64Store(m) => store(StoreKind::F64, m),
        I::I32Store8(m) => store(StoreKind::I32S8, m),
        I::I32Store16(m) => store(StoreKind::I32S16, m),
        I::I64Store8(m) => store(StoreKind::I64S8, m),
        I::I64Store16(m) => store(StoreKind::I64S16, m),
        I::I64Store32(m) => store(StoreKind::I64S32, m),

        I::I32Const(v) => S::Const(from_i32(*v)),
        I::I64Const(v) => S::Const(from_i64(*v)),
        I::F32Const(v) => S::Const(from_f32(*v)),
        I::F64Const(v) => S::Const(from_f64(*v)),

        I::I32Eqz => S::Unop(U::I32Eqz),
        I::I32Eq => S::Binop(B::I32Eq),
        I::I32Ne => S::Binop(B::I32Ne),
        I::I32LtS => S::Binop(B::I32LtS),
        I::I32LtU => S::Binop(B::I32LtU),
        I::I32GtS => S::Binop(B::I32GtS),
        I::I32GtU => S::Binop(B::I32GtU),
        I::I32LeS => S::Binop(B::I32LeS),
        I::I32LeU => S::Binop(B::I32LeU),
        I::I32GeS => S::Binop(B::I32GeS),
        I::I32GeU => S::Binop(B::I32GeU),
        I::I64Eqz => S::Unop(U::I64Eqz),
        I::I64Eq => S::Binop(B::I64Eq),
        I::I64Ne => S::Binop(B::I64Ne),
        I::I64LtS => S::Binop(B::I64LtS),
        I::I64LtU => S::Binop(B::I64LtU),
        I::I64GtS => S::Binop(B::I64GtS),
        I::I64GtU => S::Binop(B::I64GtU),
        I::I64LeS => S::Binop(B::I64LeS),
        I::I64LeU => S::Binop(B::I64LeU),
        I::I64GeS => S::Binop(B::I64GeS),
        I::I64GeU => S::Binop(B::I64GeU),
        I::F32Eq => S::Binop(B::F32Eq),
        I::F32Ne => S::Binop(B::F32Ne),
        I::F32Lt => S::Binop(B::F32Lt),
        I::F32Gt => S::Binop(B::F32Gt),
        I::F32Le => S::Binop(B::F32Le),
        I::F32Ge => S::Binop(B::F32Ge),
        I::F64Eq => S::Binop(B::F64Eq),
        I::F64Ne => S::Binop(B::F64Ne),
        I::F64Lt => S::Binop(B::F64Lt),
        I::F64Gt => S::Binop(B::F64Gt),
        I::F64Le => S::Binop(B::F64Le),
        I::F64Ge => S::Binop(B::F64Ge),

        I::I32Clz => S::Unop(U::I32Clz),
        I::I32Ctz => S::Unop(U::I32Ctz),
        I::I32Popcnt => S::Unop(U::I32Popcnt),
        I::I32Add => S::Binop(B::I32Add),
        I::I32Sub => S::Binop(B::I32Sub),
        I::I32Mul => S::Binop(B::I32Mul),
        I::I32DivS => S::Binop(B::I32DivS),
        I::I32DivU => S::Binop(B::I32DivU),
        I::I32RemS => S::Binop(B::I32RemS),
        I::I32RemU => S::Binop(B::I32RemU),
        I::I32And => S::Binop(B::I32And),
        I::I32Or => S::Binop(B::I32Or),
        I::I32Xor => S::Binop(B::I32Xor),
        I::I32Shl => S::Binop(B::I32Shl),
        I::I32ShrS => S::Binop(B::I32ShrS),
        I::I32ShrU => S::Binop(B::I32ShrU),
        I::I32Rotl => S::Binop(B::I32Rotl),
        I::I32Rotr => S::Binop(B::I32Rotr),

        I::I64Clz => S::Unop(U::I64Clz),
        I::I64Ctz => S::Unop(U::I64Ctz),
        I::I64Popcnt => S::Unop(U::I64Popcnt),
        I::I64Add => S::Binop(B::I64Add),
        I::I64Sub => S::Binop(B::I64Sub),
        I::I64Mul => S::Binop(B::I64Mul),
        I::I64DivS => S::Binop(B::I64DivS),
        I::I64DivU => S::Binop(B::I64DivU),
        I::I64RemS => S::Binop(B::I64RemS),
        I::I64RemU => S::Binop(B::I64RemU),
        I::I64And => S::Binop(B::I64And),
        I::I64Or => S::Binop(B::I64Or),
        I::I64Xor => S::Binop(B::I64Xor),
        I::I64Shl => S::Binop(B::I64Shl),
        I::I64ShrS => S::Binop(B::I64ShrS),
        I::I64ShrU => S::Binop(B::I64ShrU),
        I::I64Rotl => S::Binop(B::I64Rotl),
        I::I64Rotr => S::Binop(B::I64Rotr),

        I::F32Abs => S::Unop(U::F32Abs),
        I::F32Neg => S::Unop(U::F32Neg),
        I::F32Ceil => S::Unop(U::F32Ceil),
        I::F32Floor => S::Unop(U::F32Floor),
        I::F32Trunc => S::Unop(U::F32Trunc),
        I::F32Nearest => S::Unop(U::F32Nearest),
        I::F32Sqrt => S::Unop(U::F32Sqrt),
        I::F32Add => S::Binop(B::F32Add),
        I::F32Sub => S::Binop(B::F32Sub),
        I::F32Mul => S::Binop(B::F32Mul),
        I::F32Div => S::Binop(B::F32Div),
        I::F32Min => S::Binop(B::F32Min),
        I::F32Max => S::Binop(B::F32Max),
        I::F32Copysign => S::Binop(B::F32Copysign),

        I::F64Abs => S::Unop(U::F64Abs),
        I::F64Neg => S::Unop(U::F64Neg),
        I::F64Ceil => S::Unop(U::F64Ceil),
        I::F64Floor => S::Unop(U::F64Floor),
        I::F64Trunc => S::Unop(U::F64Trunc),
        I::F64Nearest => S::Unop(U::F64Nearest),
        I::F64Sqrt => S::Unop(U::F64Sqrt),
        I::F64Add => S::Binop(B::F64Add),
        I::F64Sub => S::Binop(B::F64Sub),
        I::F64Mul => S::Binop(B::F64Mul),
        I::F64Div => S::Binop(B::F64Div),
        I::F64Min => S::Binop(B::F64Min),
        I::F64Max => S::Binop(B::F64Max),
        I::F64Copysign => S::Binop(B::F64Copysign),

        I::I32WrapI64 => S::Unop(U::I32WrapI64),
        I::I32TruncF32S => S::Unop(U::I32TruncF32S),
        I::I32TruncF32U => S::Unop(U::I32TruncF32U),
        I::I32TruncF64S => S::Unop(U::I32TruncF64S),
        I::I32TruncF64U => S::Unop(U::I32TruncF64U),
        I::I64ExtendI32S => S::Unop(U::I64ExtendI32S),
        I::I64ExtendI32U => S::Unop(U::I64ExtendI32U),
        I::I64TruncF32S => S::Unop(U::I64TruncF32S),
        I::I64TruncF32U => S::Unop(U::I64TruncF32U),
        I::I64TruncF64S => S::Unop(U::I64TruncF64S),
        I::I64TruncF64U => S::Unop(U::I64TruncF64U),
        I::F32ConvertI32S => S::Unop(U::F32ConvertI32S),
        I::F32ConvertI32U => S::Unop(U::F32ConvertI32U),
        I::F32ConvertI64S => S::Unop(U::F32ConvertI64S),
        I::F32ConvertI64U => S::Unop(U::F32ConvertI64U),
        I::F32DemoteF64 => S::Unop(U::F32DemoteF64),
        I::F64ConvertI32S => S::Unop(U::F64ConvertI32S),
        I::F64ConvertI32U => S::Unop(U::F64ConvertI32U),
        I::F64ConvertI64S => S::Unop(U::F64ConvertI64S),
        I::F64ConvertI64U => S::Unop(U::F64ConvertI64U),
        I::F64PromoteF32 => S::Unop(U::F64PromoteF32),
        I::I32ReinterpretF32
        | I::I64ReinterpretF64
        | I::F32ReinterpretI32
        | I::F64ReinterpretI64 => S::Reinterpret,
        I::I32Extend8S => S::Unop(U::I32Extend8S),
        I::I32Extend16S => S::Unop(U::I32Extend16S),
        I::I64Extend8S => S::Unop(U::I64Extend8S),
        I::I64Extend16S => S::Unop(U::I64Extend16S),
        I::I64Extend32S => S::Unop(U::I64Extend32S),

        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::exec::{EngineConfig, ExecMode, Instance, NoHost};
    use crate::instr::Instr as I;
    use crate::profile::{OpClass, ProfOp, ProfileMode};
    use crate::reg::tests::{agreed_outcome, assert_matrix_agrees, engine_matrix, unvalidated};
    use crate::types::BlockType;

    fn run_both(bytes: &[u8], name: &str, args: &[Value]) -> [Result<Vec<Value>, Trap>; 2] {
        let module = crate::load(bytes).unwrap();
        [ExecMode::Interpreted, ExecMode::Aot].map(|mode| {
            let mut inst = Instance::instantiate(&module, mode, &mut NoHost).unwrap();
            inst.invoke(&mut NoHost, name, args)
        })
    }

    #[test]
    fn nested_blocks_and_branches_agree() {
        // A br 1 carrying a value out of a doubly-nested block.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::Block(BlockType::Value(ValType::I32)),
                I::Block(BlockType::Value(ValType::I32)),
                I::I32Const(1),
                I::Br(1),
                I::End,
                I::End,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let [interp, aot] = run_both(&bytes, "f", &[]);
        assert_eq!(interp.unwrap(), vec![Value::I32(1)]);
        assert_eq!(aot.unwrap(), vec![Value::I32(1)]);
    }

    #[test]
    fn loop_with_br_if_counts() {
        // Sums 0..n with a loop + br_if back-edge.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32, ValType::I32],
            vec![
                I::Loop(BlockType::Empty),
                // sum += i
                I::LocalGet(1),
                I::LocalGet(2),
                I::I32Add,
                I::LocalSet(2),
                // i += 1
                I::LocalGet(1),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(1),
                // if i < n continue
                I::LocalGet(1),
                I::LocalGet(0),
                I::I32LtS,
                I::BrIf(0),
                I::End,
                I::LocalGet(2),
                I::End,
            ],
        );
        b.export_func("sum", f);
        let bytes = b.build();
        let [interp, aot] = run_both(&bytes, "sum", &[Value::I32(10)]);
        assert_eq!(interp.unwrap(), vec![Value::I32(45)]);
        assert_eq!(aot.unwrap(), vec![Value::I32(45)]);
    }

    #[test]
    fn if_else_both_arms() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::LocalGet(0),
                I::If(BlockType::Value(ValType::I32)),
                I::I32Const(100),
                I::Else,
                I::I32Const(-100),
                I::End,
                I::End,
            ],
        );
        b.export_func("pick", f);
        let bytes = b.build();
        for (arg, want) in [(1, 100), (0, -100)] {
            let [interp, aot] = run_both(&bytes, "pick", &[Value::I32(arg)]);
            assert_eq!(interp.unwrap(), vec![Value::I32(want)]);
            assert_eq!(aot.unwrap(), vec![Value::I32(want)]);
        }
    }

    #[test]
    fn br_table_selects_all_arms() {
        // br_table over three nested blocks returning distinct constants.
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
        b.export_func("route", f);
        let bytes = b.build();
        for (arg, want) in [(0, 10), (1, 20), (2, 30), (99, 30)] {
            let [interp, aot] = run_both(&bytes, "route", &[Value::I32(arg)]);
            assert_eq!(interp.unwrap(), vec![Value::I32(want)], "arg {arg}");
            assert_eq!(aot.unwrap(), vec![Value::I32(want)], "arg {arg}");
        }
    }

    #[test]
    fn traps_match_tree_interpreter() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![I::LocalGet(0), I::LocalGet(1), I::I32DivS, I::End],
        );
        b.export_func("div", f);
        let bytes = b.build();
        let [interp, aot] = run_both(&bytes, "div", &[Value::I32(1), Value::I32(0)]);
        assert_eq!(interp.unwrap_err(), Trap::DivisionByZero);
        assert_eq!(aot.unwrap_err(), Trap::DivisionByZero);
        let [interp, aot] = run_both(&bytes, "div", &[Value::I32(i32::MIN), Value::I32(-1)]);
        assert_eq!(interp.unwrap_err(), Trap::IntegerOverflow);
        assert_eq!(aot.unwrap_err(), Trap::IntegerOverflow);
    }

    #[test]
    fn recursion_depth_trap_matches() {
        // infinite recursion traps with CallStackExhausted in both modes.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[]);
        let f = b.add_func(ty, &[], vec![I::Call(0), I::End]);
        b.export_func("rec", f);
        let bytes = b.build();
        let [interp, aot] = run_both(&bytes, "rec", &[]);
        assert_eq!(interp.unwrap_err(), Trap::CallStackExhausted);
        assert_eq!(aot.unwrap_err(), Trap::CallStackExhausted);
    }

    #[test]
    fn branch_discards_excess_operands() {
        // A br out of a block with extra values on the stack must keep only
        // the label arity; register lowering encodes the fix-up statically.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::Block(BlockType::Value(ValType::I32)),
                I::I32Const(7),
                I::I32Const(8),
                I::I32Const(42),
                I::Br(0),
                I::End,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let [interp, aot] = run_both(&bytes, "f", &[]);
        assert_eq!(interp.unwrap(), vec![Value::I32(42)]);
        assert_eq!(aot.unwrap(), vec![Value::I32(42)]);
    }

    #[test]
    fn unreachable_code_after_br_is_skipped() {
        // Ops after a br in the same block never execute; the lowering
        // skips them entirely (they would otherwise corrupt bookkeeping).
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::Block(BlockType::Value(ValType::I32)),
                I::I32Const(5),
                I::Br(0),
                I::I32Const(1),
                I::I32Const(2),
                I::I32Add,
                I::End,
                I::End,
            ],
        );
        b.export_func("f", f);
        let bytes = b.build();
        let [interp, aot] = run_both(&bytes, "f", &[]);
        assert_eq!(interp.unwrap(), vec![Value::I32(5)]);
        assert_eq!(aot.unwrap(), vec![Value::I32(5)]);
    }

    #[test]
    fn is_i32_covers_exactly_the_i32_ranges() {
        use BinOpKind as B;
        for op in [B::I32Add, B::I32DivS, B::I32Rotr, B::I32Eq, B::I32GeU] {
            assert!(op.is_i32(), "{op:?}");
        }
        for op in [B::I64Add, B::I64Rotr, B::F32Add, B::F64Copysign] {
            assert!(!op.is_i32(), "{op:?}");
        }
        for op in [B::I64Eq, B::I64GeU, B::F32Eq, B::F64Ge] {
            assert!(!op.is_i32(), "{op:?}");
        }
    }

    /// Decodes the one-instruction body `op [memarg]; end`.
    fn decode_one(op: u8, memarg: bool) -> I {
        let mut body = vec![0x00, op]; // no locals
        if memarg {
            body.extend([0x00, 0x00]); // align, offset
        }
        body.push(0x0b);
        let mut bytes = b"\0asm\x01\0\0\0".to_vec();
        bytes.extend([1, 4, 1, 0x60, 0, 0]); // type section: () -> ()
        bytes.extend([3, 2, 1, 0]); // function section
        bytes.extend([10, body.len() as u8 + 2, 1, body.len() as u8]);
        bytes.extend(body);
        let module = crate::decode::decode(&bytes).unwrap_or_else(|e| panic!("{op:#x}: {e}"));
        module.funcs[0].code[0].clone()
    }

    /// The `(pops, pushes)` shapes under which the validator types `instr`,
    /// found by trying every operand and result type on the body
    /// `local.get 0 .. local.get pops-1; instr; end`.
    fn validated_shapes(instr: &I) -> Vec<(usize, usize)> {
        const TYPES: [ValType; 4] = [ValType::I32, ValType::I64, ValType::F32, ValType::F64];
        let mut shapes = Vec::new();
        for (pops, pushes) in [(1, 1), (2, 1), (2, 0)] {
            let validates = (0..4usize.pow(pops as u32 + pushes as u32)).any(|mut combo| {
                let mut pick = || {
                    let t = TYPES[combo % 4];
                    combo /= 4;
                    t
                };
                let params: Vec<ValType> = (0..pops).map(|_| pick()).collect();
                let results: Vec<ValType> = (0..pushes).map(|_| pick()).collect();
                let mut b = ModuleBuilder::new();
                b.add_memory(1, None);
                let ty = b.add_type(&params, &results);
                let mut code: Vec<I> = (0..pops as u32).map(I::LocalGet).collect();
                code.extend([instr.clone(), I::End]);
                b.add_func(ty, &[], code);
                crate::validate::validate(b.module()).is_ok()
            });
            if validates {
                shapes.push((pops, pushes));
            }
        }
        shapes
    }

    #[test]
    fn map_simple_classes_agree_with_the_validator() {
        // `map_simple` is the compile's only per-instruction table, and an
        // instruction's stack effect follows from the class it assigns.
        // Pin it against the validator's independent typing of every
        // numeric opcode and every load and store, and check the
        // retirement classifier still knows each one.
        let numeric = (0x45..=0xC4u8).map(|op| (op, false));
        let memory = (0x28..=0x3Eu8).map(|op| (op, true));
        let mut seen = 0;
        for (opcode, memarg) in numeric.chain(memory) {
            let instr = decode_one(opcode, memarg);
            let (class_effect, prof_classes): (_, &[OpClass]) = match map_simple(&instr) {
                Some(Simple::Unop(_)) => (
                    (1, 1),
                    &[OpClass::Arith, OpClass::Compare, OpClass::Convert],
                ),
                Some(Simple::Binop(_)) => ((2, 1), &[OpClass::Arith, OpClass::Compare]),
                Some(Simple::Load { offset: 0, .. }) => ((1, 1), &[OpClass::Load]),
                Some(Simple::Store { offset: 0, .. }) => ((2, 0), &[OpClass::Store]),
                Some(Simple::Reinterpret) => ((1, 1), &[OpClass::Convert]),
                other => panic!("{instr:?} classifies as {other:?}, not a numeric or memory class"),
            };
            assert_eq!(
                validated_shapes(&instr),
                [class_effect],
                "{instr:?}: validator and lowering disagree on the stack effect"
            );
            let (cls, weight) = crate::profile::classify(&instr);
            assert!(
                weight == 1 && prof_classes.contains(&cls),
                "{instr:?}: classified {cls:?} weight {weight}"
            );
            assert_eq!(ProfOp::of_instr(&instr), ProfOp::of(cls, 1), "{instr:?}");
            seen += 1;
        }
        assert_eq!(seen, 128 + 23);
        // The four constants are the other class; nothing else has one.
        for (instr, bits) in [
            (I::I32Const(-1), u64::from(u32::MAX)),
            (I::I64Const(-1), u64::MAX),
            (I::F32Const(1.0), u64::from(1.0f32.to_bits())),
            (I::F64Const(-0.0), (-0.0f64).to_bits()),
        ] {
            assert_eq!(map_simple(&instr), Some(Simple::Const(bits)), "{instr:?}");
        }
        for instr in [
            I::Nop,
            I::Drop,
            I::LocalGet(0),
            I::MemoryGrow,
            I::If(BlockType::Empty),
        ] {
            assert_eq!(map_simple(&instr), None, "{instr:?}");
        }
    }

    #[test]
    fn truncated_body_is_an_error_not_a_panic() {
        // A body whose control is unbalanced (missing `End`) must surface
        // as an instantiation error even though it skipped validation.
        let module = unvalidated(vec![I::Block(BlockType::Empty), I::Nop]);
        let err = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).unwrap_err();
        match err {
            Trap::Instantiation(msg) => assert!(msg.contains("register lowering"), "{msg}"),
            other => panic!("expected Instantiation, got {other:?}"),
        }
    }

    #[test]
    fn malformed_bodies_error_instead_of_panicking() {
        use BlockType::{Empty, Func, Value as Val};
        let cases: Vec<(&str, Vec<I>)> = vec![
            ("else without if", vec![I::Else, I::End]),
            ("unbalanced end", vec![I::End, I::End]),
            ("branch depth", vec![I::Br(7), I::End]),
            ("stack underflow", vec![I::I32Add, I::End]),
            (
                "trailing code after final end",
                vec![I::End, I::Nop, I::Nop],
            ),
            (
                "control instr by simple mapping",
                vec![I::I32Const(0), I::BrIf(9), I::End],
            ),
            (
                "else in a loop",
                vec![I::Loop(Empty), I::Else, I::End, I::End],
            ),
            (
                "second else",
                vec![
                    I::I32Const(1),
                    I::If(Empty),
                    I::Else,
                    I::Else,
                    I::End,
                    I::End,
                ],
            ),
            (
                "then-branch leaves a value",
                vec![
                    I::I32Const(1),
                    I::If(Empty),
                    I::I32Const(2),
                    I::Else,
                    I::End,
                    I::End,
                ],
            ),
            (
                "block result missing at its end",
                vec![I::Block(Val(ValType::I32)), I::End, I::Drop, I::End],
            ),
            ("block type index", vec![I::Block(Func(9)), I::End, I::End]),
            ("if without condition", vec![I::If(Empty), I::End, I::End]),
            (
                "br_table depth",
                vec![
                    I::I32Const(0),
                    I::BrTable {
                        targets: vec![0],
                        default: 5,
                    },
                    I::End,
                ],
            ),
            (
                "compare into a br_if past the body",
                vec![
                    I::I32Const(1),
                    I::I32Const(2),
                    I::I32LtS,
                    I::BrIf(3),
                    I::End,
                ],
            ),
            (
                "eqz into an if without end",
                vec![I::I32Const(1), I::I32Eqz, I::If(Empty), I::End],
            ),
            ("call target", vec![I::Call(5), I::End]),
            ("local index", vec![I::LocalGet(3), I::Drop, I::End]),
        ];
        for (what, code) in cases {
            let module = unvalidated(code);
            for fuse in [true, false] {
                let cfg = EngineConfig {
                    fuse,
                    ..EngineConfig::default()
                };
                let err = Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut NoHost);
                assert!(
                    matches!(err, Err(Trap::Instantiation(_))),
                    "{what} (fuse = {fuse}): expected Err(Instantiation), got {err:?}"
                );
            }
        }
    }

    #[test]
    fn fusion_emits_expected_superinstructions() {
        // sum-loop: the exit test joins its branch, both updates sink into
        // their locals (one with the constant inline).
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32, ValType::I32],
            vec![
                I::Block(BlockType::Empty),
                I::Loop(BlockType::Empty),
                I::LocalGet(1),
                I::LocalGet(0),
                I::I32LtS,
                I::I32Eqz,
                I::BrIf(1),
                I::LocalGet(2),
                I::LocalGet(1),
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
                I::End,
            ],
        );
        b.export_func("sum", f);
        let module = crate::load(&b.build()).unwrap();
        let fused = CompiledModule::compile_full(&module, true).unwrap();
        let stats = fused.fusion;
        assert_eq!(
            stats.of(crate::reg::Rule::CmpBr),
            1,
            "loop exit must fuse: {stats:?}"
        );
        assert_eq!(stats.of(crate::reg::Rule::BinopSet), 2, "{stats:?}");
        assert_eq!(stats.total(), 3, "{stats:?}");
        let code = &fused.funcs[0].as_ref().unwrap().code;
        assert_eq!(
            code.len(),
            6,
            "exit, two updates, back-edge, result: {code:?}"
        );
        let unfused = CompiledModule::compile_full(&module, false).unwrap();
        assert_eq!(unfused.fusion.total(), 0);
        // And the fused loop still computes the same sum.
        let oracle = agreed_outcome(&b.build(), "sum", &[Value::I32(10)], "sum loop");
        assert_eq!(oracle.unwrap(), vec![Value::I32(45)]);
    }

    #[test]
    fn eqz_chain_polarity_is_preserved() {
        // `cond; eqz^n; br_if` for n = 0..4: each n flips the polarity;
        // fused and unfused engines must agree on which arm runs.
        for n_eqz in 0..4 {
            let mut body = vec![
                I::Block(BlockType::Empty),
                I::Loop(BlockType::Empty),
                I::LocalGet(1),
                I::LocalGet(0),
                I::I32GeS,
            ];
            for _ in 0..n_eqz {
                body.push(I::I32Eqz);
            }
            // Exit when (i >= n) truthiness (xor the chain parity) holds.
            body.push(I::BrIf(1));
            body.extend([
                I::LocalGet(1),
                I::I32Const(1),
                I::I32Add,
                I::LocalSet(1),
                I::Br(0),
                I::End,
                I::End,
                I::LocalGet(1),
                I::End,
            ]);
            let mut b = ModuleBuilder::new();
            let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
            let f = b.add_func(ty, &[ValType::I32], body);
            b.export_func("f", f);
            let bytes = b.build();
            // Even parities loop until i >= n (returning n); odd parities
            // invert the test and exit on the first iteration (returning
            // 0) — either way every configuration must agree.
            assert_matrix_agrees(&bytes, "f", &[Value::I32(3)], &format!("eqz chain {n_eqz}"));
        }
    }

    #[test]
    fn fused_div_traps_match_oracle() {
        // `local.get; local.get; div` reads both operands straight from
        // the locals: the INT_MIN/-1 overflow, the /0 trap and the
        // INT_MIN%-1 == 0 non-trap must be bit-identical to the oracle,
        // fused and unfused.
        for (op, name) in [
            (I::I32DivS, "div_s"),
            (I::I32RemS, "rem_s"),
            (I::I32DivU, "div_u"),
            (I::I32RemU, "rem_u"),
        ] {
            let mut b = ModuleBuilder::new();
            let ty = b.add_type(&[ValType::I32, ValType::I32], &[ValType::I32]);
            let f = b.add_func(
                ty,
                &[],
                vec![I::LocalGet(0), I::LocalGet(1), op.clone(), I::End],
            );
            b.export_func(name, f);
            let bytes = b.build();
            for (a, d) in [
                (i32::MIN, -1),
                (1, 0),
                (i32::MIN, 0),
                (7, -3),
                (-7, 3),
                (i32::MIN, 1),
            ] {
                assert_matrix_agrees(
                    &bytes,
                    name,
                    &[Value::I32(a), Value::I32(d)],
                    &format!("{name}({a},{d})"),
                );
            }
        }
        // i64 equivalents through the fused path.
        for (op, name) in [(I::I64DivS, "div_s64"), (I::I64RemS, "rem_s64")] {
            let mut b = ModuleBuilder::new();
            let ty = b.add_type(&[ValType::I64, ValType::I64], &[ValType::I64]);
            let f = b.add_func(
                ty,
                &[],
                vec![I::LocalGet(0), I::LocalGet(1), op.clone(), I::End],
            );
            b.export_func(name, f);
            let bytes = b.build();
            for (a, d) in [(i64::MIN, -1), (1, 0), (i64::MIN, 0), (9, -4)] {
                assert_matrix_agrees(
                    &bytes,
                    name,
                    &[Value::I64(a), Value::I64(d)],
                    &format!("{name}({a},{d})"),
                );
            }
        }
    }

    #[test]
    fn fused_lk_div_overflow_traps() {
        // `local.get; const -1; i32.div_s; local.set` becomes one op with
        // the constant inline and the local as destination; INT_MIN / -1
        // must still trap with overflow.
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                I::LocalGet(0),
                I::I32Const(-1),
                I::I32DivS,
                I::LocalSet(1),
                I::LocalGet(1),
                I::End,
            ],
        );
        b.export_func("divk", f);
        let bytes = b.build();
        let module = crate::load(&bytes).unwrap();
        let compiled = CompiledModule::compile_full(&module, true).unwrap();
        assert_eq!(
            compiled.fusion.of(crate::reg::Rule::BinopSet),
            1,
            "the set sink must fuse"
        );
        for a in [i32::MIN, 42, -42] {
            assert_matrix_agrees(&bytes, "divk", &[Value::I32(a)], &format!("divk({a})"));
        }
        let oracle = agreed_outcome(&bytes, "divk", &[Value::I32(i32::MIN)], "pinned case");
        assert_eq!(oracle.unwrap_err(), Trap::IntegerOverflow);
    }

    #[test]
    fn div_in_fused_set_window_retires_exactly() {
        // The same set-sink shape as above, profiled: the trap point sits
        // mid-window (`get; const; div; set` fuses, the set's retirement
        // deferred until the div succeeds). On trap every engine must
        // retire exactly the oracle's 3 guest ops (get, const, div —
        // inclusive of the trapping div); on success all 5 (plus the
        // trailing re-get of the local).
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[ValType::I32],
            vec![
                I::LocalGet(0),
                I::I32Const(-1),
                I::I32DivS,
                I::LocalSet(1),
                I::LocalGet(1),
                I::End,
            ],
        );
        b.export_func("divk", f);
        let bytes = b.build();
        let module = crate::load(&bytes).unwrap();
        let compiled = CompiledModule::compile_full(&module, true).unwrap();
        assert_eq!(
            compiled.fusion.of(crate::reg::Rule::BinopSet),
            1,
            "the set sink must fuse"
        );
        for (arg, expect_trap, expect_instret) in
            [(i32::MIN, true, 3), (42, false, 5), (-42, false, 5)]
        {
            for (label, mode, fuse) in [
                ("oracle", ExecMode::Interpreted, true),
                ("register unfused", ExecMode::Aot, false),
                ("register", ExecMode::Aot, true),
            ] {
                let cfg = EngineConfig {
                    fuse,
                    profile: ProfileMode::Count,
                };
                let mut inst = Instance::instantiate_with(&module, mode, cfg, &mut NoHost).unwrap();
                let outcome = inst.invoke(&mut NoHost, "divk", &[Value::I32(arg)]);
                assert_eq!(outcome.is_err(), expect_trap, "{label} divk({arg})");
                let p = inst.profile().expect("counting instance profiles");
                assert_eq!(
                    p.instret, expect_instret,
                    "{label} divk({arg}) retired the wrong guest-op count"
                );
                assert_eq!(p.traps, u64::from(expect_trap), "{label} divk({arg}) traps");
            }
        }
    }

    #[test]
    fn br_table_out_of_range_clamps_to_default_in_all_engines() {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(
            ty,
            &[],
            vec![
                I::Block(BlockType::Empty),
                I::Block(BlockType::Empty),
                I::LocalGet(0),
                I::BrTable {
                    targets: vec![0],
                    default: 1,
                },
                I::End,
                I::I32Const(10),
                I::Return,
                I::End,
                I::I32Const(20),
                I::End,
            ],
        );
        b.export_func("route", f);
        let bytes = b.build();
        for arg in [0, 1, 2, i32::MAX, -1] {
            assert_matrix_agrees(
                &bytes,
                "route",
                &[Value::I32(arg)],
                &format!("route({arg})"),
            );
        }
        // -1 reads as u32::MAX: firmly out of range, must take the default.
        let oracle = agreed_outcome(&bytes, "route", &[Value::I32(-1)], "pinned case");
        assert_eq!(oracle.unwrap(), vec![Value::I32(20)]);
    }

    #[test]
    fn fused_load_store_oob_traps_match() {
        // `local.get; load` / `local.get; store` address memory straight
        // from the locals' frame slots; out-of-bounds must still trap with
        // MemoryOutOfBounds in every engine, including offset overflow.
        use crate::instr::MemArg;
        let mut b = ModuleBuilder::new();
        b.add_memory(1, Some(1));
        let lty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let load = b.add_func(
            lty,
            &[],
            vec![I::LocalGet(0), I::I32Load(MemArg::new(2, 8)), I::End],
        );
        b.export_func("load", load);
        let sty = b.add_type(&[ValType::I32, ValType::I32], &[]);
        let store = b.add_func(
            sty,
            &[],
            vec![
                I::LocalGet(0),
                I::LocalGet(1),
                I::I32Store(MemArg::new(2, 8)),
                I::End,
            ],
        );
        b.export_func("store", store);
        let bytes = b.build();
        let module = crate::load(&bytes).unwrap();
        let compiled = CompiledModule::compile_full(&module, true).unwrap();
        let stats = compiled.stats;
        assert_eq!(
            (stats.gets_forwarded, stats.moves_inserted),
            (3, 0),
            "every access reads its local in place: {stats:?}"
        );
        for addr in [0, 65520, 65529, 65536, -1, i32::MAX] {
            assert_matrix_agrees(&bytes, "load", &[Value::I32(addr)], &format!("load {addr}"));
            assert_matrix_agrees(
                &bytes,
                "store",
                &[Value::I32(addr), Value::I32(7)],
                &format!("store {addr}"),
            );
        }
        let oracle = agreed_outcome(&bytes, "load", &[Value::I32(65536)], "pinned case");
        assert_eq!(oracle.unwrap_err(), Trap::MemoryOutOfBounds);
    }

    #[test]
    fn memory_grow_failure_returns_minus_one_in_all_engines() {
        // Growing past the declared max must return -1 (not trap) and do
        // so identically across engines.
        let mut b = ModuleBuilder::new();
        b.add_memory(1, Some(2));
        let ty = b.add_type(&[ValType::I32], &[ValType::I32]);
        let f = b.add_func(ty, &[], vec![I::LocalGet(0), I::MemoryGrow, I::End]);
        b.export_func("grow", f);
        let bytes = b.build();
        for delta in [0, 1, 2, 1000, -1] {
            assert_matrix_agrees(
                &bytes,
                "grow",
                &[Value::I32(delta)],
                &format!("grow {delta}"),
            );
        }
        let oracle = agreed_outcome(&bytes, "grow", &[Value::I32(1000)], "pinned case");
        assert_eq!(oracle.unwrap(), vec![Value::I32(-1)]);
    }

    #[test]
    fn host_result_arity_mismatch_traps_identically_in_every_engine() {
        // A HostEnv that violates its declared result arity must raise
        // the same Host trap in every engine, instead of silently reading
        // stale slots (register engine) or running on with a wrong
        // operand-stack height (interpreter).
        use crate::exec::{HostEnv, Memory};
        struct BadHost;
        impl HostEnv for BadHost {
            fn call(
                &mut self,
                _module: &str,
                _name: &str,
                _memory: &mut Memory,
                _args: &[Value],
            ) -> Result<Vec<Value>, Trap> {
                Ok(Vec::new()) // declared () -> i32, returns nothing
            }
        }
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I32]);
        let imp = b.import_func("env", "f", ty);
        let g = b.add_func(ty, &[], vec![I::Call(imp), I::End]);
        b.export_func("g", g);
        // The import itself is also exported: the direct-invoke path must
        // enforce the same guard as guest-initiated calls.
        b.export_func("f", imp);
        let module = crate::load(&b.build()).unwrap();
        for export in ["g", "f"] {
            let mut outcomes = Vec::new();
            let mut interp = Instance::instantiate(&module, ExecMode::Interpreted, &mut BadHost)
                .expect("no start function, instantiation cannot call the host");
            outcomes.push((
                "oracle".to_string(),
                interp.invoke(&mut BadHost, export, &[]),
            ));
            for (label, cfg) in engine_matrix() {
                let mut inst =
                    Instance::instantiate_with(&module, ExecMode::Aot, cfg, &mut BadHost).unwrap();
                outcomes.push((label, inst.invoke(&mut BadHost, export, &[])));
            }
            for (label, outcome) in outcomes {
                match outcome {
                    Err(Trap::Host(msg)) => {
                        assert!(
                            msg.contains("returned 0 results"),
                            "{label}/{export}: {msg}"
                        );
                    }
                    other => panic!("{label}/{export}: expected Host trap, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn float_bits_roundtrip_through_slots() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let s = slot_from_value(Value::F64(v));
            assert_eq!(value_from_slot(ValType::F64, s), Value::F64(v));
        }
        let nan = f64::NAN;
        let s = slot_from_value(Value::F64(nan));
        match value_from_slot(ValType::F64, s) {
            Value::F64(x) => assert_eq!(x.to_bits(), nan.to_bits()),
            _ => panic!(),
        }
        for v in [0.0f32, -0.0, 3.25, f32::MIN_POSITIVE] {
            let s = slot_from_value(Value::F32(v));
            assert_eq!(value_from_slot(ValType::F32, s), Value::F32(v));
        }
    }
}
