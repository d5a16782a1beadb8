//! The original range walk, kept (less the opcodes deleted since) as the
//! test oracle the demand-driven walk in [`super`] is differenced against:
//! it value-numbers
//! every op of every body through `std`'s SipHash maps and materialises a
//! whole frame of unknowns at every jump target. Only the interval
//! transfer functions are shared with the shipped walk.

use std::collections::HashMap;

use super::{iv_add, iv_bin, iv_mul_k, load_width, store_width, Proof};
use crate::flat::BinOpKind;
use crate::reg::{RegFunc, RegOp};

/// A hash-consing key: two values with the same key hold the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VnKey {
    /// A constant, keyed on the raw slot encoding.
    Const(u64),
    /// `op(a, b)` for a fusable binary operator (deterministic in its
    /// operand bits, so operand-VN equality implies result equality).
    Bin(BinOpKind, u32, u32),
    /// `base + idx*k` on i32 (the ScaleAdd address tail).
    ScaleAdd { k: u32, base: u32, idx: u32 },
    /// `base + (part + z)*k` on i32 (the IdxLAdd address tail).
    IdxLAdd {
        k: u32,
        base: u32,
        part: u32,
        z: u32,
    },
}

/// The value-number interner plus the interval fact per value number.
struct Vals {
    intern: HashMap<VnKey, u32>,
    /// `iv[vn]` is the `[lo, hi]` interval on the u32 interpretation,
    /// when one is known. Indexed by value number.
    iv: Vec<Option<(u64, u64)>>,
}

impl Vals {
    fn new() -> Vals {
        Vals {
            intern: HashMap::new(),
            iv: Vec::new(),
        }
    }

    /// A brand-new value number with no facts (an unknown value).
    fn fresh(&mut self) -> u32 {
        self.iv.push(None);
        (self.iv.len() - 1) as u32
    }

    /// Interns a key; on first sight the interval is computed by `mk`.
    fn keyed(&mut self, key: VnKey, mk: impl FnOnce(&Vals) -> Option<(u64, u64)>) -> u32 {
        if let Some(&vn) = self.intern.get(&key) {
            return vn;
        }
        let iv = mk(self);
        self.iv.push(iv);
        let vn = (self.iv.len() - 1) as u32;
        self.intern.insert(key, vn);
        vn
    }

    fn konst(&mut self, bits: u64) -> u32 {
        self.keyed(VnKey::Const(bits), |_| {
            let v = u64::from(bits as u32);
            Some((v, v))
        })
    }

    fn bin(&mut self, op: BinOpKind, a: u32, b: u32) -> u32 {
        self.keyed(VnKey::Bin(op, a, b), |vals| {
            iv_bin(op, vals.iv[a as usize], vals.iv[b as usize])
        })
    }

    /// `base + idx*k` (i32 wrapping at runtime; the interval is assigned
    /// only when the whole chain provably does not wrap).
    fn scale_add(&mut self, base: u32, idx: u32, k: u32) -> u32 {
        self.keyed(VnKey::ScaleAdd { k, base, idx }, |vals| {
            let t = iv_mul_k(vals.iv[idx as usize], k)?;
            iv_add(vals.iv[base as usize], Some(t))
        })
    }

    /// `base + (part + z)*k` (i32 wrapping at runtime).
    fn idx_l_add(&mut self, base: u32, part: u32, z: u32, k: u32) -> u32 {
        self.keyed(VnKey::IdxLAdd { k, base, part, z }, |vals| {
            let s = iv_add(vals.iv[part as usize], vals.iv[z as usize])?;
            let t = iv_mul_k(Some(s), k)?;
            iv_add(vals.iv[base as usize], Some(t))
        })
    }

    fn interval(&self, vn: u32) -> Option<(u64, u64)> {
        self.iv[vn as usize]
    }
}
/// The coverage map of the current straight-line region: address value
/// number → largest `offset + width` end point already checked or proven
/// at that address.
#[derive(Default)]
struct Covered {
    map: HashMap<u32, u64>,
}

impl Covered {
    fn clear(&mut self) {
        self.map.clear();
    }

    /// Judges one access and widens the coverage for later accesses in
    /// the region: every access is checked, so past it the bound holds.
    fn access(&mut self, vals: &Vals, vn: u32, offset: u32, width: u64, min_mem: u64) -> Proof {
        let end = u64::from(offset) + width;
        let proof = if vals.interval(vn).is_some_and(|(_, hi)| hi + end <= min_mem) {
            Proof::Interval
        } else if self.map.get(&vn).is_some_and(|&c| end <= c) {
            Proof::Subsumed
        } else {
            Proof::Unproven
        };
        let e = self.map.entry(vn).or_insert(0);
        if end > *e {
            *e = end;
        }
        proof
    }
}

/// Marks every jump target in a register body.
fn reg_targets(code: &[RegOp]) -> Vec<bool> {
    let mut t = vec![false; code.len()];
    let mut mark = |x: u32| {
        if let Some(b) = t.get_mut(x as usize) {
            *b = true;
        }
    };
    for op in code {
        match op {
            RegOp::Jump { target }
            | RegOp::BrIf { target, .. }
            | RegOp::BrMoves { target, .. }
            | RegOp::BrIfMoves { target, .. }
            | RegOp::CmpBr { target, .. }
            | RegOp::IncBrLtS { target, .. } => mark(*target),
            RegOp::BrTable { entries, .. } => {
                for e in entries.iter() {
                    mark(e.target);
                }
            }
            _ => {}
        }
    }
    t
}

/// Runs the range analysis over one register body, returning the
/// in-bounds verdict per pc: `None` for ops that are not memory accesses
/// (or sit in a region no fall-through reaches), `Some(proof)` for each
/// access site. Every frame slot resets to an unknown at each region
/// start.
#[allow(clippy::too_many_lines)]
pub(crate) fn reg_proofs(f: &RegFunc, min_mem: u64) -> Vec<Option<Proof>> {
    let n = f.code.len();
    let mut proofs: Vec<Option<Proof>> = vec![None; n];
    let is_target = reg_targets(&f.code);
    let mut vals = Vals::new();
    let mut covered = Covered::default();
    let fs = f.frame_size as usize;
    let mut slots: Vec<u32> = (0..fs).map(|_| vals.fresh()).collect();
    let mut live = true;

    for pc in 0..n {
        if is_target[pc] {
            slots = (0..fs).map(|_| vals.fresh()).collect();
            covered.clear();
            live = true;
        }
        if !live {
            continue;
        }
        macro_rules! s {
            ($i:expr) => {
                slots.get(*$i as usize).copied().unwrap_or(0)
            };
        }
        macro_rules! sset {
            ($i:expr, $v:expr) => {
                if let Some(slot) = slots.get_mut(*$i as usize) {
                    *slot = $v;
                }
            };
        }
        macro_rules! access {
            ($vn:expr, $off:expr, $w:expr) => {{
                proofs[pc] = Some(covered.access(&vals, $vn, $off, $w, min_mem));
            }};
        }
        match &f.code[pc] {
            RegOp::Unreachable
            | RegOp::Jump { .. }
            | RegOp::BrMoves { .. }
            | RegOp::BrTable { .. }
            | RegOp::Return { .. } => live = false,
            // Conditional exits keep the fall-through facts.
            RegOp::BrIf { .. } | RegOp::BrIfMoves { .. } | RegOp::CmpBr { .. } => {}

            // Calls clobber every slot from the callee's frame base up
            // (the callee reuses that region); the coverage map survives.
            RegOp::CallLocal { base, .. }
            | RegOp::CallImport { base, .. }
            | RegOp::CallIndirect { base, .. } => {
                for s in slots.iter_mut().skip(*base as usize) {
                    *s = vals.fresh();
                }
            }

            RegOp::Select { dst, .. }
            | RegOp::GlobalGet { dst, .. }
            | RegOp::MemorySize { dst }
            | RegOp::MemoryGrow { dst, .. }
            | RegOp::Unop { dst, .. } => {
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::GlobalSet { .. } | RegOp::MemoryCopy { .. } | RegOp::MemoryFill { .. } => {}
            RegOp::Move { src, dst } => {
                let v = s!(src);
                sset!(dst, v);
            }
            RegOp::Const { bits, dst } => {
                let v = vals.konst(*bits);
                sset!(dst, v);
            }
            RegOp::Binop { op, a, b, dst } => {
                let v = vals.bin(*op, s!(a), s!(b));
                sset!(dst, v);
            }
            RegOp::BinopK { op, a, k, dst } => {
                let kk = vals.konst(*k);
                let v = vals.bin(*op, s!(a), kk);
                sset!(dst, v);
            }
            RegOp::MulAddI32 { y, n, z, dst } => {
                let row = vals.bin(BinOpKind::I32Mul, s!(y), s!(n));
                let v = vals.bin(BinOpKind::I32Add, row, s!(z));
                sset!(dst, v);
            }
            RegOp::AddI32K { a, k, dst } => {
                let kk = vals.konst(u64::from(*k));
                let v = vals.bin(BinOpKind::I32Add, s!(a), kk);
                sset!(dst, v);
            }
            // A conditional exit that steps `i` first.
            RegOp::IncBrLtS { i, k, .. } => {
                let kk = vals.konst(u64::from(*k));
                let v = vals.bin(BinOpKind::I32Add, s!(i), kk);
                sset!(i, v);
            }
            RegOp::AddF64 { dst, .. } | RegOp::SubF64 { dst, .. } | RegOp::MulF64 { dst, .. } => {
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::ScaleAdd { base, idx, k, dst } => {
                let v = vals.scale_add(s!(base), s!(idx), *k);
                sset!(dst, v);
            }
            RegOp::IdxLAdd {
                base,
                y,
                n,
                z,
                k,
                dst,
            } => {
                let part = vals.bin(BinOpKind::I32Mul, s!(y), s!(n));
                let v = vals.idx_l_add(s!(base), part, s!(z), *k);
                sset!(dst, v);
            }

            RegOp::Load {
                kind,
                addr,
                offset,
                dst,
            } => {
                access!(s!(addr), *offset, load_width(*kind));
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::Store {
                kind, addr, offset, ..
            } => access!(s!(addr), *offset, store_width(*kind)),
            RegOp::StoreI32R { addr, offset, .. } => access!(s!(addr), *offset, 4),
            RegOp::StoreF64R { addr, offset, .. } => access!(s!(addr), *offset, 8),
            RegOp::ScaleAddLoadI32 {
                base,
                idx,
                k,
                offset,
                dst,
            } => {
                let vn = vals.scale_add(s!(base), s!(idx), *k);
                access!(vn, *offset, 4);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::ScaleAddLoadF64 {
                base,
                idx,
                k,
                offset,
                dst,
            } => {
                let vn = vals.scale_add(s!(base), s!(idx), *k);
                access!(vn, *offset, 8);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::IdxLAddLoadF64 {
                base,
                y,
                n,
                z,
                k,
                offset,
                dst,
            } => {
                let part = vals.bin(BinOpKind::I32Mul, s!(y), s!(n));
                let vn = vals.idx_l_add(s!(base), part, s!(z), *k);
                access!(vn, *offset, 8);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::AddStoreF64 {
                addr, offset, dst, ..
            } => {
                access!(s!(addr), *offset, 8);
                let v = vals.fresh();
                sset!(dst, v);
            }
        }
    }
    proofs
}
