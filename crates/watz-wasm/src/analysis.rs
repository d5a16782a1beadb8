//! Intra-function value-range analysis over the register form, feeding
//! bounds-check elision on the register engine.
//!
//! # What the analysis computes
//!
//! A single forward walk per function body tracks, for every frame slot,
//! a **value number**: a hash-consed symbolic name such that two operands
//! with the same value number are guaranteed to hold the same bits at
//! runtime. On top of the value numbers the walk keeps two facts:
//!
//! - an **interval** `[lo, hi]` on the u32 interpretation of a value,
//!   assigned only when it provably cannot wrap (constants, and the
//!   closed arithmetic the address chains use: non-overflowing add/mul,
//!   `and`-masking, unsigned div/rem/shift by constants, and the fused
//!   `ScaleAdd`/`IdxLAdd` address tails);
//! - a **coverage map** from the value number of an address operand to
//!   the largest `offset + width` end point already accessed (checked or
//!   proven) at that address in the current straight-line region.
//!
//! A memory access is **proven in bounds** when either
//!
//! 1. *(interval)* `hi + offset + width <= min_memory_bytes`, the
//!    memory's minimum size — linear memory only ever grows, so the
//!    minimum is a lower bound on `mem.len()` for the whole run; or
//! 2. *(subsumption)* an earlier access in the same straight-line region
//!    already checked (or proved) the same address value number up to at
//!    least `offset + width`. The earlier access dominates: region
//!    boundaries are exactly the jump targets, so the only way into the
//!    middle of a region is to fall through its start, and the earlier
//!    access either trapped (the later one never runs) or established
//!    the bound. Calls and `memory.grow` never invalidate coverage —
//!    nothing can shrink a memory — and conditional branches only leave
//!    a region, never enter it.
//!
//! Proven accesses are rewritten to the check-free `*N` opcode forms of
//! [`crate::reg::RegOp`]. The rewrite is re-proven from scratch by
//! [`crate::verify`] on every verified instantiation: the verifier runs
//! this same deterministic analysis over the *rewritten* body and refuses
//! any check-free opcode it cannot prove, so the optimization can never
//! outrun the analysis.
//!
//! Set `WATZ_NO_ELIDE=1` (or [`crate::exec::EngineConfig::elide`] off) to
//! keep every access on the checked path; the proofs are still computed
//! and counted.

use std::collections::HashMap;

use crate::flat::{BinOpKind, LoadKind, StoreKind};
use crate::reg::{RegFunc, RegOp};

/// Counters for the value-range analysis and the bounds-check elision it
/// feeds, summed over a module's register-form bodies. Exposed
/// like [`crate::FusionStats`] via
/// [`Instance::range_stats`](crate::exec::Instance::range_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeStats {
    /// Function bodies analyzed.
    pub funcs: u64,
    /// Memory-access sites examined (loads, stores, and the fused forms
    /// carrying an access).
    pub accesses: u64,
    /// Accesses proven in bounds by the interval fact alone.
    pub proven_interval: u64,
    /// Accesses proven in bounds by an earlier dominating access to the
    /// same address value number.
    pub proven_subsumed: u64,
    /// Proven accesses actually rewritten to a check-free opcode (only
    /// the opcode shapes with a check-free twin are rewritten).
    pub elided: u64,
}

impl RangeStats {
    /// Total accesses proven in bounds, by either fact.
    #[must_use]
    pub fn proven(&self) -> u64 {
        self.proven_interval + self.proven_subsumed
    }

    /// Per-counter `(name, count)` pairs, for coverage assertions and
    /// logs.
    #[must_use]
    pub fn counts(&self) -> [(&'static str, u64); 5] {
        [
            ("funcs", self.funcs),
            ("accesses", self.accesses),
            ("proven_interval", self.proven_interval),
            ("proven_subsumed", self.proven_subsumed),
            ("elided", self.elided),
        ]
    }

    /// Accumulates another module's counters into this one.
    pub fn merge(&mut self, other: &RangeStats) {
        self.funcs += other.funcs;
        self.accesses += other.accesses;
        self.proven_interval += other.proven_interval;
        self.proven_subsumed += other.proven_subsumed;
        self.elided += other.elided;
    }
}

/// The in-bounds verdict for one memory-access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proof {
    /// Not provable by this analysis (stays on the checked opcode).
    Unproven,
    /// Proven by the interval fact: `hi + offset + width <= min_mem`.
    Interval,
    /// Proven by an earlier dominating access to the same address value.
    Subsumed,
}

impl Proof {
    pub(crate) fn is_proven(self) -> bool {
        !matches!(self, Proof::Unproven)
    }
}

/// Bytes read/written by a load of this kind.
pub(crate) fn load_width(kind: LoadKind) -> u64 {
    match kind {
        LoadKind::I32L8S | LoadKind::I32L8U | LoadKind::I64L8S | LoadKind::I64L8U => 1,
        LoadKind::I32L16S | LoadKind::I32L16U | LoadKind::I64L16S | LoadKind::I64L16U => 2,
        LoadKind::I32 | LoadKind::F32 | LoadKind::I64L32S | LoadKind::I64L32U => 4,
        LoadKind::I64 | LoadKind::F64 => 8,
    }
}

/// Bytes written by a store of this kind.
pub(crate) fn store_width(kind: StoreKind) -> u64 {
    match kind {
        StoreKind::I32S8 | StoreKind::I64S8 => 1,
        StoreKind::I32S16 | StoreKind::I64S16 => 2,
        StoreKind::I32 | StoreKind::F32 | StoreKind::I64S32 => 4,
        StoreKind::I64 | StoreKind::F64 => 8,
    }
}

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

const U32M: u64 = u32::MAX as u64;

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

fn iv_add(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    let ((al, ah), (bl, bh)) = (a?, b?);
    (ah + bh <= U32M).then_some((al + bl, ah + bh))
}

fn iv_mul_k(a: Option<(u64, u64)>, k: u32) -> Option<(u64, u64)> {
    let (al, ah) = a?;
    let hi = ah.checked_mul(u64::from(k)).filter(|&x| x <= U32M)?;
    Some((al * u64::from(k), hi))
}

/// Interval transfer for the fusable binary operators, on the u32
/// interpretation. Returns `None` whenever the result could wrap or the
/// operator is not one the address chains use.
fn iv_bin(op: BinOpKind, a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    use BinOpKind as B;
    match op {
        // `x & mask`: bounded by either operand's high end, even when the
        // other is unknown (u32 values are non-negative).
        B::I32And => {
            let hi = match (a, b) {
                (Some((_, ah)), Some((_, bh))) => ah.min(bh),
                (Some((_, ah)), None) => ah,
                (None, Some((_, bh))) => bh,
                (None, None) => return None,
            };
            Some((0, hi))
        }
        // `x % d` with a nonzero divisor lower bound.
        B::I32RemU => {
            let (bl, bh) = b?;
            (bl > 0).then(|| (0, bh - 1))
        }
        B::I32Add => iv_add(a, b),
        B::I32Sub => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            (al >= bh).then(|| (al - bh, ah - bl))
        }
        B::I32Mul => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            let hi = ah.checked_mul(bh).filter(|&x| x <= U32M)?;
            Some((al * bl, hi))
        }
        B::I32DivU => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            (bl > 0).then(|| (al / bh, ah / bl))
        }
        // Shifts only by a constant amount below 32 (the runtime masks
        // the amount, so a non-constant shift could alias any amount).
        B::I32ShrU => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            (bl == bh && bl < 32).then(|| (al >> bl, ah >> bl))
        }
        B::I32Shl => {
            let ((al, ah), (bl, bh)) = (a?, b?);
            if bl != bh || bl >= 32 {
                return None;
            }
            let hi = ah.checked_shl(bl as u32).filter(|&x| x <= U32M)?;
            Some((al << bl, hi))
        }
        _ => None,
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

    /// Judges one access and (when it is checked, or proven) widens the
    /// coverage for later accesses in the region. `checked` is false for
    /// the check-free opcode forms, whose coverage contribution is only
    /// valid when their own proof holds.
    fn access(
        &mut self,
        vals: &Vals,
        vn: u32,
        offset: u32,
        width: u64,
        min_mem: u64,
        checked: bool,
    ) -> Proof {
        let end = u64::from(offset) + width;
        let proof = if vals.interval(vn).is_some_and(|(_, hi)| hi + end <= min_mem) {
            Proof::Interval
        } else if self.map.get(&vn).is_some_and(|&c| end <= c) {
            Proof::Subsumed
        } else {
            Proof::Unproven
        };
        if checked || proof.is_proven() {
            let e = self.map.entry(vn).or_insert(0);
            if end > *e {
                *e = end;
            }
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
            | RegOp::CmpBrK { target, .. }
            | RegOp::CmpBrLtSZ { target, .. }
            | RegOp::CmpBrLtSNZ { target, .. } => mark(*target),
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
///
/// The walk is deterministic: running it over a body whose proven
/// accesses were rewritten to check-free forms reproduces the same
/// verdicts, which is what lets the verifier re-check every elision.
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
            ($vn:expr, $off:expr, $w:expr, $checked:expr) => {{
                proofs[pc] = Some(covered.access(&vals, $vn, $off, $w, min_mem, $checked));
            }};
        }
        match &f.code[pc] {
            RegOp::Unreachable
            | RegOp::Jump { .. }
            | RegOp::BrMoves { .. }
            | RegOp::BrTable { .. }
            | RegOp::Return { .. } => live = false,
            // Conditional exits keep the fall-through facts.
            RegOp::BrIf { .. }
            | RegOp::BrIfMoves { .. }
            | RegOp::CmpBr { .. }
            | RegOp::CmpBrK { .. }
            | RegOp::CmpBrLtSZ { .. }
            | RegOp::CmpBrLtSNZ { .. } => {}

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
            RegOp::AddI32 { a, b, dst } => {
                let v = vals.bin(BinOpKind::I32Add, s!(a), s!(b));
                sset!(dst, v);
            }
            RegOp::SubI32 { a, b, dst } => {
                let v = vals.bin(BinOpKind::I32Sub, s!(a), s!(b));
                sset!(dst, v);
            }
            RegOp::MulI32 { a, b, dst } => {
                let v = vals.bin(BinOpKind::I32Mul, s!(a), s!(b));
                sset!(dst, v);
            }
            RegOp::AddI32K { a, k, dst } => {
                let kk = vals.konst(u64::from(*k));
                let v = vals.bin(BinOpKind::I32Add, s!(a), kk);
                sset!(dst, v);
            }
            RegOp::AddF64 { dst, .. }
            | RegOp::SubF64 { dst, .. }
            | RegOp::MulF64 { dst, .. }
            | RegOp::DivF64 { dst, .. } => {
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::ScaleAdd { base, idx, k, dst } => {
                let v = vals.scale_add(s!(base), s!(idx), *k);
                sset!(dst, v);
            }
            RegOp::IdxLAdd {
                base,
                part,
                z,
                k,
                dst,
            } => {
                let v = vals.idx_l_add(s!(base), s!(part), s!(z), *k);
                sset!(dst, v);
            }

            RegOp::Load {
                kind,
                addr,
                offset,
                dst,
            } => {
                access!(s!(addr), *offset, load_width(*kind), true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::Store {
                kind, addr, offset, ..
            } => access!(s!(addr), *offset, store_width(*kind), true),
            RegOp::LoadI32R { addr, offset, dst } => {
                access!(s!(addr), *offset, 4, true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::LoadF64R { addr, offset, dst } => {
                access!(s!(addr), *offset, 8, true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::StoreI32R { addr, offset, .. } => access!(s!(addr), *offset, 4, true),
            RegOp::StoreF64R { addr, offset, .. } => access!(s!(addr), *offset, 8, true),
            RegOp::LoadI32N { addr, offset, dst } => {
                access!(s!(addr), *offset, 4, false);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::LoadF64N { addr, offset, dst } => {
                access!(s!(addr), *offset, 8, false);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::StoreI32N { addr, offset, .. } => access!(s!(addr), *offset, 4, false),
            RegOp::StoreF64N { addr, offset, .. } => access!(s!(addr), *offset, 8, false),
            RegOp::ScaleAddLoadI32 {
                base,
                idx,
                k,
                offset,
                dst,
            } => {
                let vn = vals.scale_add(s!(base), s!(idx), *k);
                access!(vn, *offset, 4, true);
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
                access!(vn, *offset, 8, true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::ScaleAddLoadI32N {
                base,
                idx,
                k,
                offset,
                dst,
            } => {
                let vn = vals.scale_add(s!(base), s!(idx), *k);
                access!(vn, *offset, 4, false);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::ScaleAddLoadF64N {
                base,
                idx,
                k,
                offset,
                dst,
            } => {
                let vn = vals.scale_add(s!(base), s!(idx), *k);
                access!(vn, *offset, 8, false);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::ScaleAddLoad {
                base,
                idx,
                k,
                kind,
                offset,
                dst,
            } => {
                let vn = vals.scale_add(s!(base), s!(idx), *k);
                access!(vn, *offset, load_width(*kind), true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::IdxLAddLoadI32 {
                base,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let vn = vals.idx_l_add(s!(base), s!(part), s!(z), *k);
                access!(vn, *offset, 4, true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::IdxLAddLoadF64 {
                base,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let vn = vals.idx_l_add(s!(base), s!(part), s!(z), *k);
                access!(vn, *offset, 8, true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::IdxLAddLoadI32N {
                base,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let vn = vals.idx_l_add(s!(base), s!(part), s!(z), *k);
                access!(vn, *offset, 4, false);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::IdxLAddLoadF64N {
                base,
                part,
                z,
                k,
                offset,
                dst,
            } => {
                let vn = vals.idx_l_add(s!(base), s!(part), s!(z), *k);
                access!(vn, *offset, 8, false);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::IdxLAddLoad {
                base,
                part,
                z,
                k,
                kind,
                offset,
                dst,
            } => {
                let vn = vals.idx_l_add(s!(base), s!(part), s!(z), *k);
                access!(vn, *offset, load_width(*kind), true);
                let v = vals.fresh();
                sset!(dst, v);
            }
            RegOp::AddStoreF64 { addr, offset, .. } | RegOp::MulStoreF64 { addr, offset, .. } => {
                access!(s!(addr), *offset, 8, true);
            }
            RegOp::AddStoreF64N { addr, offset, .. } | RegOp::MulStoreF64N { addr, offset, .. } => {
                access!(s!(addr), *offset, 8, false);
            }
            RegOp::BinopStore {
                addr, kind, offset, ..
            } => access!(s!(addr), *offset, store_width(*kind), true),
        }
    }
    proofs
}

/// Rewrites every proven specialized access of a register body to its
/// check-free twin, accumulating [`RangeStats`].
pub(crate) fn elide_reg(f: &mut RegFunc, min_mem: u64, rewrite: bool, stats: &mut RangeStats) {
    let proofs = reg_proofs(f, min_mem);
    stats.funcs += 1;
    for (pc, op) in f.code.iter_mut().enumerate() {
        let Some(proof) = proofs[pc] else { continue };
        stats.accesses += 1;
        match proof {
            Proof::Unproven => continue,
            Proof::Interval => stats.proven_interval += 1,
            Proof::Subsumed => stats.proven_subsumed += 1,
        }
        if !rewrite {
            continue;
        }
        let nc = match *op {
            RegOp::LoadI32R { addr, offset, dst } => RegOp::LoadI32N { addr, offset, dst },
            RegOp::LoadF64R { addr, offset, dst } => RegOp::LoadF64N { addr, offset, dst },
            RegOp::StoreI32R { addr, val, offset } => RegOp::StoreI32N { addr, val, offset },
            RegOp::StoreF64R { addr, val, offset } => RegOp::StoreF64N { addr, val, offset },
            RegOp::ScaleAddLoadI32 {
                base,
                idx,
                k,
                offset,
                dst,
            } => RegOp::ScaleAddLoadI32N {
                base,
                idx,
                k,
                offset,
                dst,
            },
            RegOp::ScaleAddLoadF64 {
                base,
                idx,
                k,
                offset,
                dst,
            } => RegOp::ScaleAddLoadF64N {
                base,
                idx,
                k,
                offset,
                dst,
            },
            RegOp::IdxLAddLoadI32 {
                base,
                part,
                z,
                k,
                offset,
                dst,
            } => RegOp::IdxLAddLoadI32N {
                base,
                part,
                z,
                k,
                offset,
                dst,
            },
            RegOp::IdxLAddLoadF64 {
                base,
                part,
                z,
                k,
                offset,
                dst,
            } => RegOp::IdxLAddLoadF64N {
                base,
                part,
                z,
                k,
                offset,
                dst,
            },
            RegOp::AddStoreF64 { a, b, addr, offset } => RegOp::AddStoreF64N { a, b, addr, offset },
            RegOp::MulStoreF64 { a, b, addr, offset } => RegOp::MulStoreF64N { a, b, addr, offset },
            _ => continue,
        };
        *op = nc;
        stats.elided += 1;
    }
}
