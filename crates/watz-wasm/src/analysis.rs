//! Intra-function value-range analysis over the register form: how many
//! memory accesses of a module are provably in bounds. It is a counter
//! and nothing more. Nothing at launch runs it, and no access loses its
//! bounds check over it: the crate forbids `unsafe`, so a check-free
//! access would still pay the slice bounds check, and only the trap on a
//! miss would go. It runs on demand, through
//! [`Instance::range_stats`](crate::exec::Instance::range_stats), and
//! exists only because `benchmark/` reads its counts (`proven()`, and
//! [`RangeStats::elided`], which reads 0). It goes with the next
//! benchmark PR.
//!
//! # What the analysis computes
//!
//! A forward walk over a body's straight-line regions tracks, for every
//! frame slot, a **value number**: a hash-consed symbolic name such that
//! two operands with the same value number are guaranteed to hold the same
//! bits at runtime. On top of the value numbers the walk keeps two facts:
//!
//! - an **interval** `[lo, hi]` on the u32 interpretation of a value,
//!   assigned only when it provably cannot wrap (constants, and the
//!   closed arithmetic the address chains use: non-overflowing add/mul,
//!   `and`-masking, unsigned div/rem/shift by constants, and the fused
//!   `ScaleAdd`/`IdxLAdd` address tails);
//! - the **coverage** of a value number used as an address: the largest
//!   `offset + width` end point already accessed (and so checked) at that
//!   address in the current straight-line region.
//!
//! A memory access is **proven in bounds** when either
//!
//! 1. *(interval)* `hi + offset + width <= min_memory_bytes`, the
//!    memory's minimum size — linear memory only ever grows, so the
//!    minimum is a lower bound on `mem.len()` for the whole run; or
//! 2. *(subsumption)* an earlier access in the same straight-line region
//!    already checked the same address value number up to at least
//!    `offset + width`. The earlier access dominates: region
//!    boundaries are exactly the jump targets, so the only way into the
//!    middle of a region is to fall through its start, and the earlier
//!    access either trapped (the later one never runs) or established
//!    the bound. Calls and `memory.grow` never invalidate coverage —
//!    nothing can shrink a memory — and conditional branches only leave
//!    a region, never enter it.
//!
//! # The walk is demand-driven
//!
//! Every fact dies at a region boundary, and only an access site ever asks
//! for one. So [`reg_proofs`] first skims a region for its last access
//! site and value-numbers the region only up to there: a region — and so
//! a body — without an access costs one classification per op. Within a
//! walked region only what can reach an address operand is interned
//! (constants, and i32 operators on i32 operands); everything else defines
//! an unknown, which costs one store. All state lives in a
//! [`RangeScratch`] the caller pools across bodies; entering a region bumps
//! a counter that tags slots and interner entries, so nothing is cleared
//! per region. The interner is an open-addressed table under a fixed
//! in-crate hash with a bounded probe sequence: its keys come from guest
//! code, and a key set crafted to collide degrades to unknowns (fewer
//! proofs), not to a quadratic load.

use crate::flat::{BinOpKind, CompiledModule, LoadKind, StoreKind};
use crate::reg::{RegFunc, RegOp};

#[cfg(test)]
mod oracle;

/// Counters of the value-range analysis, summed over a module's
/// register-form bodies. Exposed via
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
    /// Always 0: no access is rewritten. Exists only because `benchmark/`
    /// reads it; goes with the next benchmark PR.
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
    pub fn counts(&self) -> [(&'static str, u64); 4] {
        [
            ("funcs", self.funcs),
            ("accesses", self.accesses),
            ("proven_interval", self.proven_interval),
            ("proven_subsumed", self.proven_subsumed),
        ]
    }

    /// Accumulates another module's counters into this one.
    pub fn merge(&mut self, other: &RangeStats) {
        self.funcs += other.funcs;
        self.accesses += other.accesses;
        self.proven_interval += other.proven_interval;
        self.proven_subsumed += other.proven_subsumed;
    }
}

/// The in-bounds verdict for one memory-access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proof {
    /// Not provable by this analysis.
    Unproven,
    /// Proven by the interval fact: `hi + offset + width <= min_mem`.
    Interval,
    /// Proven by an earlier dominating access to the same address value.
    Subsumed,
}

/// Bytes read/written by a load of this kind.
fn load_width(kind: LoadKind) -> u64 {
    match kind {
        LoadKind::I32L8S | LoadKind::I32L8U | LoadKind::I64L8S | LoadKind::I64L8U => 1,
        LoadKind::I32L16S | LoadKind::I32L16U | LoadKind::I64L16S | LoadKind::I64L16U => 2,
        LoadKind::I32 | LoadKind::F32 | LoadKind::I64L32S | LoadKind::I64L32U => 4,
        LoadKind::I64 | LoadKind::F64 => 8,
    }
}

/// Bytes written by a store of this kind.
fn store_width(kind: StoreKind) -> u64 {
    match kind {
        StoreKind::I32S8 | StoreKind::I64S8 => 1,
        StoreKind::I32S16 | StoreKind::I64S16 => 2,
        StoreKind::I32 | StoreKind::F32 | StoreKind::I64S32 => 4,
        StoreKind::I64 | StoreKind::F64 => 8,
    }
}

const U32M: u64 = u32::MAX as u64;

/// A hash-consing key: two values with the same key hold the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VnKey {
    /// A constant, keyed on the raw slot encoding.
    Const(u64),
    /// `op(a, b)` for an i32 operator on i32 operands (deterministic in
    /// its operand bits, so operand-VN equality implies result equality).
    Bin(BinOpKind, u32, u32),
    /// `base + idx*k` on i32 (the ScaleAdd address tail).
    ScaleAdd { k: u32, base: u32, idx: u32 },
    /// `base + (part + z)*k` on i32 (the IdxLAdd address tail, `part`
    /// the row `y*n`).
    IdxLAdd {
        k: u32,
        base: u32,
        part: u32,
        z: u32,
    },
}

impl VnKey {
    /// A fixed 64-bit hash of the key: folded 64x64→128 multiplies over
    /// its words. The same key hashes the same in every process, so a
    /// verdict never depends on anything but the code.
    fn hash(&self) -> u64 {
        fn fold(a: u64, b: u64) -> u64 {
            let m = u128::from(a ^ 0x9e37_79b9_7f4a_7c15) * u128::from(b ^ 0xd1b5_4a32_d192_ed03);
            (m as u64) ^ ((m >> 64) as u64)
        }
        let pair = |hi: u32, lo: u32| u64::from(hi) << 32 | u64::from(lo);
        match *self {
            VnKey::Const(bits) => fold(1, bits),
            VnKey::Bin(op, a, b) => fold(pair(op as u32, 2), pair(a, b)),
            VnKey::ScaleAdd { k, base, idx } => fold(pair(k, 3), pair(base, idx)),
            VnKey::IdxLAdd { k, base, part, z } => {
                fold(fold(pair(k, 4), pair(base, part)), u64::from(z))
            }
        }
    }
}

/// What is known about one value number.
#[derive(Clone, Copy)]
struct Val {
    /// The `[lo, hi]` interval on the u32 interpretation, when one is known.
    iv: Option<(u64, u64)>,
    /// Largest `offset + width` already checked with this value as the
    /// address, in the current region (0: none).
    covered: u64,
}

/// One bucket of the interner; it holds a key of region `region` only.
#[derive(Clone, Copy)]
struct Entry {
    key: VnKey,
    vn: u32,
    region: u32,
}

const VACANT: Entry = Entry {
    key: VnKey::Const(0),
    vn: 0,
    region: 0,
};

/// Longest probe sequence of the interner. At most half the buckets are
/// full, so honest keys stay far below it; a key that exhausts it is given
/// an unknown value number, which is always sound.
const MAX_PROBES: usize = 64;

/// The pooled working state of [`reg_proofs`]: one per compile (or per
/// verification), reused for every body and every region.
#[derive(Default)]
struct RangeScratch {
    /// The verdicts of the last body walked: `(pc, proof)` per access site
    /// a fall-through reaches, in pc order.
    sites: Vec<(u32, Proof)>,
    /// Number of the region being walked, from 1. A slot or interner entry
    /// tagged with another number is stale, so entering a region resets
    /// both in O(1). (A region holds an access, an access is at least two
    /// bytes of module, and a module is below 4 GiB: the counter cannot
    /// wrap within the one module a scratch serves.)
    region: u32,
    /// Frame size of the body being walked; slots past it are never
    /// tracked.
    frame: usize,
    /// `(region, value number)` per frame slot.
    slots: Vec<(u32, u32)>,
    /// Facts per value number of the current region.
    vals: Vec<Val>,
    /// The interner: open addressing, linear probing, over the first
    /// `mask + 1` entries.
    table: Vec<Entry>,
    mask: usize,
    /// Keys the op being walked has interned so far (see
    /// [`RangeScratch::enter_region`]).
    keys: usize,
}

impl RangeScratch {
    /// Starts a region of `ops` ops to walk. An op interns at most two
    /// keys ([`reg_proofs`] asserts this in debug builds), so four buckets
    /// per op keep the table at most half full.
    fn enter_region(&mut self, ops: usize) {
        self.region += 1;
        self.vals.clear();
        let buckets = (4 * ops).next_power_of_two();
        if self.table.len() < buckets {
            self.table.resize(buckets, VACANT);
        }
        self.mask = buckets - 1;
    }

    fn push(&mut self, iv: Option<(u64, u64)>) -> u32 {
        self.vals.push(Val { iv, covered: 0 });
        (self.vals.len() - 1) as u32
    }

    /// A brand-new value number with no facts (an unknown value).
    fn fresh(&mut self) -> u32 {
        self.push(None)
    }

    /// The value number held by a frame slot. A slot nothing defined in
    /// this region becomes an unknown on its first read; a slot outside
    /// the frame is a new unknown on *every* read, so two such operands
    /// never alias ([`crate::verify`] rejects the body anyway).
    fn read(&mut self, slot: u16) -> u32 {
        let i = usize::from(slot);
        if i >= self.frame {
            return self.fresh();
        }
        if self.slots[i].0 != self.region {
            self.slots[i] = (self.region, self.fresh());
        }
        self.slots[i].1
    }

    fn write(&mut self, slot: u16, vn: u32) {
        let i = usize::from(slot);
        if i < self.frame {
            self.slots[i] = (self.region, vn);
        }
    }

    /// Defines a slot as an unknown: stale, so the next read names it.
    fn kill(&mut self, slot: u16) {
        let i = usize::from(slot);
        if i < self.frame {
            self.slots[i].0 = 0;
        }
    }

    /// Interns a key; on first sight the interval is computed by `iv`.
    fn keyed(&mut self, key: VnKey, iv: impl FnOnce(&[Val]) -> Option<(u64, u64)>) -> u32 {
        self.keys += 1;
        let mut i = key.hash() as usize & self.mask;
        for _ in 0..MAX_PROBES {
            let e = self.table[i];
            if e.region != self.region {
                let vn = self.push(iv(&self.vals));
                self.table[i] = Entry {
                    key,
                    vn,
                    region: self.region,
                };
                return vn;
            }
            if e.key == key {
                return e.vn;
            }
            i = (i + 1) & self.mask;
        }
        self.fresh()
    }

    fn konst(&mut self, bits: u64) -> u32 {
        self.keyed(VnKey::Const(bits), |_| {
            let v = u64::from(bits as u32);
            Some((v, v))
        })
    }

    fn bin(&mut self, op: BinOpKind, a: u32, b: u32) -> u32 {
        self.keyed(VnKey::Bin(op, a, b), |vals| {
            iv_bin(op, vals[a as usize].iv, vals[b as usize].iv)
        })
    }

    /// `base + idx*k` (i32 wrapping at runtime; the interval is assigned
    /// only when the whole chain provably does not wrap).
    fn scale_add(&mut self, base: u32, idx: u32, k: u32) -> u32 {
        self.keyed(VnKey::ScaleAdd { k, base, idx }, |vals| {
            let t = iv_mul_k(vals[idx as usize].iv, k)?;
            iv_add(vals[base as usize].iv, Some(t))
        })
    }

    /// `base + (part + z)*k` (i32 wrapping at runtime).
    fn idx_l_add(&mut self, base: u32, part: u32, z: u32, k: u32) -> u32 {
        self.keyed(VnKey::IdxLAdd { k, base, part, z }, |vals| {
            let s = iv_add(vals[part as usize].iv, vals[z as usize].iv)?;
            let t = iv_mul_k(Some(s), k)?;
            iv_add(vals[base as usize].iv, Some(t))
        })
    }

    /// `frame[dst] = op(frame[a], b)`: interned for an i32 operator, an
    /// unknown for every other one (no address derives from those).
    fn def_bin(&mut self, op: BinOpKind, a: u16, b: impl FnOnce(&mut Self) -> u32, dst: u16) {
        if op.is_i32() {
            let (a, b) = (self.read(a), b(self));
            let v = self.bin(op, a, b);
            self.write(dst, v);
        } else {
            self.kill(dst);
        }
    }

    /// The value number of an access site's address operand.
    fn address(&mut self, addr: Addr) -> u32 {
        match addr {
            Addr::Slot(s) => self.read(s),
            Addr::ScaleAdd { base, idx, k } => {
                let (base, idx) = (self.read(base), self.read(idx));
                self.scale_add(base, idx, k)
            }
            // The value numbers the unfused pair gave: the row `y*n`,
            // then the tail over it.
            Addr::IdxLAdd { base, y, n, z, k } => {
                let (y, n) = (self.read(y), self.read(n));
                let part = self.bin(BinOpKind::I32Mul, y, n);
                let (base, z) = (self.read(base), self.read(z));
                self.idx_l_add(base, part, z, k)
            }
        }
    }

    /// Judges one access and widens the coverage of its address for later
    /// accesses in the region: every access is checked, so past it the
    /// bound holds.
    fn judge(&mut self, acc: Access, min_mem: u64) -> Proof {
        let vn = self.address(acc.addr);
        let end = u64::from(acc.offset) + acc.width;
        let val = &mut self.vals[vn as usize];
        let proof = if val.iv.is_some_and(|(_, hi)| hi + end <= min_mem) {
            Proof::Interval
        } else if end <= val.covered {
            Proof::Subsumed
        } else {
            Proof::Unproven
        };
        val.covered = val.covered.max(end);
        proof
    }

    /// The effect of one op on the slots' value numbers.
    fn define(&mut self, op: &RegOp) {
        use RegOp as R;
        match op {
            // Unconditional exits end a region, so the walk never goes past
            // one; conditional exits keep the fall-through facts; stores and
            // the rest of this arm define no slot.
            R::Unreachable
            | R::Jump { .. }
            | R::BrMoves { .. }
            | R::BrTable { .. }
            | R::Return { .. }
            | R::BrIf { .. }
            | R::BrIfMoves { .. }
            | R::CmpBr { .. }
            | R::GlobalSet { .. }
            | R::MemoryCopy { .. }
            | R::MemoryFill { .. }
            | R::Store { .. }
            | R::StoreI32R { .. }
            | R::StoreF64R { .. }
            | R::AddStoreF64 { .. } => {}

            // Calls clobber every slot from the callee's frame base up
            // (the callee reuses that region); the coverage survives.
            R::CallLocal { base, .. }
            | R::CallImport { base, .. }
            | R::CallIndirect { base, .. } => {
                for s in self.slots[..self.frame].iter_mut().skip(usize::from(*base)) {
                    s.0 = 0;
                }
            }

            R::Select { dst, .. }
            | R::GlobalGet { dst, .. }
            | R::MemorySize { dst }
            | R::MemoryGrow { dst, .. }
            | R::Unop { dst, .. }
            | R::AddF64 { dst, .. }
            | R::SubF64 { dst, .. }
            | R::MulF64 { dst, .. }
            | R::Load { dst, .. }
            | R::ScaleAddLoadI32 { dst, .. }
            | R::ScaleAddLoadF64 { dst, .. }
            | R::IdxLAddLoadF64 { dst, .. } => self.kill(*dst),

            R::Move { src, dst } => {
                let v = self.read(*src);
                self.write(*dst, v);
            }
            R::Const { bits, dst } => {
                let v = self.konst(*bits);
                self.write(*dst, v);
            }
            R::Binop { op, a, b, dst } => self.def_bin(*op, *a, |s| s.read(*b), *dst),
            R::BinopK { op, a, k, dst } => self.def_bin(*op, *a, |s| s.konst(*k), *dst),
            R::AddI32K { a, k, dst } => {
                self.def_bin(BinOpKind::I32Add, *a, |s| s.konst(u64::from(*k)), *dst);
            }
            // A conditional exit that steps `i` first: the fall-through
            // keeps the step.
            R::IncBrLtS { i, k, .. } => {
                self.def_bin(BinOpKind::I32Add, *i, |s| s.konst(u64::from(*k)), *i);
            }
            R::ScaleAdd { base, idx, k, dst } => {
                let v = self.address(Addr::ScaleAdd {
                    base: *base,
                    idx: *idx,
                    k: *k,
                });
                self.write(*dst, v);
            }
            R::IdxLAdd {
                base,
                y,
                n,
                z,
                k,
                dst,
            } => {
                let v = self.address(Addr::IdxLAdd {
                    base: *base,
                    y: *y,
                    n: *n,
                    z: *z,
                    k: *k,
                });
                self.write(*dst, v);
            }
            // `y*n` then `+ z`, as the unfused pair interned them.
            R::MulAddI32 { y, n, z, dst } => {
                let (y, n) = (self.read(*y), self.read(*n));
                let row = self.bin(BinOpKind::I32Mul, y, n);
                let z = self.read(*z);
                let v = self.bin(BinOpKind::I32Add, row, z);
                self.write(*dst, v);
            }
        }
    }
}

/// The address operand of an access site.
#[derive(Clone, Copy)]
enum Addr {
    /// The value of a frame slot.
    Slot(u16),
    /// `frame[base] + frame[idx]*k`, computed by the access itself.
    ScaleAdd { base: u16, idx: u16, k: u32 },
    /// `frame[base] + (frame[y]*frame[n] + frame[z])*k`, likewise.
    IdxLAdd {
        base: u16,
        y: u16,
        n: u16,
        z: u16,
        k: u32,
    },
}

/// One memory access: `width` bytes at `addr + offset`.
#[derive(Clone, Copy)]
struct Access {
    addr: Addr,
    offset: u32,
    width: u64,
}

/// The memory access an op performs, if any.
fn access_of(op: &RegOp) -> Option<Access> {
    use RegOp as R;
    let (addr, offset, width) = match *op {
        R::Load {
            kind, addr, offset, ..
        } => (Addr::Slot(addr), offset, load_width(kind)),
        R::Store {
            kind, addr, offset, ..
        } => (Addr::Slot(addr), offset, store_width(kind)),
        R::StoreI32R { addr, offset, .. } => (Addr::Slot(addr), offset, 4),
        R::StoreF64R { addr, offset, .. } | R::AddStoreF64 { addr, offset, .. } => {
            (Addr::Slot(addr), offset, 8)
        }
        R::ScaleAddLoadI32 {
            base,
            idx,
            k,
            offset,
            ..
        } => (Addr::ScaleAdd { base, idx, k }, offset, 4),
        R::ScaleAddLoadF64 {
            base,
            idx,
            k,
            offset,
            ..
        } => (Addr::ScaleAdd { base, idx, k }, offset, 8),
        R::IdxLAddLoadF64 {
            base,
            y,
            n,
            z,
            k,
            offset,
            ..
        } => (Addr::IdxLAdd { base, y, n, z, k }, offset, 8),
        _ => return None,
    };
    Some(Access {
        addr,
        offset,
        width,
    })
}

/// Marks every jump target of a register body in `is_target` (one flag
/// per pc).
fn reg_targets(code: &[RegOp], is_target: &mut Vec<bool>) {
    is_target.clear();
    is_target.resize(code.len(), false);
    let mut mark = |x: u32| {
        if let Some(b) = is_target.get_mut(x as usize) {
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
}

/// Runs the range analysis over one register body whose jump targets are
/// flagged in `is_target` (one flag per pc at least), returning the
/// in-bounds verdict of every access site a fall-through reaches, as
/// `(pc, proof)` in pc order. Every frame slot is an unknown at each
/// region start.
fn reg_proofs<'s>(
    f: &RegFunc,
    min_mem: u64,
    is_target: &[bool],
    scratch: &'s mut RangeScratch,
) -> &'s [(u32, Proof)] {
    let code = &f.code;
    scratch.sites.clear();
    scratch.frame = f.frame_size as usize;
    if scratch.slots.len() < scratch.frame {
        scratch.slots.resize(scratch.frame, (0, 0));
    }
    let mut pc = 0;
    while pc < code.len() {
        // One region: from `pc` to the next jump target, cut short by its
        // first unconditional exit (what follows that is unreachable by
        // fall-through, and judged by nobody).
        let start = pc;
        let mut last_access = None;
        loop {
            let op = &code[pc];
            if access_of(op).is_some() {
                last_access = Some(pc);
            }
            pc += 1;
            let exits = matches!(
                op,
                RegOp::Unreachable
                    | RegOp::Jump { .. }
                    | RegOp::BrMoves { .. }
                    | RegOp::BrTable { .. }
                    | RegOp::Return { .. }
            );
            if exits {
                while pc < code.len() && !is_target[pc] {
                    pc += 1;
                }
            }
            if exits || pc >= code.len() || is_target[pc] {
                break;
            }
        }
        let Some(last) = last_access else { continue };
        scratch.enter_region(last - start + 1);
        for at in start..=last {
            let op = &code[at];
            scratch.keys = 0;
            if let Some(acc) = access_of(op) {
                let proof = scratch.judge(acc, min_mem);
                scratch.sites.push((at as u32, proof));
            }
            scratch.define(op);
            debug_assert!(
                scratch.keys <= 2,
                "{op:?} interned {} keys: the interner is sized for two per op",
                scratch.keys
            );
        }
    }
    &scratch.sites
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

/// Runs the analysis over every register body of `cm` and counts its
/// verdicts.
pub(crate) fn range_stats(cm: &CompiledModule) -> RangeStats {
    let mut stats = RangeStats::default();
    let mut scratch = RangeScratch::default();
    let mut is_target = Vec::new();
    for f in cm.funcs.iter().flatten() {
        stats.funcs += 1;
        reg_targets(&f.code, &mut is_target);
        for &(_, proof) in reg_proofs(f, cm.min_mem, &is_target, &mut scratch) {
            stats.accesses += 1;
            match proof {
                Proof::Unproven => {}
                Proof::Interval => stats.proven_interval += 1,
                Proof::Subsumed => stats.proven_subsumed += 1,
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::flat::CompiledModule;
    use crate::instr::Instr;
    use crate::profile::ProfOp;
    use crate::reg::RegBrEntry;
    use crate::types::ValType;
    use workloads::{genann_guest, polybench, speedtest};

    const MIN_MEM: u64 = 65536;

    fn func(frame_size: u32, code: Vec<RegOp>) -> RegFunc {
        RegFunc {
            n_params: 0,
            n_locals: 0,
            n_results: 0,
            frame_size,
            result_types: Box::default(),
            prof: vec![ProfOp::zero(); code.len()].into(),
            code: code.into(),
        }
    }

    /// The demand-driven verdicts of one body, per pc like the oracle's.
    fn walk(f: &RegFunc, min_mem: u64, scratch: &mut RangeScratch) -> Vec<Option<Proof>> {
        let mut is_target = Vec::new();
        reg_targets(&f.code, &mut is_target);
        let mut dense = vec![None; f.code.len()];
        for &(pc, proof) in reg_proofs(f, min_mem, &is_target, scratch) {
            assert!(dense[pc as usize].is_none(), "pc {pc} judged twice");
            dense[pc as usize] = Some(proof);
        }
        dense
    }

    /// Differences the walk against the oracle on every register body of
    /// a module, compiled fused and unfused.
    fn assert_module_matches_oracle(name: &str, bytes: &[u8], scratch: &mut RangeScratch) {
        let module = crate::load(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        for fuse in [true, false] {
            let fm = CompiledModule::compile_full(&module, fuse).expect("compiles");
            for (i, f) in fm.funcs.iter().enumerate() {
                let Some(f) = f else { continue };
                assert_eq!(
                    walk(f, fm.min_mem, scratch),
                    oracle::reg_proofs(f, fm.min_mem),
                    "{name} func {i} (fuse={fuse})"
                );
            }
        }
    }

    fn stats_of(bytes: &[u8]) -> RangeStats {
        let module = crate::load(bytes).expect("loads");
        range_stats(&CompiledModule::compile_full(&module, true).expect("compiles"))
    }

    /// Fig 4's generator, as `cold_start` sizes it: 100 functions of 1200
    /// unrolled `i64.const; i64.add` pairs, and not one memory access.
    fn large_unrolled() -> Vec<u8> {
        let mut b = ModuleBuilder::new();
        let ty = b.add_type(&[], &[ValType::I64]);
        let mut main = 0;
        for f in 0..100 {
            let mut code = vec![Instr::I64Const(f % 64)];
            for k in 0..1200 {
                code.extend([Instr::I64Const(k), Instr::I64Add]);
            }
            code.push(Instr::End);
            main = b.add_func(ty, &[], code);
        }
        b.export_func("main", main);
        b.add_memory(1, None);
        b.build()
    }

    /// `cold_start`'s loop-heavy module: 16 copies of the PolyBench suite
    /// in one module, every identifier of copy `c`, kernel `k` renamed
    /// `name_c<c>k<k>`. (The benchmark also shuffles each copy by its
    /// seed; bodies are analysed one by one, so the order changes nothing
    /// here.)
    fn large_loopy() -> Vec<u8> {
        const KEEP: [&str; 26] = [
            "int", "long", "float", "double", "void", "if", "else", "while", "for", "return",
            "break", "continue", "extern", "sizeof", "alloc", "sqrt", "fabs", "floor", "ceil",
            "trunc", "__bits2d", "__d2bits", "lb", "sb", "memcopy", "memfill",
        ];
        let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let mut src = String::new();
        for cycle in 0..16 {
            for (k, kernel) in polybench::suite().iter().enumerate() {
                for line in kernel.minic.lines() {
                    let code = line.split("//").next().unwrap_or("");
                    let mut rest = code;
                    while let Some(c) = rest.chars().next() {
                        // A run of word characters is an identifier, a
                        // keyword or a literal (`10`, `1e9`, `0.5`); only
                        // identifiers are renamed.
                        let len = if word(c) {
                            rest.find(|c: char| !(word(c) || c == '.'))
                                .unwrap_or(rest.len())
                        } else {
                            c.len_utf8()
                        };
                        let (tok, tail) = rest.split_at(len);
                        src.push_str(tok);
                        if word(c) && !c.is_ascii_digit() && !KEEP.contains(&tok) {
                            src.push_str(&format!("_c{cycle}k{k}"));
                        }
                        rest = tail;
                    }
                    src.push('\n');
                }
            }
        }
        minic::compile(&src).expect("renamed kernels compile together")
    }

    #[test]
    fn out_of_frame_operands_never_alias() {
        // Both address operands are outside the one-slot frame. Reading
        // them as slot 0's value number made the second access "subsumed"
        // by the first.
        let f = func(
            1,
            vec![
                RegOp::Load {
                    kind: LoadKind::I32,
                    addr: 5,
                    offset: 0,
                    dst: 0,
                },
                RegOp::Load {
                    kind: LoadKind::I32,
                    addr: 7,
                    offset: 0,
                    dst: 0,
                },
                RegOp::Return { src: 0 },
            ],
        );
        let got = walk(&f, MIN_MEM, &mut RangeScratch::default());
        assert_eq!(
            got,
            [Some(Proof::Unproven), Some(Proof::Unproven), None],
            "an out-of-frame operand is an unknown of its own"
        );
        assert_eq!(
            oracle::reg_proofs(&f, MIN_MEM)[1],
            Some(Proof::Subsumed),
            "the old walk aliased them (the reason this test exists)"
        );
        // The same slot read twice in frame still subsumes.
        let f = func(
            8,
            vec![
                RegOp::Load {
                    kind: LoadKind::I32,
                    addr: 5,
                    offset: 4,
                    dst: 0,
                },
                RegOp::Load {
                    kind: LoadKind::I32,
                    addr: 5,
                    offset: 0,
                    dst: 0,
                },
                RegOp::Return { src: 0 },
            ],
        );
        let got = walk(&f, MIN_MEM, &mut RangeScratch::default());
        assert_eq!(got[1], Some(Proof::Subsumed));
    }

    #[test]
    fn corpus_matches_the_oracle_and_the_pinned_counts() {
        let mut scratch = RangeScratch::default();
        let mut suite = RangeStats::default();
        for kernel in polybench::suite() {
            let wasm = minic::compile(kernel.minic).expect("kernel compiles");
            assert_module_matches_oracle(kernel.name, &wasm, &mut scratch);
            suite.merge(&stats_of(&wasm));
        }
        // `elided` was 70: every proven access was rewritten to a
        // check-free opcode before those were deleted. It reads 0 now.
        // `proven` was 70 before code motion: a store through an address
        // moved in front of its loop reads a cache slot, an unknown at the
        // region's start, where the fused load of the same address before
        // it is value-numbered from its operands, so the store is no
        // longer subsumed (`C[i][j] = C[i][j] + …` inner loops).
        assert_eq!(
            (suite.accesses, suite.proven(), suite.elided),
            (461, 46, 0),
            "PolyBench suite: {:?}",
            suite.counts()
        );

        // The rest of the `cold_start` module set.
        let options = minic::Options {
            min_pages: 256,
            max_pages: None,
        };
        let mut set = suite;
        for (name, wasm) in [
            (
                "minisql",
                minic::compile_with_options(speedtest::MINISQL_GUEST, &options).expect("compiles"),
            ),
            (
                "genann",
                minic::compile(&genann_guest::source()).expect("compiles"),
            ),
            ("large_unrolled", large_unrolled()),
            ("large_loopy", large_loopy()),
        ] {
            assert_module_matches_oracle(name, &wasm, &mut scratch);
            set.merge(&stats_of(&wasm));
        }
        // 1199 before code motion, for the reason the suite's count moved
        // (16 PolyBench copies in `large_loopy`, and minisql). 1190 before
        // global hoisting: a loop's cached table base is loop-invariant,
        // so nine more accesses through it subsume. `elided` was 1199
        // before the check-free opcodes were deleted.
        assert_eq!(
            (set.proven(), set.elided),
            (791, 0),
            "cold_start module set: {:?}",
            set.counts()
        );
    }

    /// xorshift64*, seeded per body.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }
    }

    /// A random register body over a typed frame: slots 0..6 hold i32
    /// values (every address operand comes from there), 6..9 i64, 9..12
    /// f64, and slot 12 takes the i32 result of wide comparisons, which
    /// nothing reads. Branch targets are arbitrary pcs, so regions join and
    /// some code is unreachable by fall-through.
    #[allow(clippy::too_many_lines)]
    fn random_body(seed: u64) -> RegFunc {
        use BinOpKind as B;
        const I32_OPS: [B; 12] = [
            B::I32Add,
            B::I32Sub,
            B::I32Mul,
            B::I32And,
            B::I32Or,
            B::I32DivU,
            B::I32RemU,
            B::I32Shl,
            B::I32ShrU,
            B::I32Eq,
            B::I32LtU,
            B::I32GeS,
        ];
        const CONSTS: [u64; 8] = [0, 1, 4, 8, 64, 4096, 65528, 70_000];
        const OFFSETS: [u32; 6] = [0, 4, 8, 16, 65532, 70_000];
        const LOADS: [LoadKind; 4] = [
            LoadKind::I32,
            LoadKind::I32L8U,
            LoadKind::I64,
            LoadKind::F64,
        ];
        let mut r = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let n = 20 + r.below(40);
        let mut code = Vec::with_capacity(n + 1);
        for _ in 0..n {
            let (a, b, dst) = (r.below(6) as u16, r.below(6) as u16, r.below(6) as u16);
            let (la, lb, ld) = (
                6 + r.below(3) as u16,
                6 + r.below(3) as u16,
                6 + r.below(3) as u16,
            );
            let (fa, fb, fd) = (
                9 + r.below(3) as u16,
                9 + r.below(3) as u16,
                9 + r.below(3) as u16,
            );
            let z = r.below(6) as u16;
            let k = r.pick(&[1u32, 4, 8, 1000]);
            let offset = r.pick(&OFFSETS);
            let target = r.below(n + 1) as u32;
            let op = r.pick(&I32_OPS);
            code.push(match r.below(40) {
                0 | 1 => RegOp::Const {
                    bits: r.pick(&CONSTS),
                    dst,
                },
                2 => RegOp::Const {
                    bits: r.pick(&CONSTS) << 32,
                    dst: ld,
                },
                3 | 4 => RegOp::Binop { op, a, b, dst },
                5 => RegOp::BinopK {
                    op,
                    a,
                    k: r.pick(&CONSTS),
                    dst,
                },
                6 => RegOp::MulAddI32 { y: a, n: b, z, dst },
                7 => RegOp::Binop {
                    op: B::I32Sub,
                    a,
                    b,
                    dst,
                },
                8 => RegOp::Binop {
                    op: B::I32Mul,
                    a,
                    b,
                    dst,
                },
                9 => RegOp::AddI32K { a, k, dst },
                10 => RegOp::Binop {
                    op: r.pick(&[B::I64Add, B::I64Mul, B::I64And]),
                    a: la,
                    b: lb,
                    dst: ld,
                },
                11 => RegOp::BinopK {
                    op: B::I64Add,
                    a: la,
                    k: r.pick(&CONSTS),
                    dst: ld,
                },
                12 => RegOp::Binop {
                    op: r.pick(&[B::I64LtS, B::F64Lt]),
                    a: if r.below(2) == 0 { la } else { fa },
                    b: lb,
                    dst: 12,
                },
                13 => RegOp::AddF64 {
                    a: fa,
                    b: fb,
                    dst: fd,
                },
                14 => RegOp::Binop {
                    op: B::F64Max,
                    a: fa,
                    b: fb,
                    dst: fd,
                },
                15 => RegOp::Move { src: a, dst },
                16 => RegOp::Move { src: la, dst: ld },
                17 | 18 => RegOp::ScaleAdd {
                    base: a,
                    idx: b,
                    k,
                    dst,
                },
                19 => RegOp::IdxLAdd {
                    base: a,
                    y: b,
                    n: z,
                    z: dst,
                    k,
                    dst,
                },
                20 => RegOp::Load {
                    kind: r.pick(&LOADS),
                    addr: a,
                    offset,
                    dst: ld,
                },
                21..=23 => RegOp::Load {
                    kind: LoadKind::I32,
                    addr: a,
                    offset,
                    dst,
                },
                24 => RegOp::Load {
                    kind: LoadKind::F64,
                    addr: a,
                    offset,
                    dst: fd,
                },
                25 => RegOp::StoreI32R {
                    addr: a,
                    val: b,
                    offset,
                },
                26 => RegOp::StoreF64R {
                    addr: a,
                    val: fa,
                    offset,
                },
                27 => RegOp::Store {
                    kind: r.pick(&[StoreKind::I32S8, StoreKind::I64, StoreKind::F64]),
                    addr: a,
                    val: la,
                    offset,
                },
                28 | 29 => RegOp::AddStoreF64 {
                    a: fa,
                    b: fb,
                    addr: a,
                    offset,
                },
                30 => RegOp::StoreI32R {
                    addr: z,
                    val: a,
                    offset,
                },
                31 => match r.below(2) {
                    0 => RegOp::ScaleAddLoadI32 {
                        base: a,
                        idx: b,
                        k,
                        offset,
                        dst,
                    },
                    _ => RegOp::ScaleAddLoadF64 {
                        base: a,
                        idx: b,
                        k,
                        offset,
                        dst: fd,
                    },
                },
                32 => RegOp::IdxLAddLoadF64 {
                    base: a,
                    y: b,
                    n: z,
                    z: dst,
                    k,
                    offset,
                    dst: fd,
                },
                33 => RegOp::CallLocal {
                    func: 0,
                    base: r.below(13) as u16,
                },
                34 => match r.below(3) {
                    0 => RegOp::Select {
                        cond: a,
                        a: b,
                        b: z,
                        dst,
                    },
                    1 => RegOp::GlobalGet { idx: 0, dst },
                    _ => RegOp::MemoryGrow { src: a, dst },
                },
                35 | 36 => RegOp::BrIf {
                    cond: a,
                    jump_if: true,
                    target,
                },
                37 => match r.below(2) {
                    0 => RegOp::CmpBr {
                        op,
                        a,
                        b,
                        jump_if: false,
                        latch: false,
                        target,
                    },
                    _ => RegOp::IncBrLtS {
                        i: a,
                        n: b,
                        k: 1,
                        target,
                    },
                },
                38 => RegOp::BrTable {
                    idx: a,
                    entries: (0..2)
                        .map(|_| RegBrEntry {
                            target: r.below(n + 1) as u32,
                            src: 0,
                            dst: 0,
                            keep: 0,
                        })
                        .collect(),
                },
                _ => RegOp::Jump { target },
            });
        }
        code.push(RegOp::Return { src: 0 });
        func(13, code)
    }

    #[test]
    fn random_bodies_match_the_oracle() {
        let mut scratch = RangeScratch::default();
        let (mut unproven, mut interval, mut subsumed) = (0, 0, 0);
        for seed in 0..3000 {
            let f = random_body(seed);
            let got = walk(&f, MIN_MEM, &mut scratch);
            assert_eq!(got, oracle::reg_proofs(&f, MIN_MEM), "seed {seed}");
            for proof in got.iter().flatten() {
                match proof {
                    Proof::Unproven => unproven += 1,
                    Proof::Interval => interval += 1,
                    Proof::Subsumed => subsumed += 1,
                }
            }
        }
        // The bodies must exercise the walk, not dodge it.
        assert!(
            unproven > 20_000 && interval > 300 && subsumed > 1_000,
            "{unproven} unproven, {interval} interval, {subsumed} subsumed"
        );
    }

    #[test]
    fn no_op_interns_more_than_two_keys() {
        // `enter_region` sizes the interner at four buckets per op, which
        // keeps it at most half full only while no op interns more than two
        // keys. The row forms are the ones at the limit: `y*n`, then the
        // 2-D tail or the add over it.
        let mut scratch = RangeScratch::default();
        let mut most = std::collections::BTreeMap::new();
        for seed in 0..3000 {
            let f = random_body(seed);
            scratch.frame = f.frame_size as usize;
            scratch.slots.resize(scratch.frame, (0, 0));
            scratch.enter_region(f.code.len());
            for op in f.code.iter() {
                scratch.keys = 0;
                if let Some(acc) = access_of(op) {
                    scratch.judge(acc, MIN_MEM);
                }
                scratch.define(op);
                let name = format!("{op:?}");
                let name = name
                    .split([' ', '{'])
                    .next()
                    .unwrap_or_default()
                    .to_string();
                let n = most.entry(name).or_insert(0);
                *n = scratch.keys.max(*n);
            }
        }
        assert!(most.values().all(|&n| n <= 2), "{most:?}");
        for form in ["IdxLAdd", "IdxLAddLoadF64", "MulAddI32"] {
            assert_eq!(most.get(form), Some(&2), "{most:?}");
        }
    }

    #[test]
    fn colliding_keys_degrade_to_unknowns() {
        // 200 constants whose hashes agree in their low 16 bits share one
        // probe sequence however often the interner doubles.
        let mut keys = Vec::new();
        let mut bits = 0u64;
        while keys.len() < 200 {
            if VnKey::Const(bits).hash() & 0xffff == 0 {
                keys.push(bits);
            }
            bits += 1;
        }
        // Each constant is loaded from twice in a row, at widening then
        // narrowing extent: the second load is subsumed exactly when the
        // constant kept one value number.
        let mut code = Vec::new();
        for &bits in &keys {
            for offset in [70_004, 70_000] {
                code.push(RegOp::Const { bits, dst: 0 });
                code.push(RegOp::Load {
                    kind: LoadKind::I32,
                    addr: 0,
                    offset,
                    dst: 1,
                });
            }
        }
        code.push(RegOp::Return { src: 0 });
        let f = func(2, code);
        let got = walk(&f, MIN_MEM, &mut RangeScratch::default());
        let want = oracle::reg_proofs(&f, MIN_MEM);
        let subsumed =
            |v: &[Option<Proof>]| v.iter().filter(|p| **p == Some(Proof::Subsumed)).count();
        assert_eq!(subsumed(&want), keys.len());
        assert_eq!(
            subsumed(&got),
            MAX_PROBES,
            "one probe sequence holds that many keys"
        );
        for (pc, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g == w || *g == Some(Proof::Unproven),
                "pc {pc}: {g:?} vs {w:?}"
            );
        }
    }
}
