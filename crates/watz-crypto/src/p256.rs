//! NIST P-256 (secp256r1) arithmetic: 256-bit integers, Montgomery modular
//! arithmetic under the field prime and the group order, and
//! Jacobian-coordinate group operations.
//!
//! The paper selects secp256r1 "as recommended by the NIST" for both the
//! attestation key pair (ECDSA) and the session keys (ECDHE). This module is
//! the shared arithmetic core for [`crate::ecdsa`] and [`crate::ecdh`].
//!
//! # Representation
//!
//! One type, [`Modulus`], does Montgomery arithmetic — `a·b·R⁻¹ mod m` with
//! `R = 2^256` — under both the field prime `p` ([`curve::fp`]) and the
//! group order `n` ([`curve::fn_`]). Its constants (`-m⁻¹ mod 2^64` and
//! `R² mod m`) are computed by [`Modulus::new`], not transcribed. Under `n`
//! the product is a generic 4-limb CIOS. Under `p`, where every group
//! operation spends its time, multiply and square reduce with p's limbs as
//! constants (`-p⁻¹ ≡ 1`, one zero limb, two limbs of ones), a square
//! takes 10 word products instead of 16, and the inversion is p − 2's
//! fixed addition chain. A residue `a` is in *Montgomery form* when it is
//! stored as `a·R mod m`; products of Montgomery-form values stay in
//! Montgomery form, and the product of one Montgomery-form and one plain
//! value is plain.
//!
//! * Plain integers at every boundary: [`U256`] scalars, [`AffinePoint`]
//!   coordinates, wire encodings, signatures.
//! * Montgomery form inside: [`JacobianPoint`] coordinates and the generator
//!   table. Values enter in [`AffinePoint::to_jacobian`] and leave in
//!   [`JacobianPoint::to_affine`]; scalars mod `n` enter with
//!   [`Modulus::to_mont`] around the one inversion ECDSA needs.
//!
//! # Scalar multiplication
//!
//! There is one group law ([`JacobianPoint::double`], [`JacobianPoint::add`]
//! and the mixed addition with an affine table entry) and three ways of
//! walking a scalar through it, chosen by how long the point lives:
//!
//! * **The generator** ([`AffinePoint::mul_base`]): a radix-16 table of
//!   `d·16^w·G`, built once per process (60 KiB); `k·G` is at most 64 mixed
//!   additions and no doubling. Keygen, signing and ECDHE.
//! * **A long-lived point** ([`CombTable`]): a 4-tooth comb of `Q` built
//!   once per key (960 B, about the cost of one windowed `k·Q`); `k·Q` is
//!   64 doublings and at most 64 mixed additions. ECDSA verification under
//!   a key that verifies again — a device's endorsed attestation key at the
//!   verifier, the pinned verifier identity at the device
//!   ([`crate::ecdsa::VerifyingKey::verify_with`]).
//! * **A one-off point** ([`JacobianPoint::mul_scalar`]): a 4-bit fixed
//!   window over a 15-entry table built per call; 256 doublings and at most
//!   64 general additions. ECDH with a peer's ephemeral key, and a verify
//!   under a key seen once.
//!
//! # Side channels
//!
//! Scalar multiplication, exponentiation and the final conditional
//! subtractions are variable-time (window and comb digits index tables and
//! zero digits skip work), as the bit-serial code they replace was; the
//! p-specialised field and the comb change none of that. The simulated TEE
//! makes no constant-time claim.

#[cfg(test)]
mod oracle;

/// A 256-bit unsigned integer, four little-endian `u64` limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256([0; 4]);
    /// One.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Builds from a 32-byte big-endian encoding.
    #[must_use]
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[(3 - i) * 8..(4 - i) * 8]);
            limbs[i] = u64::from_be_bytes(word);
        }
        U256(limbs)
    }

    /// Serializes to 32 big-endian bytes.
    #[must_use]
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, up to 64 digits).
    ///
    /// # Panics
    ///
    /// Panics on invalid hex; intended for compile-time constants and tests.
    #[must_use]
    pub const fn from_hex(s: &str) -> Self {
        let s = s.as_bytes();
        assert!(s.len() <= 64, "hex too long");
        let mut limbs = [0u64; 4];
        let mut i = 0;
        while i < s.len() {
            let c = s[s.len() - 1 - i];
            let digit = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => panic!("invalid hex"),
            };
            limbs[i / 16] |= (digit as u64) << ((i % 16) * 4);
            i += 1;
        }
        U256(limbs)
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Radix-16 digit `w` (0 = least significant), the window index of every
    /// table in this module.
    fn nibble(&self, w: usize) -> usize {
        ((self.0[w / 16] >> ((w % 16) * 4)) & 0xf) as usize
    }

    /// `self < other`.
    #[must_use]
    pub const fn lt(&self, other: &U256) -> bool {
        let mut i = 4;
        while i > 0 {
            i -= 1;
            if self.0[i] != other.0[i] {
                return self.0[i] < other.0[i];
            }
        }
        false
    }

    /// Wrapping addition; returns (sum, carry).
    #[must_use]
    pub const fn adc(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        let mut i = 0;
        while i < 4 {
            let (s1, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
            i += 1;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction; returns (difference, borrow).
    #[must_use]
    pub const fn sbb(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        let mut i = 0;
        while i < 4 {
            let (d1, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
            i += 1;
        }
        (U256(out), borrow)
    }
}

/// `a + b·c + d` as (low, high) words. Cannot overflow:
/// `(2^64-1)² + 2·(2^64-1) = 2^128 - 1`.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, d: u64) -> (u64, u64) {
    let t = u128::from(a) + u128::from(b) * u128::from(c) + u128::from(d);
    (t as u64, (t >> 64) as u64)
}

/// `a·b` as eight little-endian words: 16 word products.
fn widening_mul(a: &U256, b: &U256) -> [u64; 8] {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut c = 0;
        for j in 0..4 {
            (t[i + j], c) = mac(t[i + j], a.0[i], b.0[j], c);
        }
        t[i + 4] = c;
    }
    t
}

/// `a²` as eight little-endian words: the six products `aᵢ·aⱼ` with
/// `i < j` once, doubled by a shift, plus the four squares — 10 word
/// products instead of 16.
fn widening_sqr(a: &U256) -> [u64; 8] {
    let a = &a.0;
    let mut t = [0u64; 8];
    for i in 0..3 {
        let mut c = 0;
        for j in i + 1..4 {
            (t[i + j], c) = mac(t[i + j], a[i], a[j], c);
        }
        t[i + 4] = c;
    }
    // The cross terms fill t[1..7]: doubling them carries into t[7].
    for k in (1..8).rev() {
        t[k] = t[k] << 1 | t[k - 1] >> 63;
    }
    let mut c = 0;
    for i in 0..4 {
        let lo;
        (lo, c) = mac(t[2 * i], a[i], a[i], c);
        t[2 * i] = lo;
        let s = u128::from(t[2 * i + 1]) + u128::from(c);
        t[2 * i + 1] = s as u64;
        c = (s >> 64) as u64;
    }
    t
}

/// Montgomery reduction under the field prime: `t·R⁻¹ mod p` for
/// `t < p·R`, fully reduced.
///
/// `p = 2^256 − 2^224 + 2^192 + 2^96 − 1` has the limbs `2^64 − 1`,
/// `2^32 − 1`, `0` and `2^64 − 2^32 + 1`, and `−p⁻¹ ≡ 1 (mod 2^64)`, so each
/// round's quotient is the low word itself and adding it times `p` costs a
/// shift, a skipped limb and one word product: the low limb plus
/// `q·(2^64 − 1)` is `q·2^64`, which clears it and carries `q` into the next
/// limb, where it joins `q·(2^32 − 1)` as `q·2^32`.
fn redc_p(mut t: [u64; 8]) -> U256 {
    const P3: u64 = curve::p().0[3];
    // Carry out of limb i + 3 left by the previous round, owed to limb i + 4.
    let mut top = 0u64;
    for i in 0..4 {
        let q = t[i];
        let s = u128::from(t[i + 1]) + (u128::from(q) << 32);
        t[i + 1] = s as u64;
        let s = u128::from(t[i + 2]) + (s >> 64);
        t[i + 2] = s as u64;
        let s = u128::from(t[i + 3]) + u128::from(q) * u128::from(P3) + (s >> 64);
        t[i + 3] = s as u64;
        let s = u128::from(t[i + 4]) + (s >> 64) + u128::from(top);
        t[i + 4] = s as u64;
        top = (s >> 64) as u64;
    }
    // (t + q·p) / R < 2p: at most one subtraction.
    let r = U256([t[4], t[5], t[6], t[7]]);
    if top != 0 || !r.lt(&curve::p()) {
        r.sbb(&curve::p()).0
    } else {
        r
    }
}

/// Montgomery arithmetic context for an odd modulus `m` with
/// `2^255 < m < 2^256`, `R = 2^256`.
#[derive(Debug, Clone, Copy)]
pub struct Modulus {
    /// The modulus itself.
    pub m: U256,
    /// `-m⁻¹ mod 2^64`.
    n0: u64,
    /// `R² mod m`: multiplying by it converts into Montgomery form.
    r2: U256,
    /// `R mod m`: the Montgomery form of 1.
    one: U256,
    /// `m` is the field prime: multiply and square reduce with `redc_p`
    /// and [`Modulus::inv`] runs p − 2's addition chain.
    is_p: bool,
}

impl Modulus {
    /// Creates a context, computing the Montgomery constants from `m`.
    #[must_use]
    pub const fn new(m: U256) -> Self {
        assert!(m.0[0] & 1 == 1 && m.0[3] >> 63 == 1);
        // Newton iteration on the 2-adic inverse: an odd m0 is its own
        // inverse mod 8, and each step doubles the number of correct bits.
        let m0 = m.0[0];
        let mut inv = m0;
        let mut i = 0;
        while i < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
            i += 1;
        }
        // R mod m = 2^256 - m (because m > 2^255), the wrapping negation.
        let (one, _) = U256::ZERO.sbb(&m);
        let p = curve::p();
        let mut ctx = Modulus {
            m,
            n0: inv.wrapping_neg(),
            r2: one,
            one,
            is_p: !m.lt(&p) && !p.lt(&m),
        };
        // R² mod m = R·2^256 mod m: double R mod m 256 times.
        let mut i = 0;
        while i < 256 {
            ctx.r2 = ctx.add(&ctx.r2, &ctx.r2);
            i += 1;
        }
        ctx
    }

    /// Reduces a value `< 2^256` into `[0, m)`; one subtraction suffices
    /// because `m > 2^255`.
    #[must_use]
    pub fn reduce(&self, x: U256) -> U256 {
        if x.lt(&self.m) {
            x
        } else {
            x.sbb(&self.m).0
        }
    }

    /// `(a + b) mod m`, inputs must be `< m` (either form, both the same).
    #[must_use]
    pub const fn add(&self, a: &U256, b: &U256) -> U256 {
        let (sum, carry) = a.adc(b);
        if carry || !sum.lt(&self.m) {
            sum.sbb(&self.m).0
        } else {
            sum
        }
    }

    /// `(a - b) mod m`, inputs must be `< m` (either form, both the same).
    #[must_use]
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        let (diff, borrow) = a.sbb(b);
        if borrow {
            diff.adc(&self.m).0
        } else {
            diff
        }
    }

    /// `(-a) mod m`.
    #[must_use]
    pub fn neg(&self, a: &U256) -> U256 {
        self.sub(&U256::ZERO, a)
    }

    /// Montgomery product `a·b·R⁻¹ mod m`, fully reduced: generic CIOS, or
    /// the full product and `redc_p` under the field prime. One input must
    /// be `< m`; the other may be any 256-bit value.
    ///
    /// Montgomery-form operands give a Montgomery-form product; one
    /// Montgomery-form and one plain operand give a plain product.
    // `#[inline]` here and on `sqr`, and `cios` a function of its own: only
    // then does LLVM inline the multiply into the group law and both
    // inversions. On the bench host, k*P / inversion mod p / mod n take
    // 59 / 3.7 / 6.9 us as written, 64 / 6.7 / 10.3 us without the hints,
    // and 64 / 7.6 / 10.3 us with the CIOS body inside this branch.
    #[must_use]
    #[inline]
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        if self.is_p {
            redc_p(widening_mul(a, b))
        } else {
            self.cios(a, b)
        }
    }

    /// The generic Montgomery product (CIOS).
    #[inline(always)]
    fn cios(&self, a: &U256, b: &U256) -> U256 {
        let (a, b, m) = (&a.0, &b.0, &self.m.0);
        // Running sum, < 2m < 2^257 after every round: t[4] is 0 or 1.
        let mut t = [0u64; 5];
        for &bi in b {
            let mut c = 0;
            for j in 0..4 {
                (t[j], c) = mac(t[j], a[j], bi, c);
            }
            let (t4, hi) = t[4].overflowing_add(c);
            // Add q·m with q chosen to clear the low word, then shift down.
            let q = t[0].wrapping_mul(self.n0);
            let (_, mut c) = mac(t[0], q, m[0], 0);
            for j in 1..4 {
                (t[j - 1], c) = mac(t[j], q, m[j], c);
            }
            let (t3, lo) = t4.overflowing_add(c);
            t[3] = t3;
            t[4] = u64::from(hi) + u64::from(lo);
        }
        let r = U256([t[0], t[1], t[2], t[3]]);
        if t[4] != 0 || !r.lt(&self.m) {
            r.sbb(&self.m).0
        } else {
            r
        }
    }

    /// Montgomery square `a²·R⁻¹ mod m` (`a < m`); under the field prime
    /// from 10 word products instead of 16.
    #[must_use]
    #[inline]
    pub fn sqr(&self, a: &U256) -> U256 {
        if self.is_p {
            return redc_p(widening_sqr(a));
        }
        self.mul(a, a)
    }

    /// Converts a plain integer into Montgomery form (reducing it if it is
    /// not `< m`).
    #[must_use]
    pub fn to_mont(&self, a: &U256) -> U256 {
        self.mul(a, &self.r2)
    }

    /// Converts a Montgomery-form residue back to the plain integer.
    #[must_use]
    pub fn from_mont(&self, a: &U256) -> U256 {
        self.mul(a, &U256::ONE)
    }

    /// `base^exp` for a Montgomery-form `base`, in Montgomery form, by a
    /// 4-bit fixed window (`exp` is a plain integer).
    #[must_use]
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut table = [self.one; 16];
        for d in 1..16 {
            table[d] = self.mul(&table[d - 1], base);
        }
        let mut acc = self.one;
        for w in (0..64).rev() {
            for _ in 0..4 {
                acc = self.sqr(&acc);
            }
            let d = exp.nibble(w);
            if d != 0 {
                acc = self.mul(&acc, &table[d]);
            }
        }
        acc
    }

    /// Inverse of a Montgomery-form residue, in Montgomery form, via
    /// Fermat's little theorem (`m` must be prime; zero maps to zero): the
    /// 4-bit-window ladder, or p − 2's addition chain under the field prime.
    #[must_use]
    pub fn inv(&self, a: &U256) -> U256 {
        if self.is_p {
            return self.inv_p(a);
        }
        self.pow(a, &self.m.sbb(&U256([2, 0, 0, 0])).0)
    }

    /// `a^(p − 2)` by a fixed addition chain: 255 squarings and 12
    /// multiplies, against the ladder's 256 squarings, up to 64 multiplies
    /// and 15 more to build its table. From the top, `p − 2` is 32 ones,
    /// 31 zeros, a one, 96 zeros, 94 ones, a zero and a one; `xₖ` is
    /// `a^(2^k − 1)`, a run of `k` ones.
    fn inv_p(&self, a: &U256) -> U256 {
        let sqr_n = |x: U256, n: usize| (0..n).fold(x, |x, _| self.sqr(&x));
        let x2 = self.mul(&self.sqr(a), a);
        let x3 = self.mul(&self.sqr(&x2), a);
        let x6 = self.mul(&sqr_n(x3, 3), &x3);
        let x12 = self.mul(&sqr_n(x6, 6), &x6);
        let x15 = self.mul(&sqr_n(x12, 3), &x3);
        let x30 = self.mul(&sqr_n(x15, 15), &x15);
        let x32 = self.mul(&sqr_n(x30, 2), &x2);
        let t = self.mul(&sqr_n(x32, 32), a); // 1^32 0^31 1
        let t = self.mul(&sqr_n(t, 128), &x32); // 0^96 1^32
        let t = self.mul(&sqr_n(t, 32), &x32); // 1^32
        let t = self.mul(&sqr_n(t, 30), &x30); // 1^30
        self.mul(&sqr_n(t, 2), a) // 0 1
    }
}

/// Curve parameters for P-256, as plain integers.
pub mod curve {
    use super::{Modulus, U256};

    const P: U256 =
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    const N: U256 =
        U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
    const B: U256 =
        U256::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
    const GX: U256 =
        U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
    const GY: U256 =
        U256::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
    static FP: Modulus = Modulus::new(P);
    static FN: Modulus = Modulus::new(N);

    /// Field prime `p`.
    #[must_use]
    pub const fn p() -> U256 {
        P
    }

    /// Group order `n`.
    #[must_use]
    pub const fn n() -> U256 {
        N
    }

    /// Curve coefficient `b` (`a` is `p - 3`).
    #[must_use]
    pub const fn b() -> U256 {
        B
    }

    /// Base point x-coordinate.
    #[must_use]
    pub const fn gx() -> U256 {
        GX
    }

    /// Base point y-coordinate.
    #[must_use]
    pub const fn gy() -> U256 {
        GY
    }

    /// Field modulus context.
    #[must_use]
    pub fn fp() -> &'static Modulus {
        &FP
    }

    /// Order modulus context.
    #[must_use]
    pub fn fn_() -> &'static Modulus {
        &FN
    }
}

/// A point on P-256 in affine coordinates (plain integers), or the point at
/// infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffinePoint {
    /// The identity element.
    Infinity,
    /// A finite point `(x, y)`.
    Point {
        /// x-coordinate.
        x: U256,
        /// y-coordinate.
        y: U256,
    },
}

impl AffinePoint {
    /// The P-256 base point `G`.
    #[must_use]
    pub fn generator() -> Self {
        AffinePoint::Point {
            x: curve::gx(),
            y: curve::gy(),
        }
    }

    /// Checks `y² = x³ - 3x + b (mod p)`.
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        match self {
            AffinePoint::Infinity => true,
            AffinePoint::Point { x, y } => {
                let fp = curve::fp();
                let (x, y) = (fp.to_mont(x), fp.to_mont(y));
                let y2 = fp.sqr(&y);
                let x3 = fp.mul(&fp.sqr(&x), &x);
                let three_x = fp.add(&fp.add(&x, &x), &x);
                let rhs = fp.add(&fp.sub(&x3, &three_x), &fp.to_mont(&curve::b()));
                y2 == rhs
            }
        }
    }

    /// Encodes as 64 bytes (`x || y`, big-endian).
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity, which has no affine encoding.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 64] {
        match self {
            AffinePoint::Infinity => panic!("cannot encode the point at infinity"),
            AffinePoint::Point { x, y } => {
                let mut out = [0u8; 64];
                out[..32].copy_from_slice(&x.to_be_bytes());
                out[32..].copy_from_slice(&y.to_be_bytes());
                out
            }
        }
    }

    /// Decodes from 64 bytes, validating curve membership.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::InvalidPoint`] if the coordinates are out
    /// of range or the point is not on the curve.
    pub fn from_bytes(bytes: &[u8; 64]) -> crate::Result<Self> {
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        let x = U256::from_be_bytes(&xb);
        let y = U256::from_be_bytes(&yb);
        let p = curve::p();
        if !x.lt(&p) || !y.lt(&p) {
            return Err(crate::CryptoError::InvalidPoint);
        }
        let point = AffinePoint::Point { x, y };
        if !point.is_on_curve() {
            return Err(crate::CryptoError::InvalidPoint);
        }
        Ok(point)
    }

    /// Converts to Jacobian coordinates (into Montgomery form).
    #[must_use]
    pub fn to_jacobian(&self) -> JacobianPoint {
        let fp = curve::fp();
        match self {
            AffinePoint::Infinity => JacobianPoint::infinity(),
            AffinePoint::Point { x, y } => JacobianPoint {
                x: fp.to_mont(x),
                y: fp.to_mont(y),
                z: fp.one,
            },
        }
    }

    /// Scalar multiplication `k · self` (4-bit window, see
    /// [`JacobianPoint::mul_scalar`]) — the ECDH shared-secret path.
    #[must_use]
    pub fn mul_scalar(&self, k: &U256) -> AffinePoint {
        self.to_jacobian().mul_scalar(k).to_affine()
    }

    /// Fixed-base scalar multiplication `k · G` via the precomputed
    /// generator table — the hot path of keygen, signing and ECDHE.
    ///
    /// `AffinePoint::mul_base(k) == G.mul_scalar(k)` for all `k`, in at most
    /// 64 mixed additions and no doubling.
    #[must_use]
    pub fn mul_base(k: &U256) -> AffinePoint {
        GeneratorTable::get().mul(k).to_affine()
    }

    /// `u1 · G + u2 · self`, the ECDSA verification sum: the table-driven
    /// `u1 · G` and the windowed `u2 · self` joined by one general addition
    /// (which handles equal, opposite and infinite operands) and converted
    /// to affine once.
    #[must_use]
    pub fn mul_base_add(&self, u1: &U256, u2: &U256) -> AffinePoint {
        GeneratorTable::get()
            .mul(u1)
            .add(&self.to_jacobian().mul_scalar(u2))
            .to_affine()
    }
}

/// A finite affine point with Montgomery-form coordinates: a generator-table
/// entry, the second operand of a mixed addition.
#[derive(Debug, Clone, Copy)]
struct MontAffine {
    x: U256,
    y: U256,
}

/// Precomputed windowed table for the generator: radix-16 decomposition,
/// `points[w * 15 + (d - 1)] = d · 16^w · G` for `w ∈ 0..64`, `d ∈ 1..=16-1`.
///
/// A 256-bit scalar splits into 64 hex digits, so `k · G` is the sum of at
/// most 64 table entries — no doublings at all. Entries are stored affine
/// in Montgomery form (one batch inversion at build time, 60 KiB) so each
/// accumulation is a cheap mixed addition.
struct GeneratorTable {
    points: Vec<MontAffine>,
}

impl GeneratorTable {
    fn get() -> &'static GeneratorTable {
        use std::sync::OnceLock;
        static TABLE: OnceLock<GeneratorTable> = OnceLock::new();
        TABLE.get_or_init(GeneratorTable::build)
    }

    fn build() -> GeneratorTable {
        let mut jac: Vec<JacobianPoint> = Vec::with_capacity(64 * 15);
        let mut base = AffinePoint::generator().to_jacobian();
        for _ in 0..64 {
            let mut acc = base;
            for _ in 0..15 {
                jac.push(acc);
                acc = acc.add(&base);
            }
            // After pushing 1·base .. 15·base, acc holds 16·base: the next
            // window's base, for free (no explicit doubling chain).
            base = acc;
        }
        GeneratorTable {
            points: batch_to_affine(&jac),
        }
    }

    fn mul(&self, k: &U256) -> JacobianPoint {
        let mut acc = JacobianPoint::infinity();
        for w in 0..64 {
            let d = k.nibble(w);
            if d != 0 {
                acc = acc.add_affine(&self.points[w * 15 + d - 1]);
            }
        }
        acc
    }
}

/// A fixed-point comb (Lim and Lee, CRYPTO '94) for a long-lived point `Q`:
/// four teeth 64 bits apart, `points[d − 1] = Σ 2^(64·i)·Q` over the set
/// bits `i` of `d ∈ 1..16`, affine in Montgomery form (one batch inversion,
/// 960 B). Entry 1 is `Q` itself.
///
/// Column `j` of a scalar — bit `j` of each of its four limbs — names one
/// entry, so `k·Q` is 64 doublings and at most 64 mixed additions, against
/// the window's 256 doublings and ~60 general additions. Building one costs
/// about as much as a windowed `k·Q` (192 doublings, 11 additions and an
/// inversion), so it pays for a point that is used again. The only way to
/// get one is [`crate::ecdsa::VerifyingKey::comb_table`], so its point has
/// passed the range and on-curve checks.
#[derive(Debug, Clone)]
pub struct CombTable {
    points: Vec<MontAffine>,
}

impl CombTable {
    /// Builds the comb of a finite point.
    pub(crate) fn new(q: &AffinePoint) -> CombTable {
        assert!(*q != AffinePoint::Infinity, "a comb needs a finite point");
        let mut teeth = [q.to_jacobian(); 4];
        for i in 1..4 {
            teeth[i] = (0..64).fold(teeth[i - 1], |p, _| p.double());
        }
        // Entry d is a tooth if d is a power of two, else the entry of its
        // lowest set bit plus the entry of the rest. No sum is infinite or
        // a doubling: its multiplier of Q is nonzero and below n.
        let mut jac = [JacobianPoint::infinity(); 15];
        for d in 1..16usize {
            let low = d & d.wrapping_neg();
            jac[d - 1] = if low == d {
                teeth[d.trailing_zeros() as usize]
            } else {
                jac[low - 1].add(&jac[d - low - 1])
            };
        }
        CombTable {
            points: batch_to_affine(&jac),
        }
    }

    /// True if the table was built from `q`.
    pub(crate) fn is_for(&self, q: &AffinePoint) -> bool {
        let AffinePoint::Point { x, y } = q else {
            return false;
        };
        let fp = curve::fp();
        let first = &self.points[0];
        first.x == fp.to_mont(x) && first.y == fp.to_mont(y)
    }

    /// `k · Q`, MSB column first.
    fn mul(&self, k: &U256) -> JacobianPoint {
        let mut acc = JacobianPoint::infinity();
        for j in (0..64).rev() {
            acc = acc.double();
            let d = (0..4).fold(0, |d, i| d | ((k.0[i] >> j) & 1) << i) as usize;
            if d != 0 {
                acc = acc.add_affine(&self.points[d - 1]);
            }
        }
        acc
    }

    /// `u1 · G + u2 · Q`, the ECDSA verification sum of
    /// [`AffinePoint::mul_base_add`] with `u2 · Q` from the comb.
    pub(crate) fn mul_base_add(&self, u1: &U256, u2: &U256) -> AffinePoint {
        GeneratorTable::get().mul(u1).add(&self.mul(u2)).to_affine()
    }
}

/// Converts a batch of Jacobian points (all finite) to affine with a single
/// field inversion (Montgomery's trick), staying in Montgomery form.
fn batch_to_affine(points: &[JacobianPoint]) -> Vec<MontAffine> {
    let fp = curve::fp();
    // prefix[i] = z_0 · z_1 · … · z_i
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = fp.one;
    for p in points {
        debug_assert!(!p.is_infinity());
        acc = fp.mul(&acc, &p.z);
        prefix.push(acc);
    }
    let mut suffix_inv = fp.inv(&acc); // (z_0 · … · z_{n-1})^-1
    let mut out = Vec::with_capacity(points.len());
    for i in (0..points.len()).rev() {
        let zinv = if i == 0 {
            suffix_inv
        } else {
            fp.mul(&suffix_inv, &prefix[i - 1])
        };
        suffix_inv = fp.mul(&suffix_inv, &points[i].z);
        let zinv2 = fp.sqr(&zinv);
        out.push(MontAffine {
            x: fp.mul(&points[i].x, &zinv2),
            y: fp.mul(&points[i].y, &fp.mul(&zinv2, &zinv)),
        });
    }
    out.reverse();
    out
}

/// A point in Jacobian projective coordinates (`x/z²`, `y/z³`), every
/// coordinate in Montgomery form.
#[derive(Debug, Clone, Copy)]
pub struct JacobianPoint {
    x: U256,
    y: U256,
    /// Zero encodes infinity.
    z: U256,
}

impl JacobianPoint {
    /// The identity element.
    #[must_use]
    pub fn infinity() -> Self {
        let one = curve::fp().one;
        JacobianPoint {
            x: one,
            y: one,
            z: U256::ZERO,
        }
    }

    /// True if this is the identity.
    #[must_use]
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (dbl-2001-b, a = -3).
    #[must_use]
    pub fn double(&self) -> JacobianPoint {
        if self.is_infinity() || self.y.is_zero() {
            return JacobianPoint::infinity();
        }
        let fp = curve::fp();
        let delta = fp.sqr(&self.z);
        let gamma = fp.sqr(&self.y);
        let beta = fp.mul(&self.x, &gamma);
        // alpha = 3 (x - delta)(x + delta)
        let t0 = fp.sub(&self.x, &delta);
        let t1 = fp.add(&self.x, &delta);
        let t2 = fp.mul(&t0, &t1);
        let alpha = fp.add(&fp.add(&t2, &t2), &t2);
        // x3 = alpha^2 - 8 beta
        let beta2 = fp.add(&beta, &beta);
        let beta4 = fp.add(&beta2, &beta2);
        let beta8 = fp.add(&beta4, &beta4);
        let x3 = fp.sub(&fp.sqr(&alpha), &beta8);
        // z3 = (y + z)^2 - gamma - delta
        let yz = fp.add(&self.y, &self.z);
        let z3 = fp.sub(&fp.sub(&fp.sqr(&yz), &gamma), &delta);
        // y3 = alpha (4 beta - x3) - 8 gamma^2
        let g2 = fp.sqr(&gamma);
        let g2_2 = fp.add(&g2, &g2);
        let g2_4 = fp.add(&g2_2, &g2_2);
        let g2_8 = fp.add(&g2_4, &g2_4);
        let y3 = fp.sub(&fp.mul(&alpha, &fp.sub(&beta4, &x3)), &g2_8);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition.
    #[must_use]
    pub fn add(&self, other: &JacobianPoint) -> JacobianPoint {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let fp = curve::fp();
        let z1z1 = fp.sqr(&self.z);
        let z2z2 = fp.sqr(&other.z);
        let u1 = fp.mul(&self.x, &z2z2);
        let u2 = fp.mul(&other.x, &z1z1);
        let s1 = fp.mul(&fp.mul(&self.y, &other.z), &z2z2);
        let s2 = fp.mul(&fp.mul(&other.y, &self.z), &z1z1);
        let h = fp.sub(&u2, &u1);
        let r = fp.sub(&s2, &s1);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return JacobianPoint::infinity();
        }
        let hh = fp.sqr(&h);
        let hhh = fp.mul(&h, &hh);
        let v = fp.mul(&u1, &hh);
        // x3 = r^2 - hhh - 2v
        let x3 = fp.sub(&fp.sub(&fp.sqr(&r), &hhh), &fp.add(&v, &v));
        // y3 = r (v - x3) - s1 hhh
        let y3 = fp.sub(&fp.mul(&r, &fp.sub(&v, &x3)), &fp.mul(&s1, &hhh));
        let z3 = fp.mul(&fp.mul(&self.z, &other.z), &h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with a table entry (`z₂ = 1`), saving four
    /// multiplications and a squaring over the general [`JacobianPoint::add`].
    fn add_affine(&self, other: &MontAffine) -> JacobianPoint {
        let fp = curve::fp();
        if self.is_infinity() {
            return JacobianPoint {
                x: other.x,
                y: other.y,
                z: fp.one,
            };
        }
        let z1z1 = fp.sqr(&self.z);
        let u2 = fp.mul(&other.x, &z1z1);
        let s2 = fp.mul(&fp.mul(&other.y, &self.z), &z1z1);
        let h = fp.sub(&u2, &self.x);
        let r = fp.sub(&s2, &self.y);
        if h.is_zero() {
            if r.is_zero() {
                return self.double();
            }
            return JacobianPoint::infinity();
        }
        let hh = fp.sqr(&h);
        let hhh = fp.mul(&h, &hh);
        let v = fp.mul(&self.x, &hh);
        let x3 = fp.sub(&fp.sub(&fp.sqr(&r), &hhh), &fp.add(&v, &v));
        let y3 = fp.sub(&fp.mul(&r, &fp.sub(&v, &x3)), &fp.mul(&self.y, &hhh));
        let z3 = fp.mul(&self.z, &h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication by a 4-bit fixed window, MSB first: a 15-entry
    /// table of small multiples, then four doublings and at most one general
    /// addition per hex digit of `k`.
    #[must_use]
    pub fn mul_scalar(&self, k: &U256) -> JacobianPoint {
        let mut table = [*self; 16]; // table[d] = d · self, table[0] unused
        for d in 2..16 {
            table[d] = if d % 2 == 0 {
                table[d / 2].double()
            } else {
                table[d - 1].add(self)
            };
        }
        let mut acc = JacobianPoint::infinity();
        for w in (0..64).rev() {
            for _ in 0..4 {
                acc = acc.double();
            }
            let d = k.nibble(w);
            if d != 0 {
                acc = acc.add(&table[d]);
            }
        }
        acc
    }

    /// Converts back to affine coordinates (out of Montgomery form).
    #[must_use]
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::Infinity;
        }
        let fp = curve::fp();
        let zinv = fp.inv(&self.z);
        let zinv2 = fp.sqr(&zinv);
        AffinePoint::Point {
            x: fp.from_mont(&fp.mul(&self.x, &zinv2)),
            y: fp.from_mont(&fp.mul(&self.y, &fp.mul(&zinv2, &zinv))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{self, FoldModulus};
    use super::*;

    /// Deterministic xorshift64 word stream.
    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    fn small(v: u64) -> U256 {
        U256([v, 0, 0, 0])
    }

    fn mont_affine(p: &AffinePoint) -> MontAffine {
        let AffinePoint::Point { x, y } = p else {
            panic!("table entries are finite")
        };
        let fp = curve::fp();
        MontAffine {
            x: fp.to_mont(x),
            y: fp.to_mont(y),
        }
    }

    #[test]
    fn u256_roundtrip_bytes() {
        let v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn from_hex_pads_short_strings_and_accepts_both_cases() {
        assert_eq!(U256::from_hex(""), U256::ZERO);
        assert_eq!(U256::from_hex("deadBEEF"), small(0xdead_beef));
        assert_eq!(
            U256::from_hex("10000000000000000"),
            U256([0, 1, 0, 0]),
            "digit 17 lands in the second limb"
        );
        assert_eq!(curve::p().to_be_bytes()[..4], [0xff; 4]);
    }

    #[test]
    fn u256_add_sub_inverse() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00");
        let b = U256::from_hex("00000000000000000000000000000000000000000000000000000000000000ff");
        let (sum, carry) = a.adc(&b);
        assert!(!carry);
        let (diff, borrow) = sum.sbb(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
        // Carry and borrow ripple through every limb.
        let max = U256([u64::MAX; 4]);
        assert_eq!(max.adc(&U256::ONE), (U256::ZERO, true));
        assert_eq!(U256::ZERO.sbb(&U256::ONE), (max, true));
    }

    #[test]
    fn u256_mul_small() {
        let (lo, hi) = oracle::widening_mul(&small(7), &small(6));
        assert_eq!(lo, small(42));
        assert!(hi.is_zero());
    }

    #[test]
    fn u256_mul_carries_into_high() {
        let max = U256([u64::MAX; 4]);
        let (lo, hi) = oracle::widening_mul(&max, &max);
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        assert_eq!(lo, small(1));
        assert_eq!(hi, U256([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]));
    }

    #[test]
    fn modulus_reduce_wide_agrees_with_naive() {
        let fp = curve::fp();
        // x mod p for x slightly above p, by both reductions.
        let (above, _) = fp.m.adc(&small(12345));
        assert_eq!(fp.reduce(above), small(12345));
        assert_eq!(
            FoldModulus::p().reduce_wide(above, U256::ZERO),
            small(12345)
        );
        assert_eq!(
            fp.reduce(U256([u64::MAX; 4])),
            FoldModulus::p().r.sbb(&U256::ONE).0
        );
    }

    /// `n0` and `R²` against values derived without `Modulus::new`: the
    /// defining congruence for `n0`, the fold oracle's `(R mod m)²` for
    /// `R²`, and the constants other P-256 implementations publish.
    #[test]
    fn montgomery_constants_match_independent_derivation() {
        for (ctx, fold, n0, r2) in [
            (
                curve::fp(),
                FoldModulus::p(),
                1u64,
                "00000004fffffffdfffffffffffffffefffffffbffffffff0000000000000003",
            ),
            (
                curve::fn_(),
                FoldModulus::n(),
                0xccd1_c8aa_ee00_bc4f,
                "66e12d94f3d956202845b2392b6bec594699799c49bd6fa683244c95be79eea2",
            ),
        ] {
            assert_eq!(ctx.m.0[0].wrapping_mul(ctx.n0), u64::MAX, "m·n0 ≡ -1");
            assert_eq!(ctx.n0, n0);
            assert_eq!(ctx.is_p, n0 == 1, "only p takes the specialised path");
            assert_eq!(ctx.one, fold.r);
            assert_eq!(ctx.r2, fold.sqr(&fold.r));
            assert_eq!(ctx.r2, U256::from_hex(r2));
        }
    }

    /// Checks every Montgomery operation on the pair `(a, b)` of plain
    /// residues against the fold arithmetic.
    fn check_pair(ctx: &Modulus, fold: &FoldModulus, a: &U256, b: &U256) {
        let (am, bm) = (ctx.to_mont(a), ctx.to_mont(b));
        assert_eq!(ctx.from_mont(&am), *a, "round trip");
        if let (unreduced, false) = a.adc(&ctx.m) {
            assert_eq!(ctx.to_mont(&unreduced), am, "a + m < 2^256 reduces to a");
        }
        assert_eq!(am, fold.mul(a, &fold.r), "to_mont is a·R");
        assert_eq!(ctx.from_mont(&ctx.mul(&am, &bm)), fold.mul(a, b));
        assert_eq!(ctx.mul(a, &bm), fold.mul(a, b), "plain × Montgomery");
        assert_eq!(ctx.from_mont(&ctx.sqr(&am)), fold.sqr(a));
        assert_eq!(ctx.from_mont(&ctx.add(&am, &bm)), fold.add(a, b));
        assert_eq!(ctx.from_mont(&ctx.sub(&am, &bm)), fold.sub(a, b));
        assert_eq!(ctx.add(a, b), fold.add(a, b));
        assert_eq!(ctx.sub(a, b), fold.sub(a, b));
        assert_eq!(ctx.neg(a), fold.sub(&U256::ZERO, a));
    }

    fn check_inv(ctx: &Modulus, fold: &FoldModulus, a: &U256) {
        let am = ctx.to_mont(a);
        let inv = ctx.inv(&am);
        assert_eq!(ctx.from_mont(&inv), fold.inv(a));
        let expected = if a.is_zero() { U256::ZERO } else { ctx.one };
        assert_eq!(ctx.mul(&am, &inv), expected);
    }

    #[test]
    fn montgomery_ops_match_fold_oracle() {
        for (ctx, fold) in [
            (curve::fp(), FoldModulus::p()),
            (curve::fn_(), FoldModulus::n()),
        ] {
            let m = ctx.m;
            let edges = [
                U256::ZERO,
                U256::ONE,
                small(2),
                m.sbb(&U256::ONE).0,
                m.sbb(&small(2)).0,
                U256([0, 0, 0, 1 << 63]),
                fold.r,
                fold.reduce(U256([u64::MAX; 4])),
            ];
            for a in &edges {
                check_inv(ctx, &fold, a);
                for b in &edges {
                    check_pair(ctx, &fold, a, b);
                }
            }
            let mut next = xorshift(0x9e37_79b9_7f4a_7c15 ^ m.0[0]);
            for _ in 0..1000 {
                let a = fold.reduce(U256([next(), next(), next(), next()]));
                let b = fold.reduce(U256([next(), next(), next(), next()]));
                check_pair(ctx, &fold, &a, &b);
                check_inv(ctx, &fold, &a);
            }
        }
    }

    #[test]
    fn field_mul_matches_pow() {
        let fp = curve::fp();
        let a = fp.to_mont(&U256::from_hex("deadbeef"));
        assert_eq!(fp.mul(&a, &a), fp.pow(&a, &small(2)));
        assert_eq!(fp.pow(&a, &U256::ZERO), fp.one);
        assert_eq!(fp.pow(&a, &small(17)), {
            let a16 = (0..4).fold(a, |x, _| fp.sqr(&x));
            fp.mul(&a16, &a)
        });
    }

    #[test]
    fn field_inverse() {
        let fp = curve::fp();
        let a = fp.to_mont(&U256::from_hex("123456789abcdef123456789abcdef"));
        let inv = fp.inv(&a);
        assert_eq!(fp.from_mont(&fp.mul(&a, &inv)), U256::ONE);
    }

    #[test]
    fn order_inverse() {
        let fn_ = curve::fn_();
        let a = fn_.to_mont(&U256::from_hex("abcdef0102030405"));
        assert_eq!(fn_.from_mont(&fn_.mul(&a, &fn_.inv(&a))), U256::ONE);
    }

    #[test]
    fn generator_on_curve() {
        assert!(AffinePoint::generator().is_on_curve());
    }

    #[test]
    fn doubling_stays_on_curve() {
        let g2 = AffinePoint::generator().to_jacobian().double().to_affine();
        assert!(g2.is_on_curve());
        assert_ne!(g2, AffinePoint::generator());
    }

    #[test]
    fn add_matches_double() {
        let g = AffinePoint::generator().to_jacobian();
        let via_add = g.add(&g).to_affine();
        let via_double = g.double().to_affine();
        assert_eq!(via_add, via_double);
    }

    #[test]
    fn three_g_two_ways() {
        let g = AffinePoint::generator().to_jacobian();
        let g2 = g.double();
        let a = g2.add(&g).to_affine(); // 2G + G
        let b = g.add(&g2).to_affine(); // G + 2G
        assert_eq!(a, b);
        assert!(a.is_on_curve());
        let c = g.mul_scalar(&small(3)).to_affine();
        assert_eq!(a, c);
    }

    #[test]
    fn order_times_generator_is_infinity() {
        let ng = AffinePoint::generator().mul_scalar(&curve::n());
        assert_eq!(ng, AffinePoint::Infinity);
    }

    #[test]
    fn n_minus_one_g_is_negative_g() {
        let (n_minus_1, _) = curve::n().sbb(&U256::ONE);
        let p = AffinePoint::generator().mul_scalar(&n_minus_1);
        match (p, AffinePoint::generator()) {
            (AffinePoint::Point { x, y }, AffinePoint::Point { x: gx, y: gy }) => {
                assert_eq!(x, gx);
                assert_eq!(y, curve::fp().neg(&gy));
            }
            _ => panic!("unexpected infinity"),
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a + b) G == aG + bG for fixed scalars.
        let a = U256::from_hex("1111111111111111");
        let b = U256::from_hex("2222222222222222222222");
        let fn_ = curve::fn_();
        let ab = fn_.add(&a, &b);
        let g = AffinePoint::generator().to_jacobian();
        let lhs = g.mul_scalar(&ab).to_affine();
        let rhs = g.mul_scalar(&a).add(&g.mul_scalar(&b)).to_affine();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn mul_base_matches_double_and_add() {
        // Deterministic xorshift64 scalars: table path and window path
        // against the bit-serial oracle.
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let g = AffinePoint::generator();
        for _ in 0..16 {
            let k = U256([next(), next(), next(), next()]);
            let expected = oracle::mul_scalar(&g, &k);
            assert_eq!(AffinePoint::mul_base(&k), expected);
            assert_eq!(g.mul_scalar(&k), expected);
        }
    }

    #[test]
    fn mul_base_edge_scalars() {
        let g = AffinePoint::generator();
        assert_eq!(AffinePoint::mul_base(&U256::ZERO), AffinePoint::Infinity);
        assert_eq!(AffinePoint::mul_base(&U256::ONE), g);
        assert_eq!(
            AffinePoint::mul_base(&small(2)),
            g.to_jacobian().double().to_affine()
        );
        // n·G = ∞ through the table path too.
        assert_eq!(AffinePoint::mul_base(&curve::n()), AffinePoint::Infinity);
        let (n_minus_1, _) = curve::n().sbb(&U256::ONE);
        assert_eq!(AffinePoint::mul_base(&n_minus_1), g.mul_scalar(&n_minus_1));
        // Scalars above n wrap identically in both paths.
        let max = U256([u64::MAX; 4]);
        assert_eq!(AffinePoint::mul_base(&max), g.mul_scalar(&max));
    }

    /// The scalars that stress a radix-16 window: the ends of the range and
    /// of the group order, every single bit, and digit patterns that are all
    /// additions, all skips, or alternate between them.
    fn window_edge_scalars() -> Vec<U256> {
        let n = curve::n();
        let mut scalars = vec![
            U256::ZERO,
            U256::ONE,
            small(2),
            small(15),
            small(16),
            n.sbb(&U256::ONE).0,
            n,
            n.adc(&U256::ONE).0,
            U256([u64::MAX; 4]),
        ];
        for word in [
            0xf0f0_f0f0_f0f0_f0f0u64,
            0x0f0f_0f0f_0f0f_0f0f,
            0x1010_1010_1010_1010,
            0x0101_0101_0101_0101,
            0xffff_ffff_0000_0000,
        ] {
            scalars.push(U256([word; 4]));
        }
        for i in 0..256 {
            let mut limbs = [0u64; 4];
            limbs[i / 64] = 1 << (i % 64);
            scalars.push(U256(limbs));
        }
        scalars
    }

    /// The window, the generator table and the comb against the bit-serial
    /// oracle, on every edge scalar, for G, 5G and a seeded point.
    #[test]
    fn windowed_paths_match_bit_serial_oracle() {
        let g = AffinePoint::generator();
        let mut next = xorshift(0x0123_4567_89ab_cdef);
        let seeded = oracle::mul_scalar(&g, &U256([next(), next(), next(), next()]));
        let scalars = window_edge_scalars();
        for point in [g, oracle::mul_scalar(&g, &small(5)), seeded] {
            assert!(point.is_on_curve());
            let comb = CombTable::new(&point);
            for k in &scalars {
                let expected = oracle::mul_scalar(&point, k);
                assert_eq!(point.mul_scalar(k), expected, "k = {k:?}");
                assert_eq!(comb.mul(k).to_affine(), expected, "comb, k = {k:?}");
                if point == g {
                    assert_eq!(AffinePoint::mul_base(k), expected, "k = {k:?}");
                }
            }
        }
        for k in &scalars {
            assert_eq!(AffinePoint::Infinity.mul_scalar(k), AffinePoint::Infinity);
        }
    }

    #[test]
    fn comb_table_is_960_bytes_and_knows_its_point() {
        let g = AffinePoint::generator();
        let g5 = g.mul_scalar(&small(5));
        let comb = CombTable::new(&g5);
        assert_eq!(comb.points.len(), 15);
        assert_eq!(std::mem::size_of_val(&comb.points[..]), 960);
        assert!(comb.is_for(&g5));
        assert!(!comb.is_for(&g));
        assert!(!comb.is_for(&AffinePoint::Infinity));
    }

    /// The ECDSA verification sum `u1·G + u2·Q` where its final addition
    /// meets equal operands, opposite operands and an infinite operand.
    #[test]
    fn verify_sum_edge_cases() {
        let g = AffinePoint::generator();
        let AffinePoint::Point { x: gx, y: gy } = g else {
            panic!()
        };
        let neg_g = AffinePoint::Point {
            x: gx,
            y: curve::fp().neg(&gy),
        };
        let fold_n = FoldModulus::n();
        // Each sum by the window and by the comb of Q.
        let both = |q: &AffinePoint, u1: &U256, u2: &U256| {
            let windowed = q.mul_base_add(u1, u2);
            assert_eq!(CombTable::new(q).mul_base_add(u1, u2), windowed);
            windowed
        };
        let mut next = xorshift(0xfeed_f00d_dead_beef);
        for _ in 0..8 {
            let u = fold_n.reduce(U256([next(), next(), next(), next()]));
            let v = fold_n.reduce(U256([next(), next(), next(), next()]));
            // Q = G, u1 = u2: both halves are the same point (doubling).
            assert_eq!(
                both(&g, &u, &u),
                oracle::mul_scalar(&g, &fold_n.add(&u, &u))
            );
            // Q = -G, u1 = u2: the halves cancel.
            assert_eq!(both(&neg_g, &u, &u), AffinePoint::Infinity);
            // Q = qG in general: u1·G + u2·Q = (u1 + u2·q)·G.
            let q = fold_n.reduce(U256([next(), next(), next(), next()]));
            let point = oracle::mul_scalar(&g, &q);
            let sum = fold_n.add(&u, &fold_n.mul(&v, &q));
            assert_eq!(both(&point, &u, &v), oracle::mul_scalar(&g, &sum));
            // One half infinite.
            assert_eq!(
                both(&point, &U256::ZERO, &v),
                oracle::mul_scalar(&point, &v)
            );
            assert_eq!(both(&point, &u, &U256::ZERO), oracle::mul_scalar(&g, &u));
        }
        assert_eq!(both(&g, &U256::ZERO, &U256::ZERO), AffinePoint::Infinity);
    }

    #[test]
    fn generator_table_stays_within_64_kib() {
        let table = GeneratorTable::get();
        assert_eq!(table.points.len(), 64 * 15);
        assert!(std::mem::size_of_val(&table.points[..]) <= 64 << 10);
    }

    #[test]
    fn add_affine_matches_general_add() {
        let g = AffinePoint::generator();
        let p = g.to_jacobian().double(); // 2G, z != 1
        let q5 = g.mul_scalar(&small(5));
        let mixed = p.add_affine(&mont_affine(&q5)).to_affine();
        let general = p.add(&q5.to_jacobian()).to_affine();
        assert_eq!(mixed, general);
        // Doubling case: P + P with P affine.
        let two_g = g.to_jacobian().add_affine(&mont_affine(&g)).to_affine();
        assert_eq!(two_g, g.to_jacobian().double().to_affine());
        // Inverse case: 2G + (-2G) = ∞.
        let AffinePoint::Point { x, y } = p.to_affine() else {
            panic!()
        };
        let neg = AffinePoint::Point {
            x,
            y: curve::fp().neg(&y),
        };
        assert!(p.add_affine(&mont_affine(&neg)).is_infinity());
        // Infinite accumulator.
        assert_eq!(
            JacobianPoint::infinity()
                .add_affine(&mont_affine(&q5))
                .to_affine(),
            q5
        );
    }

    #[test]
    fn point_encoding_roundtrip() {
        let g5 = AffinePoint::generator().mul_scalar(&small(5));
        let bytes = g5.to_bytes();
        let decoded = AffinePoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, g5);
    }

    #[test]
    fn off_curve_point_rejected() {
        let mut bytes = AffinePoint::generator().to_bytes();
        bytes[63] ^= 1;
        assert!(AffinePoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn coordinate_out_of_range_rejected() {
        let mut bytes = [0xffu8; 64];
        bytes[32..].copy_from_slice(&curve::gy().to_be_bytes());
        assert!(AffinePoint::from_bytes(&bytes).is_err());
    }
}
