//! Test-only reference arithmetic: the fold-based modular reduction and the
//! bit-serial double-and-add this crate shipped before the Montgomery
//! rebuild, kept verbatim on plain (non-Montgomery) integers.
//!
//! Nothing here shares a multiplication, a reduction or a group-law routine
//! with the shipped code, so agreement between the two is evidence about
//! both. Reduction is the generic 2^256-fold (`hi·2^256 + lo ≡ hi·(2^256 mod
//! m) + lo`), valid for any modulus in `(2^255, 2^256)`.

use super::{AffinePoint, U256};

/// Full 256×256 → 512-bit multiplication (lo, hi).
pub fn widening_mul(a: &U256, b: &U256) -> (U256, U256) {
    let mut t = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let cur = u128::from(t[i + j]) + u128::from(a.0[i]) * u128::from(b.0[j]) + carry;
            t[i + j] = cur as u64;
            carry = cur >> 64;
        }
        t[i + 4] = carry as u64;
    }
    (
        U256([t[0], t[1], t[2], t[3]]),
        U256([t[4], t[5], t[6], t[7]]),
    )
}

fn bits(x: &U256) -> usize {
    (0..4)
        .rev()
        .find(|&i| x.0[i] != 0)
        .map_or(0, |i| 64 * i + (64 - x.0[i].leading_zeros() as usize))
}

fn bit(x: &U256, i: usize) -> bool {
    (x.0[i / 64] >> (i % 64)) & 1 == 1
}

/// Fold-reduction context for a modulus `m` with `2^255 < m < 2^256`.
#[derive(Debug, Clone, Copy)]
pub struct FoldModulus {
    pub m: U256,
    /// `2^256 mod m`.
    pub r: U256,
}

impl FoldModulus {
    pub fn new(m: U256) -> Self {
        // 2^256 - m == wrapping negation of m.
        let (r, _) = U256::ZERO.sbb(&m);
        FoldModulus { m, r }
    }

    /// The field prime.
    pub fn p() -> Self {
        Self::new(super::curve::p())
    }

    /// The group order.
    pub fn n() -> Self {
        Self::new(super::curve::n())
    }

    /// Reduces a value already known to be `< 2^256` into `[0, m)`.
    pub fn reduce(&self, mut x: U256) -> U256 {
        while !x.lt(&self.m) {
            let (d, _) = x.sbb(&self.m);
            x = d;
        }
        x
    }

    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        let (sum, carry) = a.adc(b);
        if carry || !sum.lt(&self.m) {
            sum.sbb(&self.m).0
        } else {
            sum
        }
    }

    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        let (diff, borrow) = a.sbb(b);
        if borrow {
            diff.adc(&self.m).0
        } else {
            diff
        }
    }

    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        let (lo, hi) = widening_mul(a, b);
        self.reduce_wide(lo, hi)
    }

    pub fn sqr(&self, a: &U256) -> U256 {
        self.mul(a, a)
    }

    /// Reduces `hi·2^256 + lo` modulo `m` by repeated folding.
    pub fn reduce_wide(&self, mut lo: U256, mut hi: U256) -> U256 {
        while !hi.is_zero() {
            let (prod_lo, prod_hi) = widening_mul(&hi, &self.r);
            let (sum, carry) = lo.adc(&prod_lo);
            lo = sum;
            // carry feeds back into the high half (carry < 2, prod_hi small).
            let (new_hi, overflow) = prod_hi.adc(&U256([u64::from(carry), 0, 0, 0]));
            assert!(!overflow);
            hi = new_hi;
        }
        self.reduce(lo)
    }

    /// `base^exp mod m` by bit-serial square-and-multiply.
    pub fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut result = self.reduce(U256::ONE);
        let base = self.reduce(*base);
        for i in (0..bits(exp)).rev() {
            result = self.sqr(&result);
            if bit(exp, i) {
                result = self.mul(&result, &base);
            }
        }
        result
    }

    /// Modular inverse via Fermat's little theorem (`m` must be prime).
    pub fn inv(&self, a: &U256) -> U256 {
        let (m_minus_2, _) = self.m.sbb(&U256([2, 0, 0, 0]));
        self.pow(a, &m_minus_2)
    }
}

/// A Jacobian point on plain integers (`z == 0` encodes infinity).
#[derive(Debug, Clone, Copy)]
struct Jacobian {
    x: U256,
    y: U256,
    z: U256,
}

impl Jacobian {
    const INFINITY: Jacobian = Jacobian {
        x: U256::ONE,
        y: U256::ONE,
        z: U256::ZERO,
    };

    /// Point doubling (dbl-2001-b, a = -3).
    fn double(&self, fp: &FoldModulus) -> Jacobian {
        if self.z.is_zero() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let delta = fp.sqr(&self.z);
        let gamma = fp.sqr(&self.y);
        let beta = fp.mul(&self.x, &gamma);
        let t0 = fp.sub(&self.x, &delta);
        let t1 = fp.add(&self.x, &delta);
        let t2 = fp.mul(&t0, &t1);
        let alpha = fp.add(&fp.add(&t2, &t2), &t2);
        let beta2 = fp.add(&beta, &beta);
        let beta4 = fp.add(&beta2, &beta2);
        let beta8 = fp.add(&beta4, &beta4);
        let x3 = fp.sub(&fp.sqr(&alpha), &beta8);
        let yz = fp.add(&self.y, &self.z);
        let z3 = fp.sub(&fp.sub(&fp.sqr(&yz), &gamma), &delta);
        let g2 = fp.sqr(&gamma);
        let g2_2 = fp.add(&g2, &g2);
        let g2_4 = fp.add(&g2_2, &g2_2);
        let g2_8 = fp.add(&g2_4, &g2_4);
        let y3 = fp.sub(&fp.mul(&alpha, &fp.sub(&beta4, &x3)), &g2_8);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition.
    fn add(&self, other: &Jacobian, fp: &FoldModulus) -> Jacobian {
        if self.z.is_zero() {
            return *other;
        }
        if other.z.is_zero() {
            return *self;
        }
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
                return self.double(fp);
            }
            return Jacobian::INFINITY;
        }
        let hh = fp.sqr(&h);
        let hhh = fp.mul(&h, &hh);
        let v = fp.mul(&u1, &hh);
        let x3 = fp.sub(&fp.sub(&fp.sqr(&r), &hhh), &fp.add(&v, &v));
        let y3 = fp.sub(&fp.mul(&r, &fp.sub(&v, &x3)), &fp.mul(&s1, &hhh));
        let z3 = fp.mul(&fp.mul(&self.z, &other.z), &h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

/// `k · point` by bit-serial double-and-add (MSB first), one Fermat
/// inversion at the end.
pub fn mul_scalar(point: &AffinePoint, k: &U256) -> AffinePoint {
    let AffinePoint::Point { x, y } = point else {
        return AffinePoint::Infinity;
    };
    let fp = FoldModulus::p();
    let base = Jacobian {
        x: *x,
        y: *y,
        z: U256::ONE,
    };
    let mut acc = Jacobian::INFINITY;
    for i in (0..bits(k)).rev() {
        acc = acc.double(&fp);
        if bit(k, i) {
            acc = acc.add(&base, &fp);
        }
    }
    if acc.z.is_zero() {
        return AffinePoint::Infinity;
    }
    let zinv = fp.inv(&acc.z);
    let zinv2 = fp.sqr(&zinv);
    AffinePoint::Point {
        x: fp.mul(&acc.x, &zinv2),
        y: fp.mul(&acc.y, &fp.mul(&zinv2, &zinv)),
    }
}
