//! ECDSA over P-256 with SHA-256 digests and RFC 6979 deterministic nonces.
//!
//! In WaTZ the attestation service signs evidence with the device's ECDSA
//! attestation key (derived from the root of trust), and the verifier signs
//! the session handshake (`msg1`) with its identity key. Both public keys
//! outlive every session that checks them, so each side verifies with the
//! key's comb ([`VerifyingKey::verify_with`], [`crate::p256::CombTable`]),
//! built once; [`VerifyingKey::verify`] is the path for a key seen once.

use crate::fortuna::Fortuna;
use crate::hmac::hmac_sha256;
use crate::p256::{curve, AffinePoint, CombTable, U256};
use crate::{CryptoError, Result};

/// An ECDSA signature: the pair `(r, s)`, each 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The `r` component.
    pub r: U256,
    /// The `s` component.
    pub s: U256,
}

impl Signature {
    /// Serializes as `r || s` (64 bytes, big-endian).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses from `r || s`, rejecting out-of-range components.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidScalar`] if either half is zero or ≥ n.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Self> {
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..]);
        let r = U256::from_be_bytes(&rb);
        let s = U256::from_be_bytes(&sb);
        let n = curve::n();
        if r.is_zero() || s.is_zero() || !r.lt(&n) || !s.lt(&n) {
            return Err(CryptoError::InvalidScalar);
        }
        Ok(Signature { r, s })
    }
}

/// An ECDSA private key.
#[derive(Clone)]
pub struct SigningKey {
    d: U256,
    public: VerifyingKey,
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SigningKey {{ public: {:?} }}", self.public)
    }
}

impl SigningKey {
    /// Generates a key pair from the supplied PRNG.
    ///
    /// WaTZ seeds the PRNG (Fortuna) from the device MKVB, making key
    /// generation deterministic per device — regenerate with the same seed
    /// and you get the same attestation key.
    #[must_use]
    pub fn generate(rng: &mut Fortuna) -> Self {
        let n = curve::n();
        loop {
            let mut buf = [0u8; 32];
            rng.fill_bytes(&mut buf);
            let d = U256::from_be_bytes(&buf);
            if !d.is_zero() && d.lt(&n) {
                return Self::from_scalar(d).expect("scalar validated");
            }
        }
    }

    /// Builds a key from a raw scalar.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidScalar`] if `d` is zero or ≥ n.
    pub fn from_scalar(d: U256) -> Result<Self> {
        let n = curve::n();
        if d.is_zero() || !d.lt(&n) {
            return Err(CryptoError::InvalidScalar);
        }
        let q = AffinePoint::mul_base(&d);
        Ok(SigningKey {
            d,
            public: VerifyingKey { point: q },
        })
    }

    /// Builds a key from 32 big-endian bytes.
    ///
    /// # Errors
    ///
    /// Same as [`SigningKey::from_scalar`].
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self> {
        Self::from_scalar(U256::from_be_bytes(bytes))
    }

    /// The corresponding public key.
    #[must_use]
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// Signs a 32-byte digest. Signing is fully deterministic (RFC 6979):
    /// this is [`SigningKey::sign_deterministic`].
    #[must_use]
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        self.sign_deterministic(digest)
    }

    /// Signs a 32-byte digest with a fully deterministic RFC 6979 nonce.
    #[must_use]
    pub fn sign_deterministic(&self, digest: &[u8; 32]) -> Signature {
        let fn_ = curve::fn_();
        let z = fn_.reduce(U256::from_be_bytes(digest));
        let d = fn_.to_mont(&self.d);
        let mut nonce_gen = Rfc6979::new(&self.d.to_be_bytes(), digest);
        loop {
            let k = nonce_gen.next_nonce();
            let r_point = AffinePoint::mul_base(&k);
            let AffinePoint::Point { x, .. } = r_point else {
                continue;
            };
            let r = fn_.reduce(x);
            if r.is_zero() {
                continue;
            }
            // s = k^-1 (z + r d) mod n. Only d and k^-1 are in Montgomery
            // form, so each product with a plain operand comes out plain.
            let sum = fn_.add(&z, &fn_.mul(&r, &d));
            let s = fn_.mul(&fn_.inv(&fn_.to_mont(&k)), &sum);
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }
}

/// An ECDSA public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyingKey {
    point: AffinePoint,
}

impl VerifyingKey {
    /// Wraps an affine point as a public key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] for infinity or off-curve points.
    pub fn from_point(point: AffinePoint) -> Result<Self> {
        if point == AffinePoint::Infinity || !point.is_on_curve() {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(VerifyingKey { point })
    }

    /// Decodes from the 64-byte `x || y` encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the encoding is invalid.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Self> {
        Self::from_point(AffinePoint::from_bytes(bytes)?)
    }

    /// Encodes as 64 bytes (`x || y`).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 64] {
        self.point.to_bytes()
    }

    /// The underlying curve point.
    #[must_use]
    pub fn point(&self) -> &AffinePoint {
        &self.point
    }

    /// Verifies a signature over a 32-byte digest, with a 4-bit window over
    /// this key: the path for a key seen once.
    #[must_use]
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        check_signature(digest, sig, |u1, u2| self.point.mul_base_add(u1, u2))
    }

    /// This key's comb table for [`VerifyingKey::verify_with`]: 960 B,
    /// built in about the time of one [`VerifyingKey::verify`], so worth it
    /// for a key that verifies again.
    #[must_use]
    pub fn comb_table(&self) -> CombTable {
        CombTable::new(&self.point)
    }

    /// [`VerifyingKey::verify`] with this key's comb: the same answer for
    /// about half the work. A table built from another key verifies
    /// nothing.
    #[must_use]
    pub fn verify_with(&self, table: &CombTable, digest: &[u8; 32], sig: &Signature) -> bool {
        table.is_for(&self.point)
            && check_signature(digest, sig, |u1, u2| table.mul_base_add(u1, u2))
    }
}

/// The ECDSA check around the sum `u1·G + u2·Q`, which `sum` computes.
fn check_signature(
    digest: &[u8; 32],
    sig: &Signature,
    sum: impl FnOnce(&U256, &U256) -> AffinePoint,
) -> bool {
    let n = curve::n();
    if sig.r.is_zero() || sig.s.is_zero() || !sig.r.lt(&n) || !sig.s.lt(&n) {
        return false;
    }
    let fn_ = curve::fn_();
    let z = fn_.reduce(U256::from_be_bytes(digest));
    // w = s^-1 in Montgomery form, so u1 and u2 come out plain.
    let w = fn_.inv(&fn_.to_mont(&sig.s));
    let u1 = fn_.mul(&z, &w);
    let u2 = fn_.mul(&sig.r, &w);
    match sum(&u1, &u2) {
        AffinePoint::Infinity => false,
        AffinePoint::Point { x, .. } => fn_.reduce(x) == sig.r,
    }
}

/// RFC 6979 HMAC-SHA256 nonce generator.
struct Rfc6979 {
    k: [u8; 32],
    v: [u8; 32],
}

impl Rfc6979 {
    fn new(private_key: &[u8; 32], digest: &[u8; 32]) -> Self {
        let fn_ = curve::fn_();
        // bits2octets: digest reduced mod n, re-encoded.
        let h_reduced = fn_.reduce(U256::from_be_bytes(digest)).to_be_bytes();

        let mut k = [0u8; 32];
        let mut v = [1u8; 32];

        // K = HMAC(K, V || 0x00 || x || h), then the same with 0x01.
        let mut msg = [0u8; 97];
        msg[33..65].copy_from_slice(private_key);
        msg[65..].copy_from_slice(&h_reduced);
        for round in 0..2 {
            msg[..32].copy_from_slice(&v);
            msg[32] = round;
            k = hmac_sha256(&k, &msg);
            v = hmac_sha256(&k, &v);
        }

        Rfc6979 { k, v }
    }

    /// K = HMAC(K, V || 0x00); V = HMAC(K, V) — the step between candidates.
    fn rekey(&mut self) {
        let mut msg = [0u8; 33];
        msg[..32].copy_from_slice(&self.v);
        self.k = hmac_sha256(&self.k, &msg);
        self.v = hmac_sha256(&self.k, &self.v);
    }

    fn next_nonce(&mut self) -> U256 {
        let n = curve::n();
        loop {
            self.v = hmac_sha256(&self.k, &self.v);
            let candidate = U256::from_be_bytes(&self.v);
            // Rekey either way: a rejected candidate, or a possible retry
            // by the caller.
            self.rekey();
            if !candidate.is_zero() && candidate.lt(&n) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;

    fn test_key() -> SigningKey {
        let mut rng = Fortuna::from_seed(b"ecdsa unit test key");
        SigningKey::generate(&mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let digest = Sha256::digest(b"attestation evidence");
        let sig = key.sign_deterministic(&digest);
        assert!(key.verifying_key().verify(&digest, &sig));
    }

    #[test]
    fn wrong_digest_rejected() {
        let key = test_key();
        let sig = key.sign_deterministic(&Sha256::digest(b"message one"));
        assert!(!key
            .verifying_key()
            .verify(&Sha256::digest(b"message two"), &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let key = test_key();
        let mut rng = Fortuna::from_seed(b"another key");
        let other = SigningKey::generate(&mut rng);
        let digest = Sha256::digest(b"message");
        let sig = key.sign_deterministic(&digest);
        assert!(!other.verifying_key().verify(&digest, &sig));
    }

    #[test]
    fn a_comb_verifies_only_for_its_own_key() {
        let key = test_key();
        let other = SigningKey::generate(&mut Fortuna::from_seed(b"another key"));
        let digest = Sha256::digest(b"message");
        let sig = key.sign_deterministic(&digest);
        let public = key.verifying_key();
        assert!(public.verify_with(&public.comb_table(), &digest, &sig));
        let foreign = other.verifying_key().comb_table();
        assert!(!public.verify_with(&foreign, &digest, &sig));
        // Nor does the other key accept with this key's table.
        assert!(!other
            .verifying_key()
            .verify_with(&public.comb_table(), &digest, &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = test_key();
        let digest = Sha256::digest(b"message");
        let sig = key.sign_deterministic(&digest);
        let mut bytes = sig.to_bytes();
        bytes[10] ^= 0x40;
        if let Ok(bad) = Signature::from_bytes(&bytes) {
            assert!(!key.verifying_key().verify(&digest, &bad));
        }
    }

    #[test]
    fn deterministic_signatures() {
        let key = test_key();
        let digest = Sha256::digest(b"same message");
        assert_eq!(
            key.sign_deterministic(&digest).to_bytes(),
            key.sign_deterministic(&digest).to_bytes()
        );
    }

    #[test]
    fn different_messages_different_nonces() {
        let key = test_key();
        let s1 = key.sign_deterministic(&Sha256::digest(b"m1"));
        let s2 = key.sign_deterministic(&Sha256::digest(b"m2"));
        // Equal r would mean a reused nonce — catastrophic for ECDSA.
        assert_ne!(s1.r, s2.r);
    }

    #[test]
    fn key_generation_deterministic_per_seed() {
        let mut rng1 = Fortuna::from_seed(b"device-mkvb");
        let mut rng2 = Fortuna::from_seed(b"device-mkvb");
        let k1 = SigningKey::generate(&mut rng1);
        let k2 = SigningKey::generate(&mut rng2);
        assert_eq!(
            k1.verifying_key().to_bytes().to_vec(),
            k2.verifying_key().to_bytes().to_vec()
        );
    }

    #[test]
    fn public_key_roundtrip() {
        let key = test_key();
        let bytes = key.verifying_key().to_bytes();
        let decoded = VerifyingKey::from_bytes(&bytes).unwrap();
        assert_eq!(&decoded, key.verifying_key());
    }

    #[test]
    fn zero_scalar_rejected() {
        assert!(SigningKey::from_scalar(U256::ZERO).is_err());
    }

    #[test]
    fn order_scalar_rejected() {
        assert!(SigningKey::from_scalar(curve::n()).is_err());
    }

    #[test]
    fn signature_encoding_roundtrip() {
        let key = test_key();
        let digest = Sha256::digest(b"roundtrip");
        let sig = key.sign_deterministic(&digest);
        let decoded = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(decoded, sig);
    }

    #[test]
    fn verify_rejects_when_the_sum_is_infinity() {
        // Q = -G and z = r make u1·G + u2·Q = (z/s)·(G - G) = ∞ for any s.
        let AffinePoint::Point { x, y } = AffinePoint::generator() else {
            panic!()
        };
        let neg_g = AffinePoint::Point {
            x,
            y: curve::fp().neg(&y),
        };
        let key = VerifyingKey::from_point(neg_g).unwrap();
        let digest = Sha256::digest(b"any message");
        let r = curve::fn_().reduce(U256::from_be_bytes(&digest));
        for s in [U256::ONE, r, U256::from_hex("123456789abcdef")] {
            assert!(!key.verify(&digest, &Signature { r, s }));
        }
    }

    // RFC 6979 appendix A.2.5, P-256 + SHA-256, message "sample".
    #[test]
    fn rfc6979_p256_sha256_sample() {
        let d = U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");
        let key = SigningKey::from_scalar(d).unwrap();
        let digest = Sha256::digest(b"sample");
        let sig = key.sign_deterministic(&digest);
        assert_eq!(
            sig.r,
            U256::from_hex("efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716")
        );
        assert_eq!(
            sig.s,
            U256::from_hex("f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8")
        );
        assert!(key.verifying_key().verify(&digest, &sig));
    }
}
