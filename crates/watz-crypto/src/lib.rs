//! Cryptographic primitives for the WaTZ reproduction.
//!
//! The WaTZ paper (§V) builds its attestation stack on LibTomCrypt inside
//! OP-TEE, using the following algorithm suite:
//!
//! * **SHA-256** for code measurements and the evidence anchor,
//! * **AES-CMAC (128-bit)** for message authentication and the SGX-style
//!   key-derivation chain,
//! * **AES-GCM (128-bit)** for the confidential `msg3` payload,
//! * **ECDSA over NIST P-256 (secp256r1)** for the device attestation key
//!   and the verifier identity key,
//! * **ECDHE over P-256** for the per-session key agreement,
//! * **Fortuna** as the deterministic PRNG seeded from the hardware root of
//!   trust (the MKVB), so the attestation key pair can be re-derived at every
//!   boot.
//!
//! This crate reimplements the whole suite from scratch in safe Rust, with
//! no `unsafe` and no dependency. The symmetric core is the table-driven
//! construction of [`aes`] and [`gcm`] (one portable path, ~220 MB/s of
//! AES-GCM on the bench host); the asymmetric core is [`p256`], Montgomery
//! arithmetic under the field prime (specialised to p's limbs) and the
//! group order, with a comb table for each long-lived verification key (an
//! ECDSA verify in ~80 µs, ~45 µs by comb). Nothing here claims to be
//! constant-time beyond [`ct_eq`]; see the side-channel note in [`p256`].
//!
//! # Example
//!
//! ```
//! use watz_crypto::{sha256::Sha256, ecdsa::SigningKey, fortuna::Fortuna};
//!
//! // Derive a deterministic attestation key from a device secret, as the
//! // WaTZ attestation service does from the MKVB.
//! let mut prng = Fortuna::from_seed(b"master key verification blob");
//! let key = SigningKey::generate(&mut prng);
//! let digest = Sha256::digest(b"wasm bytecode");
//! let sig = key.sign(&digest);
//! assert!(key.verifying_key().verify(&digest, &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod ecdh;
pub mod ecdsa;
pub mod fortuna;
pub mod gcm;
pub mod hmac;
pub mod kdf;
pub mod p256;
pub mod sha256;

mod error;

pub use error::CryptoError;

/// Convenience alias for results returned by fallible crypto operations.
pub type Result<T> = core::result::Result<T, CryptoError>;

/// Constant-time byte-slice equality.
///
/// Used wherever MACs, tags or signatures are compared so the simulation does
/// not introduce a timing side channel that the real system avoids.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches_equality() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
