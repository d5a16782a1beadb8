//! Ephemeral elliptic-curve Diffie–Hellman (ECDHE) over P-256.
//!
//! Each WaTZ attestation session generates a fresh key pair on both sides
//! (`<a, Ga>` and `<v, Gv>`, §IV), giving the protocol freshness and forward
//! secrecy. The shared secret is the x-coordinate of `a·Gv = v·Ga`.

use crate::fortuna::Fortuna;
use crate::p256::{curve, AffinePoint, U256};
use crate::{CryptoError, Result};

/// An ephemeral ECDH key pair.
#[derive(Clone)]
pub struct EphemeralKeyPair {
    secret: U256,
    public: AffinePoint,
}

impl core::fmt::Debug for EphemeralKeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EphemeralKeyPair {{ public: .. }}")
    }
}

impl EphemeralKeyPair {
    /// Generates a fresh key pair from the PRNG.
    #[must_use]
    pub fn generate(rng: &mut Fortuna) -> Self {
        let n = curve::n();
        loop {
            let mut buf = [0u8; 32];
            rng.fill_bytes(&mut buf);
            let secret = U256::from_be_bytes(&buf);
            if !secret.is_zero() && secret.lt(&n) {
                let public = AffinePoint::mul_base(&secret);
                return EphemeralKeyPair { secret, public };
            }
        }
    }

    /// The public half, encoded as 64 bytes (`x || y`).
    #[must_use]
    pub fn public_bytes(&self) -> [u8; 64] {
        self.public.to_bytes()
    }

    /// Computes the shared secret with a peer public key.
    ///
    /// Returns the 32-byte big-endian x-coordinate of the shared point.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the peer key is malformed,
    /// off-curve, or the computation degenerates to infinity (contributory
    /// behaviour check).
    pub fn diffie_hellman(&self, peer_public: &[u8; 64]) -> Result<[u8; 32]> {
        let peer = AffinePoint::from_bytes(peer_public)?;
        let shared = peer.mul_scalar(&self.secret);
        match shared {
            AffinePoint::Infinity => Err(CryptoError::InvalidPoint),
            AffinePoint::Point { x, .. } => Ok(x.to_be_bytes()),
        }
    }
}

/// One-shot ECDH between a local key pair and a peer public key.
///
/// # Errors
///
/// See [`EphemeralKeyPair::diffie_hellman`].
pub fn diffie_hellman(local: &EphemeralKeyPair, peer_public: &[u8; 64]) -> Result<[u8; 32]> {
    local.diffie_hellman(peer_public)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_secret_agrees() {
        let mut rng_a = Fortuna::from_seed(b"attester session");
        let mut rng_v = Fortuna::from_seed(b"verifier session");
        let a = EphemeralKeyPair::generate(&mut rng_a);
        let v = EphemeralKeyPair::generate(&mut rng_v);
        let s1 = a.diffie_hellman(&v.public_bytes()).unwrap();
        let s2 = v.diffie_hellman(&a.public_bytes()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn distinct_sessions_distinct_secrets() {
        let mut rng = Fortuna::from_seed(b"rng");
        let a1 = EphemeralKeyPair::generate(&mut rng);
        let a2 = EphemeralKeyPair::generate(&mut rng);
        let v = EphemeralKeyPair::generate(&mut rng);
        let s1 = a1.diffie_hellman(&v.public_bytes()).unwrap();
        let s2 = a2.diffie_hellman(&v.public_bytes()).unwrap();
        assert_ne!(s1, s2);
    }

    #[test]
    fn invalid_peer_rejected() {
        let mut rng = Fortuna::from_seed(b"rng");
        let a = EphemeralKeyPair::generate(&mut rng);
        let garbage = [0x42u8; 64];
        assert_eq!(a.diffie_hellman(&garbage), Err(CryptoError::InvalidPoint));
    }

    #[test]
    fn public_keys_differ_between_pairs() {
        let mut rng = Fortuna::from_seed(b"rng");
        let a = EphemeralKeyPair::generate(&mut rng);
        let b = EphemeralKeyPair::generate(&mut rng);
        assert_ne!(a.public_bytes().to_vec(), b.public_bytes().to_vec());
    }
}
