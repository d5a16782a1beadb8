//! Signed trusted applications.
//!
//! OP-TEE only executes TAs signed with the vendor key. The paper argues
//! (§II, §VII) that sharing this signing key with third parties is dangerous
//! (impersonation of deployed TAs, storage theft via UUID reuse) — which is
//! precisely why WaTZ instead loads *unsigned Wasm applications* into one
//! signed runtime TA and relies on the sandbox + measurement for safety.

use watz_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;

/// TA verification errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaError {
    /// The signature over the TA image does not verify.
    BadSignature {
        /// The TA's UUID.
        uuid: String,
    },
}

impl std::fmt::Display for TaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaError::BadSignature { uuid } => {
                write!(f, "TA {uuid} signature verification failed")
            }
        }
    }
}

impl std::error::Error for TaError {}

/// A signed TA image, as shipped to the device.
#[derive(Debug, Clone)]
pub struct SignedTa {
    /// The TA's UUID (names its persistent storage, among other things).
    pub uuid: String,
    /// The executable image.
    pub image: Vec<u8>,
    /// Vendor signature over `SHA-256(uuid || image)`.
    pub signature: [u8; 64],
}

/// A TA that passed signature verification.
#[derive(Debug, Clone)]
pub struct LoadedTa {
    /// The TA's UUID.
    pub uuid: String,
    /// The verified image.
    pub image: Vec<u8>,
}

/// The OS vendor's TA signing authority.
pub struct TaAuthority {
    key: SigningKey,
}

impl std::fmt::Debug for TaAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaAuthority {{ .. }}")
    }
}

impl TaAuthority {
    /// Creates an authority with a key derived from `seed`.
    #[must_use]
    pub fn new(seed: &[u8]) -> Self {
        let mut rng = Fortuna::from_seed(seed);
        TaAuthority {
            key: SigningKey::generate(&mut rng),
        }
    }

    /// Signs a TA image (vendor-side operation).
    #[must_use]
    pub fn sign(&self, uuid: &str, image: &[u8]) -> SignedTa {
        let digest = Self::digest(uuid, image);
        SignedTa {
            uuid: uuid.to_string(),
            image: image.to_vec(),
            signature: self.key.sign(&digest).to_bytes(),
        }
    }

    /// Verifies a signed TA (device-side, at load).
    ///
    /// # Errors
    ///
    /// Returns [`TaError::BadSignature`] on any mismatch.
    pub fn verify(&self, ta: &SignedTa) -> Result<LoadedTa, TaError> {
        let digest = Self::digest(&ta.uuid, &ta.image);
        let sig = Signature::from_bytes(&ta.signature).map_err(|_| TaError::BadSignature {
            uuid: ta.uuid.clone(),
        })?;
        if !self.verifying_key().verify(&digest, &sig) {
            return Err(TaError::BadSignature {
                uuid: ta.uuid.clone(),
            });
        }
        Ok(LoadedTa {
            uuid: ta.uuid.clone(),
            image: ta.image.clone(),
        })
    }

    /// The vendor's public key.
    #[must_use]
    pub fn verifying_key(&self) -> &VerifyingKey {
        self.key.verifying_key()
    }

    fn digest(uuid: &str, image: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(uuid.as_bytes());
        h.update(image);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_ta_verifies() {
        let authority = TaAuthority::new(b"vendor");
        let ta = authority.sign("watz-runtime", b"runtime image");
        let loaded = authority.verify(&ta).unwrap();
        assert_eq!(loaded.uuid, "watz-runtime");
    }

    #[test]
    fn tampered_image_rejected() {
        let authority = TaAuthority::new(b"vendor");
        let mut ta = authority.sign("watz-runtime", b"runtime image");
        ta.image.push(0x90);
        assert!(authority.verify(&ta).is_err());
    }

    #[test]
    fn uuid_swap_rejected() {
        // Reusing another TA's UUID (the impersonation attack the paper
        // cites) fails because the UUID is covered by the signature.
        let authority = TaAuthority::new(b"vendor");
        let mut ta = authority.sign("honest-ta", b"image");
        ta.uuid = "victim-ta".into();
        assert!(authority.verify(&ta).is_err());
    }

    #[test]
    fn foreign_authority_rejected() {
        let vendor = TaAuthority::new(b"vendor");
        let attacker = TaAuthority::new(b"attacker");
        let ta = attacker.sign("evil", b"image");
        assert!(vendor.verify(&ta).is_err());
    }
}
