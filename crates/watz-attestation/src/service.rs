//! The attestation service: an OP-TEE kernel module guarding the device
//! attestation key (§V, "The attestation service").
//!
//! "It plays a critical role in WaTZ as it has access to the private
//! attestation key. \[Its location\] in the kernel space of OP-TEE prevents
//! the key materials from being exposed to the TAs in the user space."
//! User space (the WaTZ runtime TA) submits claims and receives signed
//! evidence; the private key never crosses the boundary.
//!
//! Being the device's one long-lived attestation object, the service also
//! keeps the comb table of the verifier identity its apps pin (public
//! data), so that every session after a device's first with a verifier
//! checks that verifier's `msg1` signature at comb speed.

use std::sync::{Arc, Mutex, PoisonError};

use optee_sim::TrustedOs;
use watz_crypto::ecdsa::{SigningKey, VerifyingKey};
use watz_crypto::fortuna::Fortuna;
use watz_crypto::p256::CombTable;

use crate::evidence::Evidence;
use crate::WATZ_VERSION;

/// The kernel attestation service.
pub struct AttestationService {
    key: SigningKey,
    version: u32,
    /// The comb table of the last pinned verifier key a session checked
    /// (960 B), replaced when a session pins another. Every caller pins one
    /// verifier; a device alternating between two loses nothing against the
    /// windowed check, since a build plus a comb verify costs about one
    /// windowed verify.
    pinned: Mutex<Option<(VerifyingKey, Arc<CombTable>)>>,
}

impl std::fmt::Debug for AttestationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttestationService {{ version: {} }}", self.version)
    }
}

impl AttestationService {
    /// Installs the service into a booted trusted OS.
    ///
    /// The attestation key pair is generated **deterministically** from the
    /// hardware root of trust: MKVB → `huk_subkey_derive` → Fortuna seed →
    /// ECDSA key generation (§V). Reinstalling on the same device (or after
    /// a reboot) therefore yields the same key pair, and OS updates do not
    /// lose the key material.
    #[must_use]
    pub fn install(os: &TrustedOs) -> Self {
        let mut prng = os.with_kernel_seed(|seed| Fortuna::from_seed(seed));
        let key = SigningKey::generate(&mut prng);
        AttestationService {
            key,
            version: WATZ_VERSION,
            pinned: Mutex::default(),
        }
    }

    /// Installs a service reporting a custom version (for testing version
    /// gating on the verifier).
    #[must_use]
    pub fn install_with_version(os: &TrustedOs, version: u32) -> Self {
        let mut svc = Self::install(os);
        svc.version = version;
        svc
    }

    /// The device's public attestation key — the **endorsement value**
    /// registered with verifiers.
    #[must_use]
    pub fn public_key(&self) -> [u8; 64] {
        self.key.verifying_key().to_bytes()
    }

    /// The version this runtime reports in evidence.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Issues signed evidence for a claim bound to a session anchor.
    ///
    /// Called by the WaTZ runtime on behalf of a hosted Wasm application
    /// (via `wasi_ra_collect_quote`); the claim is the runtime-computed
    /// SHA-256 of the application's bytecode.
    #[must_use]
    pub fn issue_evidence(&self, anchor: [u8; 32], claim: [u8; 32]) -> Evidence {
        let attestation_pubkey = self.public_key();
        let digest =
            crate::evidence::signed_digest(&anchor, self.version, &claim, &attestation_pubkey);
        // RFC 6979 deterministic signing: no RNG dependency in the kernel
        // hot path (the real service draws from the CAAM).
        let signature = self.key.sign_deterministic(&digest).to_bytes();
        Evidence {
            anchor,
            version: self.version,
            claim,
            attestation_pubkey,
            signature,
        }
    }

    /// The comb table of a verifier key an app on this device pins: kept
    /// from the last session if that pinned the same key, else built now
    /// and kept instead. Callers pass the key only once `msg1` has named
    /// exactly the pinned bytes and they have parsed (range and on-curve
    /// checks): see [`crate::attester::Attester::handle_msg1_with`].
    pub(crate) fn pinned_comb(&self, key: &VerifyingKey) -> Arc<CombTable> {
        // The slot is only ever empty or whole, so a guard poisoned by a
        // panicking holder is safe to take back.
        let mut pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        match &*pinned {
            Some((k, comb)) if k == key => Arc::clone(comb),
            _ => {
                let comb = Arc::new(key.comb_table());
                *pinned = Some((*key, Arc::clone(&comb)));
                comb
            }
        }
    }

    /// The pinned key holding the comb, if any.
    #[cfg(test)]
    pub(crate) fn pinned_key(&self) -> Option<[u8; 64]> {
        let pinned = self.pinned.lock().unwrap_or_else(PoisonError::into_inner);
        pinned.as_ref().map(|(k, _)| k.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tz_hal::{Platform, PlatformConfig};

    fn os_for(device: &[u8]) -> TrustedOs {
        let platform = Platform::new(PlatformConfig {
            device_seed: device.to_vec(),
            ..PlatformConfig::default()
        });
        tz_hal::boot::install_genuine_chain(&platform).unwrap();
        TrustedOs::boot(platform).unwrap()
    }

    #[test]
    fn key_is_deterministic_per_device() {
        let a1 = AttestationService::install(&os_for(b"device-a"));
        let a2 = AttestationService::install(&os_for(b"device-a"));
        let b = AttestationService::install(&os_for(b"device-b"));
        assert_eq!(a1.public_key(), a2.public_key());
        assert_ne!(a1.public_key(), b.public_key());
    }

    #[test]
    fn evidence_verifies() {
        let svc = AttestationService::install(&os_for(b"device"));
        let ev = svc.issue_evidence([1; 32], [2; 32]);
        ev.verify_signature().unwrap();
        assert_eq!(ev.version, WATZ_VERSION);
        assert_eq!(ev.attestation_pubkey, svc.public_key());
    }

    #[test]
    fn tampered_evidence_rejected() {
        let svc = AttestationService::install(&os_for(b"device"));
        let mut ev = svc.issue_evidence([1; 32], [2; 32]);
        ev.claim[0] ^= 1;
        assert!(ev.verify_signature().is_err());
    }

    #[test]
    fn forged_key_substitution_rejected() {
        // An attacker replacing the embedded public key invalidates the
        // signature (and would fail endorsement anyway).
        let svc = AttestationService::install(&os_for(b"device"));
        let other = AttestationService::install(&os_for(b"other-device"));
        let mut ev = svc.issue_evidence([1; 32], [2; 32]);
        ev.attestation_pubkey = other.public_key();
        assert!(ev.verify_signature().is_err());
    }

    #[test]
    fn the_pinned_comb_is_kept_for_its_key_and_replaced_for_another() {
        let svc = AttestationService::install(&os_for(b"device"));
        let signers: Vec<SigningKey> = (0u8..2)
            .map(|i| SigningKey::generate(&mut Fortuna::from_seed(&[i])))
            .collect();
        let key = |i: usize| *signers[i].verifying_key();
        assert_eq!(svc.pinned_key(), None);
        let first = svc.pinned_comb(&key(0));
        assert_eq!(svc.pinned_key(), Some(key(0).to_bytes()));
        // The same key hands back the same table.
        assert!(Arc::ptr_eq(&first, &svc.pinned_comb(&key(0))));
        // Alternating keys replace the one table each time, and each
        // table verifies for its own key and for no other.
        let digest = [7u8; 32];
        for i in [1, 0, 1] {
            let comb = svc.pinned_comb(&key(i));
            assert_eq!(svc.pinned_key(), Some(key(i).to_bytes()));
            assert!(!Arc::ptr_eq(&first, &comb));
            let sig = signers[i].sign_deterministic(&digest);
            assert!(key(i).verify_with(&comb, &digest, &sig));
            assert!(!key(1 - i).verify_with(&comb, &digest, &sig));
        }
    }

    #[test]
    fn version_override() {
        let svc = AttestationService::install_with_version(&os_for(b"device"), 42);
        let ev = svc.issue_evidence([0; 32], [0; 32]);
        assert_eq!(ev.version, 42);
        ev.verify_signature().unwrap();
    }
}
