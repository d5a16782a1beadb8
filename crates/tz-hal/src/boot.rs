//! Secure boot: a ROM-rooted chain of signature-verified boot stages.
//!
//! §IV of the paper: "the first-stage bootloader (ROM) verifies if the
//! second-stage bootloader is genuine, based on the public key stored in
//! one-time programmable fuses. The previous booting component recursively
//! verifies the next boot stages until the secure world is fully booted."
//!
//! The evaluation board boots U-Boot + Arm Trusted Firmware + OP-TEE; our
//! genuine chain models the same three stages.

use watz_crypto::ecdsa::{Signature, SigningKey, VerifyingKey};
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;

use crate::efuse::EFuses;
use crate::Platform;

/// A signed boot-stage image.
#[derive(Debug, Clone)]
pub struct BootImage {
    /// Human-readable stage name (e.g. `"u-boot"`).
    pub name: String,
    /// The image payload (here: arbitrary bytes standing in for the binary).
    pub payload: Vec<u8>,
    /// ECDSA signature over `SHA-256(name || payload)` by the *previous*
    /// stage's signing key (the first image is signed by the OEM key whose
    /// hash is fused).
    pub signature: [u8; 64],
    /// The public key that will verify the *next* image, embedded in this
    /// image (and therefore covered by this image's signature).
    pub next_stage_key: Option<[u8; 64]>,
}

impl BootImage {
    /// Digest covered by the stage signature.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(self.name.as_bytes());
        h.update(&self.payload);
        if let Some(key) = &self.next_stage_key {
            h.update(key);
        }
        h.finalize()
    }
}

/// A complete boot chain: OEM root public key + ordered stages.
#[derive(Debug, Clone)]
pub struct BootChain {
    /// The OEM public key; its SHA-256 hash must match the eFuses.
    pub oem_public_key: [u8; 64],
    /// The boot stages, first to last (last = trusted OS).
    pub stages: Vec<BootImage>,
}

/// Why a boot chain failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// The eFuse bank holds no key hash (device not provisioned).
    DeviceNotProvisioned,
    /// The OEM key in the chain does not hash to the fused value.
    OemKeyMismatch,
    /// The named stage's signature failed to verify.
    BadSignature {
        /// Name of the offending stage.
        stage: String,
    },
    /// A stage needs a verification key that the previous stage did not embed.
    MissingStageKey {
        /// Name of the stage lacking a key.
        stage: String,
    },
    /// The chain is empty.
    EmptyChain,
    /// A key embedded in an image failed to parse.
    MalformedKey {
        /// Name of the stage carrying the bad key.
        stage: String,
    },
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::DeviceNotProvisioned => write!(f, "eFuses not provisioned"),
            BootError::OemKeyMismatch => write!(f, "OEM public key does not match fused hash"),
            BootError::BadSignature { stage } => write!(f, "stage '{stage}' signature invalid"),
            BootError::MissingStageKey { stage } => {
                write!(f, "no verification key available for stage '{stage}'")
            }
            BootError::EmptyChain => write!(f, "boot chain has no stages"),
            BootError::MalformedKey { stage } => {
                write!(f, "stage '{stage}' carries a malformed key")
            }
        }
    }
}

impl std::error::Error for BootError {}

/// Verifies a boot chain against the fused OEM key hash.
///
/// # Errors
///
/// Returns the first verification failure encountered, in boot order.
pub fn verify_chain(efuses: &EFuses, chain: &BootChain) -> Result<(), BootError> {
    let fused_hash = efuses
        .boot_pubkey_hash()
        .map_err(|_| BootError::DeviceNotProvisioned)?;
    if Sha256::digest(&chain.oem_public_key) != fused_hash {
        return Err(BootError::OemKeyMismatch);
    }
    if chain.stages.is_empty() {
        return Err(BootError::EmptyChain);
    }

    let mut verify_key_bytes = chain.oem_public_key;
    for (i, stage) in chain.stages.iter().enumerate() {
        let key =
            VerifyingKey::from_bytes(&verify_key_bytes).map_err(|_| BootError::MalformedKey {
                stage: stage.name.clone(),
            })?;
        let sig = Signature::from_bytes(&stage.signature).map_err(|_| BootError::BadSignature {
            stage: stage.name.clone(),
        })?;
        if !key.verify(&stage.digest(), &sig) {
            return Err(BootError::BadSignature {
                stage: stage.name.clone(),
            });
        }
        if i + 1 < chain.stages.len() {
            verify_key_bytes = stage
                .next_stage_key
                .ok_or_else(|| BootError::MissingStageKey {
                    stage: chain.stages[i + 1].name.clone(),
                })?;
        }
    }
    Ok(())
}

/// A signing authority used to *build* chains (OEM side, not on-device).
#[derive(Debug)]
struct ChainBuilder {
    oem_key: SigningKey,
    stage_keys: Vec<SigningKey>,
    stages: Vec<(String, Vec<u8>)>,
}

impl ChainBuilder {
    /// Creates a builder with a deterministic OEM key from `seed`.
    #[must_use]
    fn new(seed: &[u8]) -> Self {
        let mut rng = Fortuna::from_seed(seed);
        ChainBuilder {
            oem_key: SigningKey::generate(&mut rng),
            stage_keys: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// SHA-256 hash of the OEM public key, to be fused into the device.
    #[must_use]
    fn oem_key_hash(&self) -> [u8; 32] {
        Sha256::digest(&self.oem_key.verifying_key().to_bytes())
    }

    /// Appends a stage with the given name and payload.
    fn stage(&mut self, name: &str, payload: &[u8]) -> &mut Self {
        let mut rng = Fortuna::from_seed(format!("stage-key:{name}").as_bytes());
        self.stage_keys.push(SigningKey::generate(&mut rng));
        self.stages.push((name.to_string(), payload.to_vec()));
        self
    }

    /// Signs every stage and produces the final chain.
    #[must_use]
    fn build(&self) -> BootChain {
        let mut images = Vec::with_capacity(self.stages.len());
        for (i, (name, payload)) in self.stages.iter().enumerate() {
            let next_stage_key = if i + 1 < self.stages.len() {
                Some(self.stage_keys[i].verifying_key().to_bytes())
            } else {
                None
            };
            let mut image = BootImage {
                name: name.clone(),
                payload: payload.clone(),
                signature: [0; 64],
                next_stage_key,
            };
            let signer = if i == 0 {
                &self.oem_key
            } else {
                &self.stage_keys[i - 1]
            };
            image.signature = signer.sign(&image.digest()).to_bytes();
            images.push(image);
        }
        BootChain {
            oem_public_key: self.oem_key.verifying_key().to_bytes(),
            stages: images,
        }
    }
}

/// Provisions `platform` with a genuine three-stage chain and boots it.
///
/// Convenience used throughout the test suite and examples: fuses the OEM
/// key hash (if the bank is blank) and runs the boot sequence with a
/// U-Boot / ATF / OP-TEE-shaped chain.
///
/// # Errors
///
/// Propagates any [`BootError`] from the verification.
pub fn install_genuine_chain(platform: &Platform) -> Result<(), BootError> {
    let mut builder = ChainBuilder::new(b"oem-root-key");
    builder
        .stage("u-boot", b"second-stage bootloader image")
        .stage("arm-trusted-firmware", b"bl31 runtime firmware")
        .stage("op-tee", b"trusted os image");
    let chain = builder.build();
    platform.with_efuses(|fuses| {
        // Ignore AlreadyProgrammed: re-boots reuse the fused value.
        let _ = fuses.program_boot_pubkey_hash(builder.oem_key_hash());
    });
    platform.secure_boot(&chain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provisioned_fuses(builder: &ChainBuilder) -> EFuses {
        let mut fuses = EFuses::new();
        fuses
            .program_boot_pubkey_hash(builder.oem_key_hash())
            .unwrap();
        fuses
    }

    fn three_stage_builder() -> ChainBuilder {
        let mut b = ChainBuilder::new(b"test-oem");
        b.stage("u-boot", b"bl2")
            .stage("atf", b"bl31")
            .stage("op-tee", b"tee");
        b
    }

    #[test]
    fn genuine_chain_verifies() {
        let builder = three_stage_builder();
        let fuses = provisioned_fuses(&builder);
        verify_chain(&fuses, &builder.build()).unwrap();
    }

    #[test]
    fn tampered_payload_rejected() {
        let builder = three_stage_builder();
        let fuses = provisioned_fuses(&builder);
        let mut chain = builder.build();
        chain.stages[1].payload = b"malicious firmware".to_vec();
        assert_eq!(
            verify_chain(&fuses, &chain),
            Err(BootError::BadSignature {
                stage: "atf".into()
            })
        );
    }

    #[test]
    fn tampered_trusted_os_rejected() {
        let builder = three_stage_builder();
        let fuses = provisioned_fuses(&builder);
        let mut chain = builder.build();
        chain.stages[2].payload.push(0x90);
        assert!(matches!(
            verify_chain(&fuses, &chain),
            Err(BootError::BadSignature { .. })
        ));
    }

    #[test]
    fn swapped_oem_key_rejected() {
        let builder = three_stage_builder();
        let fuses = provisioned_fuses(&builder);
        let attacker = ChainBuilder::new(b"attacker-oem");
        let mut chain = builder.build();
        chain.oem_public_key = attacker.build().oem_public_key;
        assert_eq!(verify_chain(&fuses, &chain), Err(BootError::OemKeyMismatch));
    }

    #[test]
    fn attacker_cannot_rekey_next_stage() {
        // Attacker replaces stage 2 with their own image signed by their own
        // key and patches stage 1's embedded key — but stage 1's signature
        // covers the embedded key, so verification of stage 1 fails.
        let builder = three_stage_builder();
        let fuses = provisioned_fuses(&builder);
        let mut chain = builder.build();
        let mut rng = Fortuna::from_seed(b"attacker");
        let attacker_key = SigningKey::generate(&mut rng);
        chain.stages[0].next_stage_key = Some(attacker_key.verifying_key().to_bytes());
        let mut evil = BootImage {
            name: "atf".into(),
            payload: b"evil firmware".to_vec(),
            signature: [0; 64],
            next_stage_key: chain.stages[1].next_stage_key,
        };
        evil.signature = attacker_key.sign(&evil.digest()).to_bytes();
        chain.stages[1] = evil;
        assert!(matches!(
            verify_chain(&fuses, &chain),
            Err(BootError::BadSignature { stage }) if stage == "u-boot"
        ));
    }

    #[test]
    fn unprovisioned_device_rejected() {
        let builder = three_stage_builder();
        let fuses = EFuses::new();
        assert_eq!(
            verify_chain(&fuses, &builder.build()),
            Err(BootError::DeviceNotProvisioned)
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let builder = ChainBuilder::new(b"test-oem");
        let fuses = provisioned_fuses(&builder);
        assert_eq!(
            verify_chain(&fuses, &builder.build()),
            Err(BootError::EmptyChain)
        );
    }
}
