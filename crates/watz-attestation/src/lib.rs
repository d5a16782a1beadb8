//! Remote attestation for WaTZ: evidence, the kernel attestation service,
//! and the four-message protocol of Table II.
//!
//! The protocol is the paper's adaptation of Intel SGX's remote attestation
//! (itself derived from SIGMA), with the SGX specifics removed:
//!
//! ```text
//! msg0 := Ga
//! msg1 := content1 || MAC_Km(content1)
//!         content1 := Gv || V || SIGN_V(Gv || Ga)
//! msg2 := content2 || MAC_Km(content2)
//!         content2 := Ga || evidence || SIGN_A(evidence)
//!         evidence := (anchor || A || ...)   anchor := HASH(Ga || Gv)
//! msg3 := iv || AES-GCM_Ke(data)      one record; the blob is one or more,
//!         iv := final? || record no.   see [`wire`]
//! ```
//!
//! Security requirements reproduced (§IV): mutual key establishment
//! (ECDHE), mutual entity authentication (pinned verifier key + endorsed
//! device key), half trust assurance, freshness and forward secrecy
//! (ephemeral session keys).
//!
//! The module split mirrors the system: [`service`] is the OP-TEE kernel
//! module holding the device attestation key; [`attester`] and [`verifier`]
//! are the two protocol roles; [`wire`] is the byte-level message format;
//! [`evidence`] the signed claim structure.
//!
//! # Example: a full co-located attestation session
//!
//! ```
//! use tz_hal::{Platform, PlatformConfig};
//! use optee_sim::TrustedOs;
//! use watz_attestation::{service::AttestationService, attester::Attester,
//!                        verifier::{Verifier, VerifierConfig}};
//! use watz_crypto::{fortuna::Fortuna, sha256::Sha256, ecdsa::SigningKey};
//!
//! // Device side.
//! let platform = Platform::new(PlatformConfig::default());
//! tz_hal::boot::install_genuine_chain(&platform).unwrap();
//! let os = TrustedOs::boot(platform).unwrap();
//! let service = AttestationService::install(&os);
//! let measurement = Sha256::digest(b"wasm app bytecode");
//!
//! // Verifier side.
//! let mut rng = Fortuna::from_seed(b"verifier rng");
//! let identity = SigningKey::generate(&mut rng);
//! let config = VerifierConfig::new(identity)
//!     .endorse_device(service.public_key())
//!     .trust_measurement(measurement)
//!     .with_secret(b"the secret blob".to_vec());
//! let verifier_pub = config.identity_public_key();
//!
//! // Run the handshake.
//! let mut att_rng = Fortuna::from_seed(b"attester session");
//! let mut ver_rng = Fortuna::from_seed(b"verifier session");
//! let (mut attester, msg0) = Attester::start(&mut att_rng);
//! let mut verifier = Verifier::new(config);
//! let (msg1, _t) = verifier.handle_msg0(&msg0, &mut ver_rng).unwrap();
//! let (msg2, _t) = attester.attest(&msg1, &verifier_pub, &service, &measurement).unwrap();
//! let (msg3, _t) = verifier.handle_msg2(&msg2).unwrap();
//! let (secret, _t) = attester.handle_msg3(&msg3).unwrap();
//! assert_eq!(secret, b"the secret blob");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attester;
pub mod evidence;
pub mod service;
pub mod verifier;
pub mod wire;

use std::time::Duration;

/// The protocol/runtime version embedded in evidence; the relying party
/// uses it "to exclude outdated systems" (§IV).
pub const WATZ_VERSION: u32 = 1;

/// Attestation protocol failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaError {
    /// A message failed to parse.
    Malformed(&'static str),
    /// A MAC did not verify.
    BadMac,
    /// A digital signature did not verify.
    BadSignature,
    /// The verifier's public key does not match the one pinned in the app.
    VerifierKeyMismatch,
    /// The session public key in `msg2` does not match `msg0` (replay or
    /// masquerading).
    SessionKeyMismatch,
    /// The evidence anchor does not bind this session's keys.
    AnchorMismatch,
    /// The device's attestation key is not in the endorsement list.
    UnknownDevice,
    /// The code measurement matches no reference value.
    UnknownMeasurement,
    /// The attester's WaTZ version is older than the verifier accepts.
    OutdatedVersion {
        /// Version reported in the evidence.
        reported: u32,
        /// Minimum accepted version.
        minimum: u32,
    },
    /// An elliptic-curve operation rejected a point or scalar.
    Crypto(watz_crypto::CryptoError),
    /// The protocol step was invoked in the wrong state.
    BadState(&'static str),
    /// AEAD decryption of the secret blob failed.
    DecryptFailed,
}

impl std::fmt::Display for RaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaError::Malformed(what) => write!(f, "malformed message: {what}"),
            RaError::BadMac => write!(f, "message authentication code mismatch"),
            RaError::BadSignature => write!(f, "signature verification failed"),
            RaError::VerifierKeyMismatch => {
                write!(f, "verifier key does not match the pinned key")
            }
            RaError::SessionKeyMismatch => write!(f, "session key mismatch (possible replay)"),
            RaError::AnchorMismatch => write!(f, "evidence anchor does not bind this session"),
            RaError::UnknownDevice => write!(f, "device not endorsed"),
            RaError::UnknownMeasurement => write!(f, "code measurement not recognised"),
            RaError::OutdatedVersion { reported, minimum } => {
                write!(f, "WaTZ version {reported} below minimum {minimum}")
            }
            RaError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            RaError::BadState(step) => write!(f, "protocol step out of order: {step}"),
            RaError::DecryptFailed => write!(f, "secret blob decryption failed"),
        }
    }
}

impl std::error::Error for RaError {}

impl From<watz_crypto::CryptoError> for RaError {
    fn from(e: watz_crypto::CryptoError) -> Self {
        RaError::Crypto(e)
    }
}

/// Per-step cost breakdown, mirroring the rows of Table III
/// (memory management / key generation / symmetric / asymmetric crypto).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepTimings {
    /// Buffer handling and message (de)serialization.
    pub memory: Duration,
    /// ECDHE key-pair generation and shared-secret derivation.
    pub key_generation: Duration,
    /// MACs, KDF and AES-GCM work.
    pub symmetric: Duration,
    /// ECDSA signing / verification.
    pub asymmetric: Duration,
}

impl StepTimings {
    /// Total time across all categories.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.memory + self.key_generation + self.symmetric + self.asymmetric
    }
}

/// Times an expression, adding the elapsed time to `$field`.
#[macro_export]
macro_rules! timed {
    ($timings:expr, $field:ident, $e:expr) => {{
        let __start = std::time::Instant::now();
        let __result = $e;
        $timings.$field += __start.elapsed();
        __result
    }};
}
