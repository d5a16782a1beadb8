//! Byte-level wire format of the four protocol messages.
//!
//! Fixed layouts with a one-byte tag, so a corrupted or reordered message
//! is caught at parse time rather than by cryptography alone.
//!
//! # `msg3` is a sequence of records
//!
//! The secret blob travels as one or more `msg3` frames, each an ordinary
//! AES-GCM message under `Ke` with its own tag:
//!
//! ```text
//! frame := TAG_MSG3 | iv (12) | tag (16) | ciphertext
//! iv    := flag (1) | 0 0 0 | counter (8, big-endian)
//! ```
//!
//! `counter` is the record's place in the session (1, 2, 3, ...) and `flag`
//! is 1 on the final record and 0 on every other. How the blob is cut is the
//! sender's choice: a verifier that hands messages over by hand
//! (`Verifier::handle_msg2`) sends it whole as record 1 with the flag set,
//! one that owns a connection (`Verifier::release`) cuts it every
//! [`MSG3_RECORD_LEN`] bytes so that it seals record *k + 1* while record
//! *k* is in flight and the attester opens record *k − 1*. An empty blob is
//! one empty final record.
//!
//! The attester (`Attester::handle_msg3`, `Attester::receive_blob`) keeps
//! the counter it expects next. **Before the tag**, touching no ciphertext:
//! the IV must be exactly that counter with the flag byte 0 or 1 and the
//! three bytes between zero. **Then** the tag is verified over the whole
//! ciphertext, and only then is the record decrypted. A final record ends
//! the session, any other advances the counter, and the blob is handed on
//! (to the caller, to the guest) only when the final record has verified.
//!
//! The nonce is an input to the tag, so a record is authentic only at its
//! own place with its own flag. Someone who owns the wire can therefore
//! only make the session fail: a record moved, repeated or taken from
//! another place carries a counter the attester does not expect; one
//! dropped makes its successor unexpected; a final flag set early or
//! cleared late changes the nonce under a tag that no longer verifies, so
//! the blob can be neither cut short nor continued; a record of another
//! session was sealed under another `Ke`; and after the final record
//! nothing more is read. Every failure — these, a transport error, a
//! verdict marker, a frame that does not parse — ends the session for good
//! and discards the records opened so far: there is no resynchronisation,
//! and a fresh attestation is the only retry. (The construction is STREAM,
//! Hoang et al., CRYPTO 2015, with the segment counter and last-segment bit
//! in the nonce.)

use crate::evidence::{Evidence, EVIDENCE_LEN};
use crate::RaError;

const TAG_MSG0: u8 = 0xa0;
const TAG_MSG1: u8 = 0xa1;
const TAG_MSG2: u8 = 0xa2;
const TAG_MSG3: u8 = 0xa3;

/// Single-byte marker a verifier service sends instead of `msg1`/`msg3`
/// when a session fails (malformed message or failed appraisal), so
/// attesters fail fast instead of timing out. Deliberately not a valid
/// message tag.
pub const APPRAISAL_FAILED: &[u8] = &[0xEE];

/// Single-byte marker an overloaded verifier service sends instead of
/// accepting a session: the connection was shed by admission control and
/// the attester should back off and retry. Deliberately not a valid
/// message tag, and distinct from [`APPRAISAL_FAILED`] because shedding
/// is retryable while a failed appraisal is terminal.
pub const SERVER_BUSY: &[u8] = &[0xEB];

/// Single-byte marker a verifier service sends when a session failed for a
/// **tamper-evident** reason — an unparseable frame, a bad MAC or
/// signature, an off-curve session key, a session/anchor mismatch. From
/// the verifier's seat this is indistinguishable from in-flight
/// corruption, so unlike [`APPRAISAL_FAILED`] (an authoritative verdict on
/// well-formed evidence: unknown device, untrusted measurement, stale
/// version) it is **retryable**: an honest supplicant whose frames were
/// corrupted succeeds on a fresh handshake, while a hostile one merely
/// exhausts its own retry budget.
pub const INTEGRITY_FAILED: &[u8] = &[0xEC];

/// `msg0`: the attester's ephemeral public session key `Ga`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg0 {
    /// Attester public session key (x || y).
    pub ga: [u8; 64],
    /// How many earlier attempts this supplicant abandoned before this
    /// one (0 = first try). Diagnostic only — not covered by any MAC, so
    /// the verifier treats it as a hint (`retries_observed`), never as
    /// an input to appraisal.
    pub attempt: u8,
}

impl Msg0 {
    /// Serializes the message.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(66);
        out.push(TAG_MSG0);
        out.extend_from_slice(&self.ga);
        out.push(self.attempt);
        out
    }

    /// Parses the message. The 65-byte pre-retry layout (no attempt
    /// counter) is still accepted and reads as attempt 0.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::Malformed`] for wrong tag or length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RaError> {
        if !(bytes.len() == 65 || bytes.len() == 66) || bytes[0] != TAG_MSG0 {
            return Err(RaError::Malformed("msg0"));
        }
        let mut ga = [0u8; 64];
        ga.copy_from_slice(&bytes[1..65]);
        let attempt = if bytes.len() == 66 { bytes[65] } else { 0 };
        Ok(Msg0 { ga, attempt })
    }
}

/// `msg1`: verifier session key, identity and signature, MAC'd under `Km`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg1 {
    /// Verifier public session key `Gv`.
    pub gv: [u8; 64],
    /// Verifier identity key `V` (ECDSA public).
    pub verifier_id: [u8; 64],
    /// `SIGN_V(Gv || Ga)`.
    pub signature: [u8; 64],
    /// `MAC_Km(content1)`.
    pub mac: [u8; 16],
}

impl Msg1 {
    /// The MAC'd content (`content1` in Table II).
    #[must_use]
    pub fn content(&self) -> Vec<u8> {
        let mut c = Vec::with_capacity(192);
        c.extend_from_slice(&self.gv);
        c.extend_from_slice(&self.verifier_id);
        c.extend_from_slice(&self.signature);
        c
    }

    /// Serializes the message.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 192 + 16);
        out.push(TAG_MSG1);
        out.extend_from_slice(&self.content());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses the message.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::Malformed`] for wrong tag or length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RaError> {
        if bytes.len() != 1 + 192 + 16 || bytes[0] != TAG_MSG1 {
            return Err(RaError::Malformed("msg1"));
        }
        let mut gv = [0u8; 64];
        let mut verifier_id = [0u8; 64];
        let mut signature = [0u8; 64];
        let mut mac = [0u8; 16];
        gv.copy_from_slice(&bytes[1..65]);
        verifier_id.copy_from_slice(&bytes[65..129]);
        signature.copy_from_slice(&bytes[129..193]);
        mac.copy_from_slice(&bytes[193..209]);
        Ok(Msg1 {
            gv,
            verifier_id,
            signature,
            mac,
        })
    }
}

/// `msg2`: the attester echoes `Ga` and presents signed evidence, MAC'd
/// under `Km`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg2 {
    /// Attester public session key, echoed from `msg0`.
    pub ga: [u8; 64],
    /// The signed evidence.
    pub evidence: Evidence,
    /// `MAC_Km(content2)`.
    pub mac: [u8; 16],
}

impl Msg2 {
    /// The MAC'd content (`content2` in Table II). The evidence signature
    /// (`SIGN_A(evidence)`) is embedded in the evidence structure.
    #[must_use]
    pub fn content(&self) -> Vec<u8> {
        let mut c = Vec::with_capacity(64 + EVIDENCE_LEN);
        c.extend_from_slice(&self.ga);
        c.extend_from_slice(&self.evidence.to_bytes());
        c
    }

    /// Serializes the message.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 64 + EVIDENCE_LEN + 16);
        out.push(TAG_MSG2);
        out.extend_from_slice(&self.content());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses the message.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::Malformed`] for wrong tag or length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RaError> {
        let expect = 1 + 64 + EVIDENCE_LEN + 16;
        if bytes.len() != expect || bytes[0] != TAG_MSG2 {
            return Err(RaError::Malformed("msg2"));
        }
        let mut ga = [0u8; 64];
        ga.copy_from_slice(&bytes[1..65]);
        let evidence = Evidence::from_bytes(&bytes[65..65 + EVIDENCE_LEN])?;
        let mut mac = [0u8; 16];
        mac.copy_from_slice(&bytes[65 + EVIDENCE_LEN..]);
        Ok(Msg2 { ga, evidence, mac })
    }
}

/// Plaintext bytes per `msg3` record when a verifier releases a blob as a
/// record sequence (see the module documentation). A constant, not a knob:
/// swept at 32 / 64 / 128 / 256 KiB on the 2 MiB `blob_provision` session,
/// 64 KiB was best or tied; 256 KiB loses about a tenth to the first and
/// last record, which nothing overlaps. Never below 64 KiB, so a 64 KiB
/// secret stays one frame.
pub const MSG3_RECORD_LEN: usize = 64 * 1024;

/// Bytes of a `msg3` frame in front of the ciphertext: tag byte, IV, GCM tag.
pub const MSG3_HEADER_LEN: usize = 1 + 12 + 16;

/// The AES-GCM nonce of record `counter` (1, 2, 3, ... within a session):
/// the final flag in byte 0, the counter big-endian in bytes 4..12.
#[must_use]
pub fn msg3_iv(counter: u64, last: bool) -> [u8; 12] {
    let mut iv = [0u8; 12];
    iv[0] = u8::from(last);
    iv[4..].copy_from_slice(&counter.to_be_bytes());
    iv
}

/// `msg3`: one record of the confidential payload (secret blob), AES-GCM
/// encrypted under `Ke`. Held as the frame it travels in
/// (`TAG_MSG3 | iv | tag | ciphertext`), so sealing writes the wire bytes,
/// [`Msg3::into_bytes`] and [`Msg3::from_vec`] move them, and opening
/// decrypts them where they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg3 {
    /// At least [`MSG3_HEADER_LEN`] bytes, the first of them `TAG_MSG3`.
    frame: Vec<u8>,
}

impl Msg3 {
    /// Assembles a message from its parts (one copy of `ciphertext`).
    #[must_use]
    pub fn new(iv: [u8; 12], tag: [u8; 16], ciphertext: &[u8]) -> Self {
        let mut frame = Vec::with_capacity(MSG3_HEADER_LEN + ciphertext.len());
        frame.push(TAG_MSG3);
        frame.extend_from_slice(&iv);
        frame.extend_from_slice(&tag);
        frame.extend_from_slice(ciphertext);
        Msg3 { frame }
    }

    /// The AES-GCM initialisation vector ([`msg3_iv`]).
    #[must_use]
    pub fn iv(&self) -> [u8; 12] {
        self.frame[1..13].try_into().expect("12 bytes")
    }

    /// The AES-GCM authentication tag.
    #[must_use]
    pub fn tag(&self) -> [u8; 16] {
        self.frame[13..MSG3_HEADER_LEN]
            .try_into()
            .expect("16 bytes")
    }

    pub(crate) fn set_tag(&mut self, tag: [u8; 16]) {
        self.frame[13..MSG3_HEADER_LEN].copy_from_slice(&tag);
    }

    /// Ciphertext of this record of the secret blob.
    #[must_use]
    pub fn ciphertext(&self) -> &[u8] {
        &self.frame[MSG3_HEADER_LEN..]
    }

    /// The ciphertext, writable: sealed and opened in place.
    pub fn ciphertext_mut(&mut self) -> &mut [u8] {
        &mut self.frame[MSG3_HEADER_LEN..]
    }

    /// Serializes the message (a copy; [`Msg3::into_bytes`] moves).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.frame.clone()
    }

    /// The message as its wire frame, without a copy.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.frame
    }

    /// Parses the message (a copy; [`Msg3::from_vec`] moves).
    ///
    /// # Errors
    ///
    /// Returns [`RaError::Malformed`] for wrong tag or truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RaError> {
        Self::from_vec(bytes.to_vec())
    }

    /// Parses a frame the caller owns, keeping its allocation.
    ///
    /// # Errors
    ///
    /// As [`Msg3::from_bytes`].
    pub fn from_vec(frame: Vec<u8>) -> Result<Self, RaError> {
        if frame.len() < MSG3_HEADER_LEN || frame[0] != TAG_MSG3 {
            return Err(RaError::Malformed("msg3"));
        }
        Ok(Msg3 { frame })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg0_roundtrip() {
        let m = Msg0 {
            ga: [7; 64],
            attempt: 3,
        };
        assert_eq!(Msg0::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn msg0_legacy_65_byte_layout_reads_as_attempt_zero() {
        let m = Msg0 {
            ga: [9; 64],
            attempt: 5,
        };
        let legacy = &m.to_bytes()[..65];
        let parsed = Msg0::from_bytes(legacy).unwrap();
        assert_eq!(parsed.ga, m.ga);
        assert_eq!(parsed.attempt, 0);
        // But anything longer than the attempt byte is rejected.
        let mut oversized = m.to_bytes();
        oversized.push(0);
        assert!(Msg0::from_bytes(&oversized).is_err());
    }

    #[test]
    fn busy_and_failure_markers_are_not_valid_messages() {
        for marker in [APPRAISAL_FAILED, SERVER_BUSY, INTEGRITY_FAILED] {
            assert!(Msg0::from_bytes(marker).is_err());
            assert!(Msg1::from_bytes(marker).is_err());
            assert!(Msg2::from_bytes(marker).is_err());
            assert!(Msg3::from_bytes(marker).is_err());
        }
        assert_ne!(APPRAISAL_FAILED, SERVER_BUSY);
        assert_ne!(APPRAISAL_FAILED, INTEGRITY_FAILED);
        assert_ne!(SERVER_BUSY, INTEGRITY_FAILED);
    }

    #[test]
    fn msg1_roundtrip() {
        let m = Msg1 {
            gv: [1; 64],
            verifier_id: [2; 64],
            signature: [3; 64],
            mac: [4; 16],
        };
        assert_eq!(Msg1::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn msg2_roundtrip() {
        let m = Msg2 {
            ga: [1; 64],
            evidence: Evidence {
                anchor: [2; 32],
                version: 3,
                claim: [4; 32],
                attestation_pubkey: [5; 64],
                signature: [6; 64],
            },
            mac: [7; 16],
        };
        assert_eq!(Msg2::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn msg3_roundtrip() {
        let m = Msg3::new([1; 12], [2; 16], &[1, 2, 3, 4, 5]);
        assert_eq!(Msg3::from_bytes(&m.to_bytes()).unwrap(), m);
        assert_eq!(Msg3::from_vec(m.clone().into_bytes()).unwrap(), m);
        assert_eq!((m.iv(), m.tag()), ([1; 12], [2; 16]));
        assert_eq!(m.ciphertext(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn msg3_empty_payload() {
        let m = Msg3::new([0; 12], [0; 16], &[]);
        assert_eq!(m.to_bytes().len(), MSG3_HEADER_LEN);
        assert_eq!(Msg3::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn wrong_tags_rejected() {
        let m0 = Msg0 {
            ga: [7; 64],
            attempt: 0,
        };
        let mut bytes = m0.to_bytes();
        bytes[0] = 0xff;
        assert!(Msg0::from_bytes(&bytes).is_err());
        // A msg0 cannot parse as msg1.
        assert!(Msg1::from_bytes(&m0.to_bytes()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let m = Msg2 {
            ga: [1; 64],
            evidence: Evidence {
                anchor: [0; 32],
                version: 0,
                claim: [0; 32],
                attestation_pubkey: [0; 64],
                signature: [0; 64],
            },
            mac: [0; 16],
        };
        let bytes = m.to_bytes();
        assert!(Msg2::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
