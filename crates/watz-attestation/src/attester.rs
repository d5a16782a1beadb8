//! The attester role (the WaTZ device side of the protocol), plus the
//! retrying network client ([`AttestClient`]) real supplicants use: a full
//! attestation attempt per try, capped exponential backoff with
//! deterministic jitter, and a typed taxonomy separating retryable
//! transport faults from terminal appraisal rejections.

use std::time::{Duration, Instant};

use optee_sim::net::{Connection, Network, RecvError, RECV_TIMEOUT};

use watz_crypto::cmac::AesCmac;
use watz_crypto::ecdh::EphemeralKeyPair;
use watz_crypto::ecdsa::{Signature, VerifyingKey};
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::kdf::{derive_session_keys, SessionKeys};
use watz_crypto::sha256::Sha256;

use crate::evidence::session_anchor;
use crate::service::AttestationService;
use crate::timed;
use crate::wire::{
    msg3_iv, Msg0, Msg1, Msg2, Msg3, APPRAISAL_FAILED, INTEGRITY_FAILED, SERVER_BUSY,
};
use crate::{RaError, StepTimings};

enum State {
    /// `msg0` sent, waiting for `msg1`.
    AwaitMsg1 { session: EphemeralKeyPair },
    /// Handshake done; session keys derived, anchor known. The hosted Wasm
    /// application may now collect a quote (`wasi_ra_collect_quote`).
    Handshaken { keys: SessionKeys, anchor: [u8; 32] },
    /// `msg2` sent, waiting for record `next` of the secret blob.
    AwaitMsg3 { keys: SessionKeys, next: u64 },
    /// Protocol completed.
    Done,
}

/// Attester state machine.
///
/// Freshness and forward secrecy come from the ephemeral session key pair
/// generated in [`Attester::start`]; a new `Attester` must be created for
/// every attestation attempt (§IV security requirements 4 and 5).
pub struct Attester {
    state: State,
    ga: [u8; 64],
}

impl std::fmt::Debug for Attester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.state {
            State::AwaitMsg1 { .. } => "await-msg1",
            State::Handshaken { .. } => "handshaken",
            State::AwaitMsg3 { .. } => "await-msg3",
            State::Done => "done",
        };
        write!(f, "Attester {{ state: {state} }}")
    }
}

impl Attester {
    /// Starts a session: generates the ephemeral key pair and produces
    /// `msg0`.
    #[must_use]
    pub fn start(rng: &mut Fortuna) -> (Self, Msg0) {
        let (attester, msg0, _) = Self::start_timed(rng);
        (attester, msg0)
    }

    /// [`Attester::start`] with the Table III cost breakdown.
    #[must_use]
    pub fn start_timed(rng: &mut Fortuna) -> (Self, Msg0, StepTimings) {
        let mut t = StepTimings::default();
        let session = timed!(t, key_generation, EphemeralKeyPair::generate(rng));
        let ga = timed!(t, memory, session.public_bytes());
        let msg0 = timed!(t, memory, Msg0 { ga, attempt: 0 });
        (
            Attester {
                state: State::AwaitMsg1 { session },
                ga,
            },
            msg0,
            t,
        )
    }

    /// The attester's public session key `Ga`.
    #[must_use]
    pub fn ga(&self) -> [u8; 64] {
        self.ga
    }

    /// Handles `msg1`: authenticates the verifier and derives the session
    /// keys, returning the session **anchor** (`HASH(Ga || Gv)`).
    ///
    /// `pinned_verifier_key` is the verifier identity hardcoded into the
    /// Wasm application (and therefore covered by the code measurement);
    /// a mismatch aborts the protocol (§IV requirement 2).
    ///
    /// This is the tail end of `wasi_ra_net_handshake`; the application then
    /// collects a quote for the anchor and sends it via
    /// [`Attester::build_msg2`]. The verifier's signature is checked with a
    /// 4-bit window; a device that will talk to the same verifier again
    /// uses [`Attester::handle_msg1_with`].
    ///
    /// # Errors
    ///
    /// Returns an [`RaError`] on any authentication failure; the attester
    /// is left unusable afterwards (fresh sessions need fresh attesters).
    pub fn handle_msg1(
        &mut self,
        msg1: &Msg1,
        pinned_verifier_key: &[u8; 64],
    ) -> Result<([u8; 32], StepTimings), RaError> {
        self.handshake(msg1, pinned_verifier_key, None)
    }

    /// [`Attester::handle_msg1`], checking the verifier's signature with
    /// the comb table `service` keeps for the pinned key (built by the
    /// first session with that verifier, or the first after a session
    /// pinned another; it about halves every later check). The same
    /// checks in the same order: the pinned key is
    /// matched before any cryptography, so a mismatch builds nothing.
    ///
    /// # Errors
    ///
    /// As [`Attester::handle_msg1`].
    pub fn handle_msg1_with(
        &mut self,
        msg1: &Msg1,
        pinned_verifier_key: &[u8; 64],
        service: &AttestationService,
    ) -> Result<([u8; 32], StepTimings), RaError> {
        self.handshake(msg1, pinned_verifier_key, Some(service))
    }

    fn handshake(
        &mut self,
        msg1: &Msg1,
        pinned_verifier_key: &[u8; 64],
        combs: Option<&AttestationService>,
    ) -> Result<([u8; 32], StepTimings), RaError> {
        let mut t = StepTimings::default();
        let State::AwaitMsg1 { session } = std::mem::replace(&mut self.state, State::Done) else {
            return Err(RaError::BadState("handle_msg1"));
        };

        // Pinned-identity check before any cryptography: the application
        // only ever talks to its intended service.
        if &msg1.verifier_id != pinned_verifier_key {
            return Err(RaError::VerifierKeyMismatch);
        }

        // ECDH + KDF (same derivations as Intel SGX).
        let shared = timed!(t, key_generation, session.diffie_hellman(&msg1.gv))?;
        let keys = timed!(t, symmetric, derive_session_keys(&shared));

        // MAC check over content1.
        let mac_ok = timed!(t, symmetric, {
            let cmac = AesCmac::new(&keys.km);
            watz_crypto::ct_eq(&cmac.mac(&msg1.content()), &msg1.mac)
        });
        if !mac_ok {
            return Err(RaError::BadMac);
        }

        // Verify SIGN_V(Gv || Ga): different session keys reveal a
        // masquerading or replay attack.
        let sig_ok = timed!(t, asymmetric, {
            let verifier_key = VerifyingKey::from_bytes(&msg1.verifier_id)?;
            let sig = Signature::from_bytes(&msg1.signature).map_err(|_| RaError::BadSignature)?;
            let mut h = Sha256::new();
            h.update(&msg1.gv);
            h.update(&self.ga);
            let digest = h.finalize();
            match combs {
                Some(service) => {
                    verifier_key.verify_with(&service.pinned_comb(&verifier_key), &digest, &sig)
                }
                None => verifier_key.verify(&digest, &sig),
            }
        });
        if !sig_ok {
            return Err(RaError::BadSignature);
        }

        // Evidence will be bound to this session via the anchor.
        let anchor = timed!(t, symmetric, session_anchor(&self.ga, &msg1.gv));
        self.state = State::Handshaken { keys, anchor };
        Ok((anchor, t))
    }

    /// The session anchor, available after a successful handshake.
    #[must_use]
    pub fn anchor(&self) -> Option<[u8; 32]> {
        match &self.state {
            State::Handshaken { anchor, .. } => Some(*anchor),
            _ => None,
        }
    }

    /// Collects a quote (evidence) from the attestation service for the
    /// current session anchor — `wasi_ra_collect_quote`.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::BadState`] before the handshake completed.
    pub fn collect_quote(
        &self,
        service: &AttestationService,
        measurement: &[u8; 32],
    ) -> Result<(crate::evidence::Evidence, StepTimings), RaError> {
        let mut t = StepTimings::default();
        let State::Handshaken { anchor, .. } = &self.state else {
            return Err(RaError::BadState("collect_quote"));
        };
        let evidence = timed!(t, asymmetric, service.issue_evidence(*anchor, *measurement));
        Ok((evidence, t))
    }

    /// Wraps evidence into the MAC'd `msg2` — `wasi_ra_net_send_quote`.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::BadState`] before the handshake completed.
    pub fn build_msg2(
        &mut self,
        evidence: crate::evidence::Evidence,
    ) -> Result<(Msg2, StepTimings), RaError> {
        let mut t = StepTimings::default();
        let State::Handshaken { keys, .. } = std::mem::replace(&mut self.state, State::Done) else {
            return Err(RaError::BadState("build_msg2"));
        };
        let msg2 = timed!(t, memory, {
            let mut msg2 = Msg2 {
                ga: self.ga,
                evidence,
                mac: [0; 16],
            };
            let content = msg2.content();
            msg2.mac = timed!(t, symmetric, AesCmac::new(&keys.km).mac(&content));
            msg2
        });
        self.state = State::AwaitMsg3 { keys, next: 1 };
        Ok((msg2, t))
    }

    /// Convenience: `handle_msg1_with` + `collect_quote` + `build_msg2` in
    /// one step, for callers that do not need the WASI-RA phase separation.
    ///
    /// # Errors
    ///
    /// Propagates any failure from the three steps.
    pub fn attest(
        &mut self,
        msg1: &Msg1,
        pinned_verifier_key: &[u8; 64],
        service: &AttestationService,
        measurement: &[u8; 32],
    ) -> Result<(Msg2, StepTimings), RaError> {
        let (_anchor, mut t) = self.handle_msg1_with(msg1, pinned_verifier_key, service)?;
        let (evidence, t2) = self.collect_quote(service, measurement)?;
        let (msg2, t3) = self.build_msg2(evidence)?;
        t.memory += t2.memory + t3.memory;
        t.key_generation += t2.key_generation + t3.key_generation;
        t.symmetric += t2.symmetric + t3.symmetric;
        t.asymmetric += t2.asymmetric + t3.asymmetric;
        Ok((msg2, t))
    }

    /// Handles one `msg3` record: checks its place, verifies, decrypts and
    /// returns its plaintext. [`Attester::is_done`] afterwards says whether
    /// it was the final record — of a blob released whole, the only one.
    ///
    /// # Errors
    ///
    /// Returns [`RaError::DecryptFailed`] if the record is not the next one
    /// of this session or its AEAD tag does not verify, or
    /// [`RaError::BadState`] out of order. Either ends the session.
    pub fn handle_msg3(&mut self, msg3: &Msg3) -> Result<(Vec<u8>, StepTimings), RaError> {
        let mut t = StepTimings::default();
        let mut record = msg3.ciphertext().to_vec();
        self.open_record(&msg3.iv(), &msg3.tag(), &mut record, &mut t)?;
        Ok((record, t))
    }

    /// Opens one record in place. The nonce must be exactly the expected
    /// counter with the final flag clear or set — checked before the
    /// ciphertext is touched — and the tag must verify before any plaintext
    /// exists. A final record completes the session, any other advances
    /// the counter, and every failure leaves the session [`State::Done`]:
    /// there is no resynchronisation.
    fn open_record(
        &mut self,
        iv: &[u8; 12],
        tag: &[u8; 16],
        data: &mut [u8],
        t: &mut StepTimings,
    ) -> Result<(), RaError> {
        let State::AwaitMsg3 { keys, next } = std::mem::replace(&mut self.state, State::Done)
        else {
            return Err(RaError::BadState("handle_msg3"));
        };
        let last = *iv == msg3_iv(next, true);
        if !last && *iv != msg3_iv(next, false) {
            return Err(RaError::DecryptFailed);
        }
        timed!(*t, symmetric, {
            AesGcm128::new(&keys.ke)
                .decrypt_in_place(iv, data, b"", tag)
                .map_err(|_| RaError::DecryptFailed)
        })?;
        if !last {
            self.state = State::AwaitMsg3 {
                keys,
                next: next + 1,
            };
        }
        Ok(())
    }

    /// Receives the secret blob off `conn`: records until the final one,
    /// each opened in the frame it arrived in while the verifier seals the
    /// next, concatenated only once verified. The whole secret or an error
    /// — a failure of any kind (transport, verdict marker, parse, record
    /// order, tag) ends the session and drops what had accumulated.
    ///
    /// # Errors
    ///
    /// A classified [`AttemptError`], as [`AttestClient::attempt`].
    pub fn receive_blob(
        &mut self,
        conn: &Connection,
        timeout: Duration,
    ) -> Result<Vec<u8>, AttemptError> {
        self.receive_records(conn, timeout, &mut FrameEcho::default())
    }

    fn receive_records(
        &mut self,
        conn: &Connection,
        timeout: Duration,
        echo: &mut FrameEcho,
    ) -> Result<Vec<u8>, AttemptError> {
        // Out of order: say so now rather than after waiting for a frame.
        if !matches!(self.state, State::AwaitMsg3 { .. }) {
            return Err(AttemptError::Fatal(RaError::BadState("receive_blob")));
        }
        let mut t = StepTimings::default();
        let mut blob = Vec::new();
        loop {
            let opened = recv_reply(conn, timeout, echo).and_then(|frame| {
                let mut msg3 = Msg3::from_vec(frame).map_err(AttemptError::Garbled)?;
                let (iv, tag) = (msg3.iv(), msg3.tag());
                self.open_record(&iv, &tag, msg3.ciphertext_mut(), &mut t)
                    .map_err(classify_protocol_error)?;
                Ok(msg3)
            });
            match opened {
                Ok(record) => blob.extend_from_slice(record.ciphertext()),
                Err(e) => {
                    // A later call must not resume mid-sequence and pass a
                    // suffix off as the blob.
                    self.state = State::Done;
                    return Err(e);
                }
            }
            if self.is_done() {
                return Ok(blob);
            }
        }
    }

    /// True once the protocol has completed (or aborted).
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }
}

// ---------------------------------------------------------------------------
// Retry policy and fault taxonomy
// ---------------------------------------------------------------------------

/// xorshift64 over a splitmix-stretched seed; the repo-standard
/// deterministic PRNG, used here for backoff jitter.
fn jitter_draw(seed: u64, attempt: u32) -> u64 {
    let mut z = seed
        .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut x = (z ^ (z >> 31)) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Why one attestation attempt failed. The taxonomy exists so the retry
/// driver (and fleet clients) can distinguish faults worth retrying —
/// transport losses, shedding, suspected in-flight corruption — from
/// verdicts that no amount of retrying will change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptError {
    /// `connect` failed: nothing is listening (or the listener is gone).
    Refused,
    /// A send failed mid-handshake: the peer hung up (or an injected
    /// disconnect killed the connection).
    SendFailed,
    /// The peer stayed connected but a reply never arrived in time.
    Timeout,
    /// The peer hung up while a reply was awaited.
    PeerClosed,
    /// The service shed this session ([`SERVER_BUSY`]): overloaded, not
    /// broken — back off and retry.
    Busy,
    /// A reply failed to parse or authenticate — indistinguishable, from
    /// the supplicant's seat, from in-flight corruption, so it is
    /// retryable (a genuinely hostile verifier just exhausts the budget).
    Garbled(RaError),
    /// The verifier answered [`INTEGRITY_FAILED`]: what *we* sent did not
    /// parse or authenticate over there. Retryable for the same reason as
    /// [`AttemptError::Garbled`] — in-flight corruption of an outgoing
    /// frame looks exactly like this.
    IntegrityRejected,
    /// The verifier answered [`APPRAISAL_FAILED`]: an authoritative
    /// rejection of this device's evidence. Terminal.
    Rejected,
    /// Local protocol misuse (e.g. state-machine order). Terminal.
    Fatal(RaError),
}

impl AttemptError {
    /// True for faults where a fresh handshake has a chance of succeeding.
    #[must_use]
    fn is_retryable(&self) -> bool {
        !matches!(self, AttemptError::Rejected | AttemptError::Fatal(_))
    }
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::Refused => write!(f, "connection refused"),
            AttemptError::SendFailed => write!(f, "send failed mid-handshake"),
            AttemptError::Timeout => write!(f, "reply timed out"),
            AttemptError::PeerClosed => write!(f, "peer closed mid-handshake"),
            AttemptError::Busy => write!(f, "shed by the service (busy)"),
            AttemptError::Garbled(e) => write!(f, "garbled reply: {e}"),
            AttemptError::IntegrityRejected => {
                write!(f, "verifier reported an integrity failure (retryable)")
            }
            AttemptError::Rejected => write!(f, "appraisal rejected"),
            AttemptError::Fatal(e) => write!(f, "fatal protocol error: {e}"),
        }
    }
}

impl std::error::Error for AttemptError {}

/// Why a whole [`AttestClient::attest`] run gave up. Every variant carries
/// the attempt count so fleet stats can track retries even for failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestError {
    /// A terminal (non-retryable) verdict; retrying would not help.
    Terminal {
        /// Attempts made, including the terminal one.
        attempts: u32,
        /// The terminal error.
        last: AttemptError,
    },
    /// Every allowed attempt failed with a retryable fault.
    Exhausted {
        /// Attempts made (equals the policy's `max_attempts`).
        attempts: u32,
        /// The last retryable fault observed.
        last: AttemptError,
    },
    /// The overall deadline budget ran out before the next retry.
    DeadlineExceeded {
        /// Attempts made before the budget ran out.
        attempts: u32,
        /// The last fault observed.
        last: AttemptError,
    },
}

impl AttestError {
    /// Attempts made before giving up.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        match self {
            AttestError::Terminal { attempts, .. }
            | AttestError::Exhausted { attempts, .. }
            | AttestError::DeadlineExceeded { attempts, .. } => *attempts,
        }
    }

    /// The last per-attempt error observed.
    #[must_use]
    pub fn last(&self) -> &AttemptError {
        match self {
            AttestError::Terminal { last, .. }
            | AttestError::Exhausted { last, .. }
            | AttestError::DeadlineExceeded { last, .. } => last,
        }
    }
}

impl std::fmt::Display for AttestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestError::Terminal { attempts, last } => {
                write!(f, "terminal after {attempts} attempt(s): {last}")
            }
            AttestError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempt(s): {last}")
            }
            AttestError::DeadlineExceeded { attempts, last } => {
                write!(f, "deadline exceeded after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for AttestError {}

/// Retry schedule for [`AttestClient::attest`]: capped exponential backoff
/// with deterministic jitter and an overall deadline budget. Every retry
/// restarts the full handshake (fresh connection, fresh ephemeral keys) —
/// required anyway by the protocol's freshness rules (§IV req. 4/5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff pause.
    pub max_backoff: Duration,
    /// Overall budget: once `elapsed + next backoff` would cross it, the
    /// client gives up with [`AttestError::DeadlineExceeded`].
    pub deadline: Duration,
    /// Per-reply receive timeout within one attempt.
    pub recv_timeout: Duration,
    /// Seed for the deterministic jitter stream. Give each device its own
    /// seed or a fleet of synchronised failures retries in lockstep.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: Duration::from_secs(10),
            recv_timeout: RECV_TIMEOUT,
            jitter_seed: 1,
        }
    }
}

impl RetryPolicy {
    /// The pause before the retry following `failed_attempts` failures:
    /// `min(base * 2^(n-1), max)` scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn deterministically from `(jitter_seed, n)`.
    #[must_use]
    fn backoff(&self, failed_attempts: u32) -> Duration {
        let exp = failed_attempts.saturating_sub(1).min(16);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        let frac =
            ((jitter_draw(self.jitter_seed, failed_attempts) >> 40) as f64) / ((1u64 << 24) as f64);
        raw.mul_f64(0.5 + frac * 0.5)
    }
}

/// A successful [`AttestClient::attest`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOutcome {
    /// The provisioned secret blob.
    pub secret: Vec<u8>,
    /// Attempts made, including the successful one (1 = first try).
    pub attempts: u32,
}

/// The supplicant-side network client: dials the verifier service over the
/// loopback [`Network`], runs the full four-message protocol per attempt,
/// and (via [`AttestClient::attest`]) retries retryable faults under a
/// [`RetryPolicy`].
#[derive(Debug)]
pub struct AttestClient<'a> {
    /// The network the verifier service listens on.
    pub net: &'a Network,
    /// The service's port.
    pub port: u16,
    /// This device's attestation service (quote issuer).
    pub service: &'a AttestationService,
    /// Measurement of the hosted application.
    pub measurement: [u8; 32],
    /// The verifier identity pinned into the application.
    pub pinned_verifier_key: [u8; 64],
}

/// Maps a protocol-layer failure to the retry taxonomy: state-machine
/// misuse is fatal, every authentication failure is indistinguishable from
/// in-flight corruption and therefore retryable.
fn classify_protocol_error(e: RaError) -> AttemptError {
    match e {
        RaError::BadState(_) => AttemptError::Fatal(e),
        _ => AttemptError::Garbled(e),
    }
}

impl AttestClient<'_> {
    /// One full attestation attempt: connect, msg0 → msg3, decrypt. The
    /// wire `attempt` counter is a diagnostic hint for the verifier's
    /// `retries_observed` bucket.
    ///
    /// Consecutive identical frames are discarded (tolerates duplicate
    /// delivery without aborting the handshake).
    ///
    /// # Errors
    ///
    /// Returns a classified [`AttemptError`]; see the variant docs for
    /// which are retryable.
    pub fn attempt(
        &self,
        attempt: u8,
        recv_timeout: Duration,
        rng: &mut Fortuna,
    ) -> Result<Vec<u8>, AttemptError> {
        let conn = self
            .net
            .connect(self.port)
            .map_err(|_| AttemptError::Refused)?;
        let (mut attester, mut msg0) = Attester::start(rng);
        msg0.attempt = attempt;
        let mut echo = FrameEcho::default();
        if conn.send(&msg0.to_bytes()).is_err() {
            return Err(classify_send_failure(&conn, &mut echo));
        }

        let raw1 = recv_reply(&conn, recv_timeout, &mut echo)?;
        let msg1 = Msg1::from_bytes(&raw1).map_err(AttemptError::Garbled)?;
        let (msg2, _t) = attester
            .attest(
                &msg1,
                &self.pinned_verifier_key,
                self.service,
                &self.measurement,
            )
            .map_err(classify_protocol_error)?;
        if conn.send(&msg2.to_bytes()).is_err() {
            return Err(classify_send_failure(&conn, &mut echo));
        }

        attester.receive_records(&conn, recv_timeout, &mut echo)
    }

    /// The resilient entry point: runs [`AttestClient::attempt`] under
    /// `policy`, restarting the full handshake on every retryable fault.
    ///
    /// # Errors
    ///
    /// [`AttestError::Terminal`] on a non-retryable verdict,
    /// [`AttestError::Exhausted`] when attempts run out,
    /// [`AttestError::DeadlineExceeded`] when the time budget does.
    pub fn attest(
        &self,
        policy: &RetryPolicy,
        rng: &mut Fortuna,
    ) -> Result<RetryOutcome, AttestError> {
        let started = Instant::now();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let wire_attempt = u8::try_from((attempts - 1).min(255)).unwrap_or(u8::MAX);
            match self.attempt(wire_attempt, policy.recv_timeout, rng) {
                Ok(secret) => return Ok(RetryOutcome { secret, attempts }),
                Err(last) if !last.is_retryable() => {
                    return Err(AttestError::Terminal { attempts, last })
                }
                Err(last) => {
                    if attempts >= max_attempts {
                        return Err(AttestError::Exhausted { attempts, last });
                    }
                    let pause = policy.backoff(attempts);
                    if started.elapsed() + pause >= policy.deadline {
                        return Err(AttestError::DeadlineExceeded { attempts, last });
                    }
                    std::thread::sleep(pause);
                }
            }
        }
    }
}

/// Classifies a failed send. The peer hanging up usually means
/// [`AttemptError::SendFailed`] — but a shedding service replies
/// [`SERVER_BUSY`] *before* hanging up, and that frame is still buffered
/// on our end of the connection. Drain it so a shed session reports
/// [`AttemptError::Busy`] (back off) rather than a generic send failure.
fn classify_send_failure(conn: &Connection, echo: &mut FrameEcho) -> AttemptError {
    match recv_reply(conn, Duration::ZERO, echo) {
        Err(
            verdict @ (AttemptError::Busy
            | AttemptError::IntegrityRejected
            | AttemptError::Rejected),
        ) => verdict,
        _ => AttemptError::SendFailed,
    }
}

/// What [`recv_reply`] keeps of the previous frame to recognise its
/// re-delivery: the length and the leading [`FrameEcho::HEAD`] bytes, so
/// remembering a 64 KiB record costs no copy of it. Every handshake frame
/// is shorter than that and compared whole. In a `msg3` record the prefix
/// holds the IV and the GCM tag: a frame that agrees on both either is the
/// same authenticated record or was forged to look like it, and skipping a
/// frame can stall a session but never release anything.
#[derive(Default)]
struct FrameEcho {
    len: usize,
    head: Vec<u8>,
}

impl FrameEcho {
    const HEAD: usize = 256;

    /// Whether `frame` repeats the remembered one; remembers it if not.
    fn repeats(&mut self, frame: &[u8]) -> bool {
        let head = &frame[..frame.len().min(Self::HEAD)];
        if !self.head.is_empty() && self.len == frame.len() && self.head == head {
            return true;
        }
        self.len = frame.len();
        self.head.clear();
        self.head.extend_from_slice(head);
        false
    }
}

/// Receives the next meaningful frame: maps transport failures into the
/// taxonomy, recognises the service's single-byte verdict markers, and
/// skips a consecutive duplicate of the previous frame.
fn recv_reply(
    conn: &Connection,
    timeout: Duration,
    echo: &mut FrameEcho,
) -> Result<Vec<u8>, AttemptError> {
    loop {
        let frame = match conn.recv_detailed(timeout) {
            Ok(f) => f,
            Err(RecvError::TimedOut) => return Err(AttemptError::Timeout),
            Err(RecvError::Disconnected) => return Err(AttemptError::PeerClosed),
        };
        if frame == SERVER_BUSY {
            return Err(AttemptError::Busy);
        }
        if frame == INTEGRITY_FAILED {
            return Err(AttemptError::IntegrityRejected);
        }
        if frame == APPRAISAL_FAILED {
            return Err(AttemptError::Rejected);
        }
        if echo.repeats(&frame) {
            continue; // duplicate delivery: discard and wait for the next
        }
        return Ok(frame);
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        for n in 1..=10u32 {
            let pause = policy.backoff(n);
            let cap = Duration::from_millis(10u64 << (n - 1).min(16)).min(policy.max_backoff);
            assert!(pause <= cap, "attempt {n}: {pause:?} above cap {cap:?}");
            assert!(
                pause >= cap / 2,
                "attempt {n}: jitter floor is half the cap"
            );
            assert_eq!(pause, policy.backoff(n), "same (seed, n) => same pause");
        }
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy.clone()
        };
        assert_ne!(other.backoff(4), policy.backoff(4), "seed moves the jitter");
    }

    #[test]
    fn frame_echo_recognises_a_redelivery_by_length_and_head() {
        let mut echo = FrameEcho::default();
        assert!(!echo.repeats(b""), "nothing precedes the first frame");
        assert!(!echo.repeats(b""), "an empty frame is never a repeat");
        assert!(!echo.repeats(b"msg1"));
        assert!(echo.repeats(b"msg1") && echo.repeats(b"msg1"));
        assert!(!echo.repeats(b"msg2"), "same length, other bytes");
        assert!(!echo.repeats(b"msg"), "a prefix is another frame");
        // Records: same length, told apart by the IV and tag up front.
        let record = |k: u8| [vec![0xa3, 0, 0, 0, k], vec![7; 70_000]].concat();
        assert!(!echo.repeats(&record(1)));
        assert!(echo.repeats(&record(1)));
        assert!(!echo.repeats(&record(2)));
        assert!(!echo.repeats(&record(1)), "not consecutive, not a repeat");
        // Past the head a difference goes unseen: by then the GCM tag in
        // the head has bound the bytes, and a skipped frame releases nothing.
        let mut forged = record(1);
        forged[FrameEcho::HEAD] ^= 1;
        assert!(echo.repeats(&forged));
        forged[FrameEcho::HEAD - 1] ^= 1;
        assert!(!echo.repeats(&forged));
    }

    #[test]
    fn taxonomy_separates_retryable_from_terminal() {
        for e in [
            AttemptError::Refused,
            AttemptError::SendFailed,
            AttemptError::Timeout,
            AttemptError::PeerClosed,
            AttemptError::Busy,
            AttemptError::Garbled(RaError::BadMac),
        ] {
            assert!(e.is_retryable(), "{e} must be retryable");
        }
        for e in [
            AttemptError::Rejected,
            AttemptError::Fatal(RaError::BadState("handle_msg1")),
        ] {
            assert!(!e.is_retryable(), "{e} must be terminal");
        }
    }

    #[test]
    fn attest_error_carries_attempt_counts() {
        let e = AttestError::Exhausted {
            attempts: 4,
            last: AttemptError::Timeout,
        };
        assert_eq!(e.attempts(), 4);
        assert_eq!(e.last(), &AttemptError::Timeout);
    }
}
