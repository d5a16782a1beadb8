//! The concurrent verifier service.
//!
//! Architecture: one **acceptor** thread pulls connections off the
//! listener and dispatches them **round-robin onto per-worker admission
//! channels** — there is no shared queue and no lock anywhere in a
//! worker's hot loop. Each of the N **worker** threads exclusively owns
//! its admitted sessions and runs them as explicit non-blocking state
//! machines ([`Connection::try_recv_detailed`] only — a worker never
//! blocks on a single peer). Sessions carry a deadline, so a stalled
//! attester is evicted instead of wedging the pool.
//!
//! Workers are **event-driven**: after a sweep that makes no progress, a
//! worker blocks on a [`crossbeam::channel::Select`] registered over its
//! admission channel plus every live session's receiver, with the wait
//! bounded by the nearest session deadline. An idle worker therefore
//! sleeps until a real event (new connection, message, peer hangup,
//! shutdown) instead of burning a fixed poll interval — the fix for the
//! flat-to-negative worker-scaling curve the polled shared-queue design
//! produced.
//!
//! Shutdown is event-driven too: stopping unbinds the port, which wakes
//! the acceptor's blocking accept with a disconnect; the acceptor exits
//! and drops the admission senders, which in turn wakes every worker's
//! select with a disconnected admission channel. Workers drain their
//! buffered admissions and in-flight sessions, then exit — no session is
//! lost across the per-worker queues.
//!
//! Both secure-world steps are batched. Workers sweep all their sessions
//! first, staging every `msg0` and `msg2` that arrived, then run each
//! stage's whole batch inside **one** [`Platform::enter_secure`]
//! ([`prepare_msg1_batch`] for the challenge derivation, [`appraise_batch`]
//! for the evidence appraisal) — amortising the world-switch cost across
//! queued sessions exactly where the paper's single-session design pays
//! it per attester.
//!
//! A worker releases each secret whole, as one final `msg3` record
//! (`Verifier::handle_msg2` inside the batch), not as the record sequence
//! `watz_runtime::VerifierServer` sends: fleet secrets are provisioning
//! tokens of about a kilobyte, one record either way. A worker that seals a
//! multi-megabyte blob inline stalls its sweep for as long as the AES-GCM
//! takes, with or without records; releasing large blobs from a fleet
//! worker (off the sweep, record by record) is out of scope here.
//!
//! **Observability** mirrors the engine's zero-overhead-when-off
//! discipline ([`watz_wasm::profile`](../../watz-wasm/src/profile.rs)):
//! each session records phase timestamps (accept→msg0→msg1→msg2→msg3)
//! into [`PhaseStats`], but the recording reuses the `Instant`s the sweep
//! already takes for deadline bookkeeping, buffers samples in a
//! worker-local struct, and touches the shared mutex at most once per
//! sweep — and only on sweeps where some session actually crossed a phase
//! boundary. An idle or steady-state worker pays nothing beyond the
//! deadline clock it always read.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Select, Sender, TryRecvError};
use optee_sim::net::{Connection, RecvError, TryRecv, DEFAULT_ACCEPT_BACKLOG, DEFAULT_ACCEPT_POLL};
use optee_sim::{TeeError, TrustedOs};
use parking_lot::Mutex;
use tz_hal::Platform;
use watz_attestation::verifier::{Verifier, VerifierConfig};
use watz_attestation::wire::{
    Msg0, Msg1, Msg2, Msg3, APPRAISAL_FAILED, INTEGRITY_FAILED, SERVER_BUSY,
};
use watz_attestation::RaError;
use watz_crypto::fortuna::Fortuna;

/// Tuning knobs for a [`FleetVerifier`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads, each owning its own admission channel and
    /// sessions (the acceptor dispatches round-robin).
    pub workers: usize,
    /// Upper bound on one blocking accept before the acceptor re-checks
    /// its stop flag — a liveness backstop, not a poll cadence: the
    /// accept wakes immediately on a connection or on port unbind.
    pub accept_poll: Duration,
    /// Listener backlog: established-but-unaccepted connections buffered
    /// before further `connect`s block (sized for connect storms).
    pub accept_backlog: usize,
    /// Per-session deadline: a session that makes no progress for this
    /// long is evicted and counted as timed out.
    pub session_timeout: Duration,
    /// In-flight session cap per worker (back-pressure: connections past
    /// the cap wait in that worker's admission channel).
    pub max_sessions_per_worker: usize,
    /// Admission-queue depth per worker beyond the in-flight cap. Once a
    /// worker owes `max_sessions_per_worker + max_queued_per_worker`
    /// uncompleted sessions, the acceptor **sheds** further connections
    /// bound for it: an immediate [`SERVER_BUSY`] reply instead of an
    /// unbounded queue, keeping admission-to-reply latency bounded under
    /// overload.
    pub max_queued_per_worker: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 4,
            accept_poll: DEFAULT_ACCEPT_POLL,
            accept_backlog: DEFAULT_ACCEPT_BACKLOG,
            session_timeout: Duration::from_secs(2),
            max_sessions_per_worker: 64,
            max_queued_per_worker: 256,
        }
    }
}

impl FleetConfig {
    /// Rejects configurations that would misbehave silently: a service
    /// with zero workers or a zero session cap can never make progress,
    /// a zero deadline evicts every session on its first sweep, and a
    /// zero backlog cannot accept a single connection.
    ///
    /// # Errors
    ///
    /// The first violated rule as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.session_timeout.is_zero() {
            return Err(ConfigError::ZeroSessionTimeout);
        }
        if self.accept_backlog == 0 {
            return Err(ConfigError::ZeroBacklog);
        }
        if self.max_sessions_per_worker == 0 {
            return Err(ConfigError::ZeroSessionCap);
        }
        Ok(())
    }
}

/// A [`FleetConfig`] rule violation (see [`FleetConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: nothing would ever process a session.
    ZeroWorkers,
    /// `session_timeout == 0`: every session would be evicted instantly.
    ZeroSessionTimeout,
    /// `accept_backlog == 0`: no connection could ever be established.
    ZeroBacklog,
    /// `max_sessions_per_worker == 0`: workers could never admit anyone.
    ZeroSessionCap,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "fleet config: workers must be >= 1"),
            ConfigError::ZeroSessionTimeout => {
                write!(f, "fleet config: session_timeout must be non-zero")
            }
            ConfigError::ZeroBacklog => write!(f, "fleet config: accept_backlog must be >= 1"),
            ConfigError::ZeroSessionCap => {
                write!(f, "fleet config: max_sessions_per_worker must be >= 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why [`FleetVerifier::spawn`] failed.
#[derive(Debug)]
pub enum SpawnError {
    /// The configuration was rejected by [`FleetConfig::validate`].
    Config(ConfigError),
    /// The listener could not be bound (port taken).
    Net(TeeError),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Config(e) => write!(f, "{e}"),
            SpawnError::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpawnError {}

impl From<SpawnError> for TeeError {
    fn from(e: SpawnError) -> Self {
        match e {
            SpawnError::Config(c) => TeeError::Net(c.to_string()),
            SpawnError::Net(t) => t,
        }
    }
}

/// Per-outcome statistics of a [`FleetVerifier`] (a snapshot).
///
/// Every accepted connection ends in exactly one of the six outcome
/// buckets, so `served + rejected + malformed + timed_out + disconnected
/// + shed` equals the number of completed sessions — and, after a drain,
/// equals `accepted` exactly, faults or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Sessions that passed appraisal and received `msg3`.
    pub served: u64,
    /// Sessions that reached appraisal and failed it (bad MAC, unknown
    /// device, untrusted measurement, outdated version, ...).
    pub rejected: u64,
    /// Sessions dropped because a message failed to parse.
    pub malformed: u64,
    /// Sessions evicted at their deadline (stalled mid-handshake but
    /// still connected).
    pub timed_out: u64,
    /// Sessions whose peer hung up before a verdict (dropped connection
    /// mid-handshake, or unreachable while a reply was being sent) —
    /// kept distinct from `timed_out` so a fleet operator can tell
    /// flapping devices from slow ones.
    pub disconnected: u64,
    /// Connections refused by admission control with a [`SERVER_BUSY`]
    /// reply because their worker was already saturated (an outcome
    /// bucket: a shed connection is accepted, answered, and closed).
    pub shed: u64,
    /// Individual `msg2` appraisals performed.
    pub appraised: u64,
    /// Secure-world entries spent on those appraisals: one per batch, so
    /// `appraisal_batches <= appraised`, with equality only when no two
    /// `msg2`s were ever queued together.
    pub appraisal_batches: u64,
    /// Secure-world entries spent deriving `msg1` challenges: one per
    /// batch of queued `msg0`s, mirroring `appraisal_batches`.
    pub msg1_batches: u64,
    /// Diagnostic sub-counter (not an outcome bucket, overlaps
    /// `malformed`/`rejected`): failures that are tamper-evident — parse
    /// errors plus integrity-flavoured appraisal failures (bad MAC, bad
    /// signature, session-key or anchor mismatch). Under an injected
    /// corruption schedule this is where every tampered frame must land.
    pub corrupt_rejected: u64,
    /// Diagnostic sub-counter: sessions whose `msg0` carried a non-zero
    /// attempt counter, i.e. the supplicant said it was retrying.
    pub retries_observed: u64,
}

impl FleetStats {
    /// Sessions that ran to an outcome.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.served
            + self.rejected
            + self.malformed
            + self.timed_out
            + self.disconnected
            + self.shed
    }

    /// Merges another snapshot into this one (shard aggregation).
    pub fn merge(&mut self, other: &FleetStats) {
        self.accepted += other.accepted;
        self.served += other.served;
        self.rejected += other.rejected;
        self.malformed += other.malformed;
        self.timed_out += other.timed_out;
        self.disconnected += other.disconnected;
        self.shed += other.shed;
        self.appraised += other.appraised;
        self.appraisal_batches += other.appraisal_batches;
        self.msg1_batches += other.msg1_batches;
        self.corrupt_rejected += other.corrupt_rejected;
        self.retries_observed += other.retries_observed;
    }
}

/// Per-phase handshake timing samples (microseconds), one entry per
/// session that crossed the phase boundary.
///
/// The four phases itemize verifier-side session latency the same way
/// the engine's `ExecProfile` itemizes kernel time: where a session's
/// wall clock actually went between accept and the final verdict.
///
/// A verifier's store is a sliding window: [`PhaseStats::merge`] keeps the
/// most recent [`PHASE_WINDOW`] to `2 * PHASE_WINDOW` samples per phase, so
/// a long-lived verifier's memory does not grow with the sessions served.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Accept (admission to a worker) → `msg0` arrival.
    pub accept_to_msg0: Vec<u64>,
    /// `msg0` arrival → `msg1` challenge sent (includes the batched
    /// secure-world entry the session waited on).
    pub msg0_to_msg1: Vec<u64>,
    /// `msg1` sent → evidence-bearing `msg2` arrival (attester think
    /// time plus network).
    pub msg1_to_msg2: Vec<u64>,
    /// `msg2` arrival → verdict (`msg3` or rejection) sent (includes the
    /// batched appraisal entry).
    pub msg2_to_msg3: Vec<u64>,
}

impl PhaseStats {
    /// No phase boundary was ever crossed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accept_to_msg0.is_empty()
            && self.msg0_to_msg1.is_empty()
            && self.msg1_to_msg2.is_empty()
            && self.msg2_to_msg3.is_empty()
    }

    /// Merges another snapshot into this one (shard/worker aggregation),
    /// dropping the oldest samples beyond the window.
    pub fn merge(&mut self, other: &PhaseStats) {
        push_recent(&mut self.accept_to_msg0, &other.accept_to_msg0);
        push_recent(&mut self.msg0_to_msg1, &other.msg0_to_msg1);
        push_recent(&mut self.msg1_to_msg2, &other.msg1_to_msg2);
        push_recent(&mut self.msg2_to_msg3, &other.msg2_to_msg3);
    }

    /// `(name, samples)` pairs in handshake order, for reporting.
    #[must_use]
    pub fn phases(&self) -> [(&'static str, &[u64]); 4] {
        [
            ("accept→msg0", &self.accept_to_msg0),
            ("msg0→msg1", &self.msg0_to_msg1),
            ("msg1→msg2", &self.msg1_to_msg2),
            ("msg2→msg3", &self.msg2_to_msg3),
        ]
    }
}

/// Samples per phase a merged [`PhaseStats`] always retains (it holds up to
/// twice as many, so trimming is amortized over a window's worth of merges).
pub const PHASE_WINDOW: usize = 2048;

/// Appends `src` to `dst`; once they would exceed `2 * PHASE_WINDOW`, only
/// the most recent `PHASE_WINDOW` of the two together are kept. Trimming
/// before the append means `dst` never holds more than the bound, even
/// transiently.
fn push_recent(dst: &mut Vec<u64>, src: &[u64]) {
    let src = &src[src.len().saturating_sub(PHASE_WINDOW)..];
    if dst.len() + src.len() > 2 * PHASE_WINDOW {
        dst.drain(..dst.len() + src.len() - PHASE_WINDOW);
    }
    dst.extend_from_slice(src);
}

/// p50/p95/p99 of unsorted microsecond samples; `None` when empty.
#[must_use]
pub fn percentiles_us(samples: &[u64]) -> Option<(u64, u64, u64)> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |p: f64| {
        let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    Some((rank(50.0), rank(95.0), rank(99.0)))
}

/// Shared atomic counters behind [`FleetStats`].
#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    timed_out: AtomicU64,
    disconnected: AtomicU64,
    shed: AtomicU64,
    appraised: AtomicU64,
    appraisal_batches: AtomicU64,
    msg1_batches: AtomicU64,
    corrupt_rejected: AtomicU64,
    retries_observed: AtomicU64,
    /// Phase timing samples; locked once per sweep at most (see the
    /// module-level observability note).
    phases: Mutex<PhaseStats>,
}

impl StatsInner {
    fn snapshot(&self) -> FleetStats {
        FleetStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            malformed: self.malformed.load(Ordering::SeqCst),
            timed_out: self.timed_out.load(Ordering::SeqCst),
            disconnected: self.disconnected.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            appraised: self.appraised.load(Ordering::SeqCst),
            appraisal_batches: self.appraisal_batches.load(Ordering::SeqCst),
            msg1_batches: self.msg1_batches.load(Ordering::SeqCst),
            corrupt_rejected: self.corrupt_rejected.load(Ordering::SeqCst),
            retries_observed: self.retries_observed.load(Ordering::SeqCst),
        }
    }

    /// Books a session whose reply could not be delivered: the peer was
    /// gone at verdict time, so the verdict bucket (already bumped, see
    /// the observer-ordering note in the sweep) is rolled back in favour
    /// of `disconnected`.
    fn undeliverable(&self, verdict_bucket: &AtomicU64) {
        verdict_bucket.fetch_sub(1, Ordering::SeqCst);
        self.disconnected.fetch_add(1, Ordering::SeqCst);
    }
}

/// True for appraisal failures that are tamper-evident — what an injected
/// corruption schedule produces, as opposed to honest-but-unwelcome
/// evidence (unknown device, stale version).
fn is_integrity_failure(e: &RaError) -> bool {
    matches!(
        e,
        RaError::BadMac
            | RaError::BadSignature
            | RaError::SessionKeyMismatch
            | RaError::AnchorMismatch
            | RaError::Crypto(_)
            | RaError::Malformed(_)
    )
}

/// Appraises a batch of `msg2`s inside a single secure-world entry.
///
/// This is the batched path [`FleetVerifier`] workers use; it is public
/// so benches and tests can measure the amortisation directly (one
/// [`Platform::enter_secure`] regardless of batch size).
pub fn appraise_batch(
    platform: &Platform,
    batch: Vec<(&mut Verifier, &Msg2)>,
) -> Vec<Result<Msg3, RaError>> {
    platform.enter_secure(|| {
        batch
            .into_iter()
            .map(|(verifier, msg2)| verifier.handle_msg2(msg2).map(|(msg3, _)| msg3))
            .collect()
    })
}

/// Derives `msg1` challenges for a batch of `msg0`s inside a single
/// secure-world entry — the `msg0` counterpart of [`appraise_batch`]
/// (one [`Platform::enter_secure`] regardless of batch size).
pub fn prepare_msg1_batch(
    platform: &Platform,
    batch: Vec<(&mut Verifier, &Msg0)>,
    rng: &mut Fortuna,
) -> Vec<Result<Msg1, RaError>> {
    platform.enter_secure(|| {
        batch
            .into_iter()
            .map(|(verifier, msg0)| verifier.handle_msg0(msg0, rng).map(|(msg1, _)| msg1))
            .collect()
    })
}

/// Where one session stands in the Msg0→Msg3 exchange.
enum Phase {
    /// Waiting for the attester's `msg0`.
    AwaitMsg0,
    /// `msg1` sent; waiting for the evidence-bearing `msg2`.
    AwaitMsg2,
}

/// One in-flight attestation session owned by a worker.
struct Session {
    conn: Connection,
    verifier: Verifier,
    phase: Phase,
    deadline: Instant,
    /// Parsed `msg0` staged for the next challenge-derivation batch.
    pending_msg0: Option<Msg0>,
    /// Parsed `msg2` staged for the next appraisal batch.
    pending_msg2: Option<Msg2>,
    done: bool,
    /// The last frame processed, so a duplicated delivery (fault
    /// injection, flaky transport) is discarded instead of being parsed
    /// as the next protocol message and failing the session.
    last_frame: Option<Vec<u8>>,
    /// When this worker admitted the connection (phase-timing origin).
    admitted: Instant,
    /// When each handshake boundary was crossed; `None` until then.
    msg0_at: Option<Instant>,
    msg1_at: Option<Instant>,
    msg2_at: Option<Instant>,
}

impl Session {
    fn new(conn: Connection, verifier: Verifier, timeout: Duration) -> Self {
        let admitted = Instant::now();
        Session {
            conn,
            verifier,
            phase: Phase::AwaitMsg0,
            deadline: admitted + timeout,
            pending_msg0: None,
            pending_msg2: None,
            done: false,
            last_frame: None,
            admitted,
            msg0_at: None,
            msg1_at: None,
            msg2_at: None,
        }
    }
}

/// Saturating `Duration` → whole microseconds for phase samples.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Everything a worker thread needs, bundled to keep spawns tidy.
struct WorkerCtx {
    /// This worker's private admission channel; the acceptor holds the
    /// sending half and drops it on shutdown, which is the drain signal.
    admission: Receiver<Connection>,
    stats: Arc<StatsInner>,
    platform: Platform,
    config: VerifierConfig,
    session_timeout: Duration,
    max_sessions: usize,
    /// Sessions the acceptor has dispatched to this worker and the worker
    /// has not completed (queued + in-flight). The acceptor reads it for
    /// the shed decision; [`FleetVerifier::live_sessions`] sums it for
    /// leak checks.
    load: Arc<AtomicUsize>,
    rng: Fortuna,
}

/// Pulls every session's staged message (if any) out next to the session
/// itself, so batch processing never depends on index bookkeeping. Shared
/// by the msg0 and msg2 batch paths.
fn take_staged<M>(
    sessions: &mut [Session],
    take: impl Fn(&mut Session) -> Option<M>,
) -> Vec<(&mut Session, M)> {
    sessions
        .iter_mut()
        .filter_map(|s| take(s).map(|m| (s, m)))
        .collect()
}

fn worker_loop(mut ctx: WorkerCtx) {
    let mut sessions: Vec<Session> = Vec::new();
    // Raised when the acceptor has exited (admission senders dropped);
    // buffered admissions were already delivered first, so once this is
    // set and the session list empties, the worker is fully drained.
    let mut draining = false;
    loop {
        // Admit dispatched connections up to the in-flight cap — from
        // this worker's own channel, no shared lock. Deadlines start at
        // admission, so a connection that waited in the channel is not
        // unfairly aged.
        while sessions.len() < ctx.max_sessions {
            match ctx.admission.try_recv() {
                Ok(conn) => sessions.push(Session::new(
                    conn,
                    Verifier::new(ctx.config.clone()),
                    ctx.session_timeout,
                )),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    draining = true;
                    break;
                }
            }
        }
        if draining && sessions.is_empty() {
            break;
        }

        let mut progressed = false;
        let now = Instant::now();
        let mut staged_msg0 = 0usize;
        let mut staged = 0usize;
        // Worker-local phase samples for this sweep; merged into the
        // shared stats under one lock acquisition at the end.
        let mut local_phases = PhaseStats::default();

        // Sweep every session once; never block on any single peer.
        for session in sessions.iter_mut() {
            match session.conn.try_recv_detailed() {
                TryRecv::Message(raw) => {
                    progressed = true;
                    // Duplicate delivery: drop the copy, keep the session.
                    if session.last_frame.as_deref() == Some(raw.as_slice()) {
                        continue;
                    }
                    session.deadline = now + ctx.session_timeout;
                    match session.phase {
                        // Outcome counters are bumped BEFORE the reply is
                        // sent: the peer's recv() unblocks on the send, so
                        // the reverse order would let an observer see a
                        // completed session not yet in the stats.
                        Phase::AwaitMsg0 => {
                            let Ok(msg0) = Msg0::from_bytes(&raw) else {
                                ctx.stats.malformed.fetch_add(1, Ordering::SeqCst);
                                ctx.stats.corrupt_rejected.fetch_add(1, Ordering::SeqCst);
                                let _ = session.conn.send(INTEGRITY_FAILED);
                                session.done = true;
                                continue;
                            };
                            if msg0.attempt > 0 {
                                ctx.stats.retries_observed.fetch_add(1, Ordering::SeqCst);
                            }
                            session.pending_msg0 = Some(msg0);
                            session.last_frame = Some(raw);
                            staged_msg0 += 1;
                            session.msg0_at = Some(now);
                            local_phases
                                .accept_to_msg0
                                .push(micros(now.saturating_duration_since(session.admitted)));
                        }
                        Phase::AwaitMsg2 => {
                            let Ok(msg2) = Msg2::from_bytes(&raw) else {
                                ctx.stats.malformed.fetch_add(1, Ordering::SeqCst);
                                ctx.stats.corrupt_rejected.fetch_add(1, Ordering::SeqCst);
                                let _ = session.conn.send(INTEGRITY_FAILED);
                                session.done = true;
                                continue;
                            };
                            session.pending_msg2 = Some(msg2);
                            session.last_frame = Some(raw);
                            staged += 1;
                            session.msg2_at = Some(now);
                            if let Some(msg1_at) = session.msg1_at {
                                local_phases
                                    .msg1_to_msg2
                                    .push(micros(now.saturating_duration_since(msg1_at)));
                            }
                        }
                    }
                }
                TryRecv::Empty => {
                    // Idle peer: evict only at the deadline.
                    if now >= session.deadline {
                        ctx.stats.timed_out.fetch_add(1, Ordering::SeqCst);
                        session.done = true;
                        progressed = true;
                    }
                }
                TryRecv::Disconnected => {
                    // Dead peer: free the session slot immediately rather
                    // than pinning it until the deadline, and account it
                    // as a disconnect, not a timeout.
                    ctx.stats.disconnected.fetch_add(1, Ordering::SeqCst);
                    session.done = true;
                    progressed = true;
                }
            }
        }

        // Batched challenge derivation: all msg0s staged this sweep share
        // one secure-world entry via `prepare_msg1_batch`, exactly like
        // msg2 appraisal below.
        if staged_msg0 > 0 {
            let mut batch_sessions = take_staged(&mut sessions, |s| s.pending_msg0.take());
            let outcomes = prepare_msg1_batch(
                &ctx.platform,
                batch_sessions
                    .iter_mut()
                    .map(|(s, msg0)| (&mut s.verifier, &*msg0))
                    .collect(),
                &mut ctx.rng,
            );
            ctx.stats.msg1_batches.fetch_add(1, Ordering::SeqCst);
            // One timestamp for the whole batch: every session in it
            // shared the same secure-world entry, so its challenge was
            // ready at the same moment.
            let sent_at = Instant::now();
            for ((session, _), outcome) in batch_sessions.iter_mut().zip(outcomes) {
                match outcome {
                    Ok(msg1) => {
                        if session.conn.send(&msg1.to_bytes()).is_err() {
                            // The peer vanished while we derived its
                            // challenge: a disconnect, not a timeout.
                            ctx.stats.disconnected.fetch_add(1, Ordering::SeqCst);
                            session.done = true;
                        } else {
                            session.phase = Phase::AwaitMsg2;
                            session.msg1_at = Some(sent_at);
                            if let Some(msg0_at) = session.msg0_at {
                                local_phases
                                    .msg0_to_msg1
                                    .push(micros(sent_at.saturating_duration_since(msg0_at)));
                            }
                        }
                    }
                    Err(e) => {
                        ctx.stats.rejected.fetch_add(1, Ordering::SeqCst);
                        let reply = if is_integrity_failure(&e) {
                            ctx.stats.corrupt_rejected.fetch_add(1, Ordering::SeqCst);
                            INTEGRITY_FAILED
                        } else {
                            APPRAISAL_FAILED
                        };
                        if session.conn.send(reply).is_err() {
                            ctx.stats.undeliverable(&ctx.stats.rejected);
                        }
                        session.done = true;
                    }
                }
            }
        }

        // Batched appraisal: all msg2s staged this sweep share one
        // secure-world entry via `appraise_batch`. One pass pulls each
        // staged msg2 out next to its own session's verifier, so nothing
        // depends on index bookkeeping.
        if staged > 0 {
            let mut batch_sessions = take_staged(&mut sessions, |s| s.pending_msg2.take());
            let outcomes = appraise_batch(
                &ctx.platform,
                batch_sessions
                    .iter_mut()
                    .map(|(s, msg2)| (&mut s.verifier, &*msg2))
                    .collect(),
            );
            ctx.stats.appraisal_batches.fetch_add(1, Ordering::SeqCst);
            ctx.stats
                .appraised
                .fetch_add(outcomes.len() as u64, Ordering::SeqCst);
            // As with msg1: the verdicts all left the shared appraisal
            // batch at once, so one timestamp covers the batch.
            let verdict_at = Instant::now();
            for ((session, _), outcome) in batch_sessions.iter_mut().zip(outcomes) {
                // The verdict bucket is still bumped before the reply
                // (observer ordering); if the reply cannot be delivered
                // the peer was already gone, so the session is re-booked
                // as disconnected — a hangup after msg2 must not count as
                // served.
                match outcome {
                    Ok(msg3) => {
                        ctx.stats.served.fetch_add(1, Ordering::SeqCst);
                        if session.conn.send(&msg3.to_bytes()).is_err() {
                            ctx.stats.undeliverable(&ctx.stats.served);
                        }
                    }
                    Err(e) => {
                        ctx.stats.rejected.fetch_add(1, Ordering::SeqCst);
                        let reply = if is_integrity_failure(&e) {
                            ctx.stats.corrupt_rejected.fetch_add(1, Ordering::SeqCst);
                            INTEGRITY_FAILED
                        } else {
                            APPRAISAL_FAILED
                        };
                        if session.conn.send(reply).is_err() {
                            ctx.stats.undeliverable(&ctx.stats.rejected);
                        }
                    }
                }
                // A verdict went out either way; both count as msg3 time.
                if let Some(msg2_at) = session.msg2_at {
                    local_phases
                        .msg2_to_msg3
                        .push(micros(verdict_at.saturating_duration_since(msg2_at)));
                }
                session.done = true;
            }
        }

        if !local_phases.is_empty() {
            ctx.stats.phases.lock().merge(&local_phases);
        }

        let before = sessions.len();
        sessions.retain(|s| !s.done);
        let completed_now = before - sessions.len();
        if completed_now > 0 {
            // The acceptor's shed decision reads this gauge; decrement
            // only once a session truly left the worker.
            ctx.load.fetch_sub(completed_now, Ordering::SeqCst);
        }
        if progressed {
            // Something moved; sweep again immediately — replies we just
            // sent typically provoke the peer's next message.
            continue;
        }

        // Event-driven wait: block on a select over the admission channel
        // (unless full or draining) and every live session's receiver.
        // Any message, hangup, new connection, or acceptor exit fires the
        // select; the nearest session deadline bounds the sleep so
        // evictions still happen on time. No fixed poll interval, no
        // idle CPU burn.
        let mut select = Select::new();
        if !draining && sessions.len() < ctx.max_sessions {
            select.recv(&ctx.admission);
        }
        for session in &sessions {
            select.recv(session.conn.receiver());
        }
        match sessions.iter().map(|s| s.deadline).min() {
            Some(deadline) => {
                let _ = select.ready_timeout(deadline.saturating_duration_since(Instant::now()));
            }
            // No sessions (and not draining, or we'd have exited): the
            // admission channel is registered and shutdown arrives as its
            // disconnect, so a fully blocking wait is safe.
            None => {
                let _ = select.ready();
            }
        }
    }
}

/// A fleet-scale verifier service: round-robin acceptor dispatch onto
/// per-worker admission channels, event-driven select-based workers,
/// non-blocking sessions, batched appraisal, per-outcome stats.
pub struct FleetVerifier {
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<StatsInner>,
    /// Per-worker dispatched-but-not-completed gauges (shed decisions,
    /// leak checks).
    loads: Vec<Arc<AtomicUsize>>,
    port: u16,
    os: TrustedOs,
}

impl std::fmt::Debug for FleetVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FleetVerifier {{ port: {}, workers: {} }}",
            self.port,
            self.workers.len()
        )
    }
}

impl FleetVerifier {
    /// Spawns the service on `port` of the OS's loopback network.
    ///
    /// # Errors
    ///
    /// [`SpawnError::Config`] if the configuration fails
    /// [`FleetConfig::validate`]; [`SpawnError::Net`] if the port is
    /// taken.
    pub fn spawn(
        os: &TrustedOs,
        config: VerifierConfig,
        fleet: FleetConfig,
        port: u16,
    ) -> Result<Self, SpawnError> {
        fleet.validate().map_err(SpawnError::Config)?;
        let listener = os
            .network()
            .listen_with_backlog(port, fleet.accept_backlog)
            .map_err(SpawnError::Net)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());

        let mut admission_txs: Vec<Sender<Connection>> = Vec::new();
        let mut loads: Vec<Arc<AtomicUsize>> = Vec::new();
        let workers = (0..fleet.workers)
            .map(|i| {
                // Unbounded: the acceptor must never block on a slow
                // worker (back-pressure is the per-worker session cap
                // plus the shed threshold below, which bounds how much
                // can ever be queued here).
                let (tx, rx) = unbounded();
                admission_txs.push(tx);
                let load = Arc::new(AtomicUsize::new(0));
                loads.push(Arc::clone(&load));
                let ctx = WorkerCtx {
                    admission: rx,
                    stats: Arc::clone(&stats),
                    platform: os.platform().clone(),
                    config: config.clone(),
                    session_timeout: fleet.session_timeout,
                    max_sessions: fleet.max_sessions_per_worker,
                    load,
                    rng: os.kernel_prng(&format!("fleet-worker-{i}")),
                };
                std::thread::spawn(move || worker_loop(ctx))
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let loads = loads.clone();
            let accept_poll = fleet.accept_poll;
            // A worker saturates once it owes this many uncompleted
            // sessions; beyond it the acceptor sheds instead of queueing.
            let shed_at = fleet
                .max_sessions_per_worker
                .saturating_add(fleet.max_queued_per_worker);
            std::thread::spawn(move || {
                let mut next = 0usize;
                loop {
                    match listener.accept_detailed(accept_poll) {
                        Ok(conn) => {
                            stats.accepted.fetch_add(1, Ordering::SeqCst);
                            if loads[next].load(Ordering::SeqCst) >= shed_at {
                                // Load shedding: an immediate BUSY reply
                                // bounds admission-to-reply latency where
                                // an unbounded queue would let it grow
                                // with the backlog. Shed is an outcome
                                // bucket, so `accepted == completed()`
                                // still holds after a drain.
                                stats.shed.fetch_add(1, Ordering::SeqCst);
                                let _ = conn.send(SERVER_BUSY);
                            } else {
                                // Round-robin dispatch; the send is
                                // unbounded and the receiver outlives the
                                // acceptor, so it neither blocks nor
                                // fails.
                                loads[next].fetch_add(1, Ordering::SeqCst);
                                let _ = admission_txs[next].send(conn);
                            }
                            next = (next + 1) % admission_txs.len();
                        }
                        // Quiet listener: loop back into the accept. The
                        // stop flag is only a backstop — the real
                        // shutdown signal is the unbind below, so every
                        // connection buffered in the backlog (its peer's
                        // connect() already returned) is drained first,
                        // never silently dropped.
                        Err(RecvError::TimedOut) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                        // Port unbound and backlog drained: shutdown.
                        Err(RecvError::Disconnected) => break,
                    }
                }
                // Dropping admission_txs here disconnects every worker's
                // admission channel — the drain signal.
            })
        };

        Ok(FleetVerifier {
            stop,
            acceptor: Some(acceptor),
            workers,
            stats,
            loads,
            port,
            os: os.clone(),
        })
    }

    /// Sessions dispatched to workers and not yet completed (queued plus
    /// in-flight), summed across workers. Zero once every admitted
    /// session has reached an outcome — the "no leaked sessions" check
    /// of the chaos suite.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.loads.iter().map(|l| l.load(Ordering::SeqCst)).sum()
    }

    /// The port the service listens on.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A live snapshot of the per-outcome statistics.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        self.stats.snapshot()
    }

    /// A snapshot of the per-phase handshake timing samples.
    #[must_use]
    pub fn phase_stats(&self) -> PhaseStats {
        self.stats.phases.lock().clone()
    }

    /// Stops accepting, drains in-flight and queued sessions (bounded by
    /// the per-session deadline), and returns the final statistics.
    pub fn shutdown(mut self) -> FleetStats {
        self.stop_and_join();
        self.stats.snapshot()
    }

    /// Two-phase teardown (idempotent): unbind the port — which wakes and
    /// stops the acceptor — and join it first; only the acceptor's exit
    /// drops the admission senders, so no worker can observe a
    /// disconnected admission channel while a late-accepted connection is
    /// still in flight towards it.
    pub(crate) fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.os.network().unbind(self.port);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for FleetVerifier {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_completed_add_up() {
        let mut a = FleetStats {
            accepted: 12,
            served: 5,
            rejected: 2,
            malformed: 1,
            timed_out: 2,
            disconnected: 1,
            shed: 1,
            appraised: 7,
            appraisal_batches: 3,
            msg1_batches: 4,
            corrupt_rejected: 1,
            retries_observed: 2,
        };
        let b = FleetStats {
            accepted: 6,
            served: 3,
            rejected: 1,
            malformed: 0,
            timed_out: 0,
            disconnected: 1,
            shed: 1,
            appraised: 4,
            appraisal_batches: 2,
            msg1_batches: 1,
            corrupt_rejected: 0,
            retries_observed: 1,
        };
        a.merge(&b);
        assert_eq!(a.accepted, 18);
        assert_eq!(a.completed(), 18, "shed is an outcome bucket");
        assert_eq!(a.disconnected, 2);
        assert_eq!(a.shed, 2);
        assert_eq!(a.appraised, 11);
        assert_eq!(a.appraisal_batches, 5);
        assert_eq!(a.msg1_batches, 5);
        assert_eq!(a.corrupt_rejected, 1);
        assert_eq!(a.retries_observed, 3);
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
        let cases = [
            (
                FleetConfig {
                    workers: 0,
                    ..FleetConfig::default()
                },
                ConfigError::ZeroWorkers,
            ),
            (
                FleetConfig {
                    session_timeout: Duration::ZERO,
                    ..FleetConfig::default()
                },
                ConfigError::ZeroSessionTimeout,
            ),
            (
                FleetConfig {
                    accept_backlog: 0,
                    ..FleetConfig::default()
                },
                ConfigError::ZeroBacklog,
            ),
            (
                FleetConfig {
                    max_sessions_per_worker: 0,
                    ..FleetConfig::default()
                },
                ConfigError::ZeroSessionCap,
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(), Err(expected));
        }
    }

    #[test]
    fn phase_stats_merge_and_percentiles() {
        let mut a = PhaseStats::default();
        assert!(a.is_empty());
        assert_eq!(percentiles_us(&a.accept_to_msg0), None);

        a.accept_to_msg0.extend(1..=100u64);
        let mut b = PhaseStats::default();
        b.msg2_to_msg3.push(7);
        a.merge(&b);
        assert!(!a.is_empty());
        assert_eq!(a.accept_to_msg0.len(), 100);
        assert_eq!(a.msg2_to_msg3, vec![7]);

        let (p50, p95, p99) = percentiles_us(&a.accept_to_msg0).unwrap();
        assert!((50..=51).contains(&p50), "p50 {p50}");
        assert!((95..=96).contains(&p95), "p95 {p95}");
        assert!((99..=100).contains(&p99), "p99 {p99}");
        // Singleton: every percentile is the one sample.
        assert_eq!(percentiles_us(&a.msg2_to_msg3), Some((7, 7, 7)));
        // Phase order matches the handshake.
        let names: Vec<&str> = a.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["accept→msg0", "msg0→msg1", "msg1→msg2", "msg2→msg3"]
        );
    }

    #[test]
    fn phase_stats_merge_keeps_a_bounded_recent_window() {
        let mut store = PhaseStats::default();
        let mut next = 0u64;
        // Sweep-sized merges, then one snapshot larger than the window.
        for batch in [1usize, 3, 48]
            .iter()
            .cycle()
            .take(3000)
            .copied()
            .chain([5000])
        {
            let mut sweep = PhaseStats::default();
            sweep.msg0_to_msg1.extend(next..next + batch as u64);
            next += batch as u64;
            store.merge(&sweep);
            let kept = &store.msg0_to_msg1;
            assert!(kept.len() <= 2 * PHASE_WINDOW);
            assert!(kept.len() >= (next as usize).min(PHASE_WINDOW));
            // The newest samples, contiguous and in arrival order.
            let first = next - kept.len() as u64;
            assert!(kept.iter().copied().eq(first..next));
        }
        assert!(store.accept_to_msg0.is_empty());
    }

    #[test]
    fn default_config_uses_shared_accept_poll() {
        let config = FleetConfig::default();
        assert_eq!(config.accept_poll, DEFAULT_ACCEPT_POLL);
        assert_eq!(config.accept_backlog, DEFAULT_ACCEPT_BACKLOG);
        assert!(config.workers >= 1);
        assert!(config.max_sessions_per_worker >= 1);
        assert!(config.session_timeout > Duration::ZERO);
    }
}
