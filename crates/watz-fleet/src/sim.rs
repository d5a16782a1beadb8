//! The sharded device registry and multi-device simulator.
//!
//! A **shard** is one `TrustedOs` (and therefore one supplicant loopback
//! `Network`) hosting a [`FleetVerifier`] plus the client traffic of the
//! devices assigned to it. Sharding keeps listener queues, accept locks
//! and network state disjoint, so shards scale independently — the
//! ROADMAP's "millions of attesting devices" direction in miniature.
//!
//! Each simulated device is a real WaTZ device in the model's terms: its
//! own fused seed, secure-boot chain and kernel attestation service, so
//! endorsement/rejection flows through the genuine key material rather
//! than flags. Three kinds are simulated:
//!
//! * [`DeviceKind::Endorsed`] — endorsed key, trusted measurement: served;
//! * [`DeviceKind::Rogue`] — key absent from the endorsement list: rejected;
//! * [`DeviceKind::Stale`] — endorsed but reporting an outdated WaTZ
//!   version: rejected by the verifier's version gate (§VII rollback
//!   mitigation).

use std::sync::Arc;
use std::time::{Duration, Instant};

use optee_sim::net::{FaultPlan, Network, RECV_TIMEOUT};
use optee_sim::{TeeError, TrustedOs};
use parking_lot::Mutex;
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::attester::{AttemptError, AttestClient, RetryPolicy};
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::VerifierConfig;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;

use crate::service::{percentiles_us, FleetConfig, FleetStats, FleetVerifier, PhaseStats};

/// What kind of attester a simulated device is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Endorsed device running the reference bytecode: must be served.
    Endorsed,
    /// Device whose attestation key is not endorsed: must be rejected.
    Rogue,
    /// Endorsed device reporting an outdated WaTZ version: must be
    /// rejected by the version gate.
    Stale,
}

/// Registry entry for one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceRecord {
    /// Fleet-wide device index.
    pub id: u32,
    /// The shard this device attests against.
    pub shard: usize,
    /// Behavioural kind.
    pub kind: DeviceKind,
    /// The device's public attestation key (endorsement value). `None`
    /// until the device is manufactured — which happens lazily, on the
    /// first session that schedules it, not at fleet boot.
    pub public_key: Option<[u8; 64]>,
}

/// Sizing of a simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// Number of shards (one `TrustedOs`/`Network`/verifier each).
    pub shards: usize,
    /// Endorsed devices across the whole fleet.
    pub endorsed: usize,
    /// Rogue (unendorsed) devices across the whole fleet.
    pub rogue: usize,
    /// Stale (outdated-version) devices across the whole fleet.
    pub stale: usize,
    /// Worker threads per shard verifier.
    pub workers_per_shard: usize,
    /// Per-session deadline at the verifiers.
    pub session_timeout: Duration,
    /// In-flight session cap per verifier worker.
    pub max_sessions_per_worker: usize,
    /// Admission-queue depth per worker beyond which connections are
    /// shed with a `SERVER_BUSY` reply (see [`FleetConfig`]).
    pub max_queued_per_worker: usize,
    /// Port the shard-0 verifier binds; shard `k` uses `port + k` (each
    /// shard has its own network, so this only aids log readability).
    pub port: u16,
    /// Fault plan installed on every shard's network for the duration of
    /// each round (`None` = clean transport, zero overhead).
    pub fault_plan: Option<FaultPlan>,
    /// Client retry policy. `None` = single-attempt clients (the
    /// pre-retry behaviour); `Some` clients retry retryable faults, each
    /// device jittered on its own seed lane.
    pub retry: Option<RetryPolicy>,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            shards: 4,
            endorsed: 64,
            rogue: 4,
            stale: 4,
            workers_per_shard: 4,
            session_timeout: Duration::from_secs(2),
            max_sessions_per_worker: 64,
            max_queued_per_worker: 256,
            port: 7700,
            fault_plan: None,
            retry: None,
        }
    }
}

/// One manufactured device: its own platform, trusted OS and attestation
/// service (real key material), attesting over its shard's network.
struct SimDevice {
    service: AttestationService,
    _os: TrustedOs,
}

/// A device slot in the registry: the cheap spec is fixed at boot, the
/// expensive manufacturing (platform, secure-boot chain, trusted OS, key
/// derivation) happens at most once — on the first session that schedules
/// the device. Simulations can therefore size past boot-time memory: a
/// device that never attests never exists beyond these few words.
struct LazyDevice {
    id: u32,
    shard: usize,
    kind: DeviceKind,
    cell: std::sync::OnceLock<SimDevice>,
}

impl LazyDevice {
    /// Manufactures the device on first use (fused seed, genuine boot
    /// chain, attestation service install).
    ///
    /// # Panics
    ///
    /// Panics if the device fails secure boot. Device manufacturing is
    /// deterministic in the simulator (derived from the device seed), so
    /// unlike shard boot — which still returns a [`TeeError`] from
    /// [`FleetSim::boot`] — a failure here means the model itself is
    /// broken, not a configuration problem a caller could handle.
    fn device(&self) -> &SimDevice {
        self.cell.get_or_init(|| {
            let platform = Platform::new(PlatformConfig {
                device_seed: format!("fleet-device-{}", self.id).into_bytes(),
                ..PlatformConfig::default()
            });
            tz_hal::boot::install_genuine_chain(&platform).expect("device secure boot");
            let os = TrustedOs::boot(platform).expect("device trusted OS boot");
            // Stale devices report a WaTZ version below the fleet's
            // minimum (an un-updated runtime in the wild).
            let service = match self.kind {
                DeviceKind::Stale => AttestationService::install_with_version(&os, 0),
                _ => AttestationService::install(&os),
            };
            SimDevice { service, _os: os }
        })
    }

    fn record(&self) -> DeviceRecord {
        DeviceRecord {
            id: self.id,
            shard: self.shard,
            kind: self.kind,
            public_key: self.cell.get().map(|d| d.service.public_key()),
        }
    }
}

/// One shard: a trusted OS whose network carries the shard's verifier
/// and device traffic.
struct Shard {
    os: TrustedOs,
}

/// A booted simulated fleet, ready to run attestation rounds. Shards boot
/// eagerly (they host the verifiers); devices are registered as cheap
/// specs and manufactured lazily on their first scheduled session.
pub struct FleetSim {
    config: FleetSimConfig,
    shards: Vec<Shard>,
    devices: Vec<LazyDevice>,
    measurement: [u8; 32],
    verifier_identity_seed: Vec<u8>,
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FleetSim {{ shards: {}, devices: {} }}",
            self.shards.len(),
            self.devices.len()
        )
    }
}

/// Outcome of one device's client-side session.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClientOutcome {
    /// Secret received (bytes) after this long.
    Provisioned(usize, Duration),
    /// The verifier answered with the appraisal-failed marker.
    Rejected(Duration),
    /// Admission control shed the session (`SERVER_BUSY`) and the retry
    /// budget — if any — never got past it.
    Shed,
    /// Network error / timeout before an answer.
    Failed,
}

/// Aggregated result of one simulated fleet round.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Devices that attested in this round.
    pub devices: usize,
    /// Shards the round ran across.
    pub shards: usize,
    /// Wall-clock duration of the round.
    pub elapsed: Duration,
    /// Devices provisioned with the secret (client-side successes).
    pub provisioned: u64,
    /// Devices rejected by appraisal (client-side rejections).
    pub rejected: u64,
    /// Devices whose session was shed by admission control and never got
    /// a verdict (client saw `SERVER_BUSY` as its final answer).
    pub shed: u64,
    /// Devices that failed without a verdict (network errors, timeouts).
    pub failed: u64,
    /// Extra attempts the clients made beyond their first (0 when no
    /// retry policy is configured or no fault forced a retry).
    pub retries: u64,
    /// Server-side per-outcome statistics, aggregated across shards.
    pub stats: FleetStats,
    /// Server-side per-phase handshake timings, aggregated across shards.
    pub phases: PhaseStats,
    /// Per-session client-observed latencies, sorted ascending.
    latencies: Vec<Duration>,
}

impl FleetReport {
    /// Completed sessions per second of wall-clock time.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let done = (self.provisioned + self.rejected) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// Client-observed session latency at percentile `p` (0.0..=100.0).
    ///
    /// Returns `None` when no session completed (e.g. every device timed
    /// out) — an absent percentile, not a misleading zero.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        percentile_of(&self.latencies, p)
    }

    /// Secure-world entries the round cost (msg1 + appraisal batches) —
    /// the world switches batching exists to amortize.
    #[must_use]
    pub fn world_switches(&self) -> u64 {
        self.stats.msg1_batches + self.stats.appraisal_batches
    }
}

/// Percentile `p` (0.0..=100.0) of an ascending-sorted latency list, or
/// `None` when empty — an absent percentile, not a misleading zero.
fn percentile_of(sorted: &[Duration], p: f64) -> Option<Duration> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank.min(sorted.len() - 1)])
}

/// Formats an optional latency percentile for reports: `-` when absent.
#[must_use]
pub fn fmt_latency(p: Option<Duration>) -> String {
    match p {
        Some(d) => format!("{d:.2?}"),
        None => "-".to_string(),
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet round: {} devices across {} shards in {:.2?}",
            self.devices, self.shards, self.elapsed
        )?;
        writeln!(
            f,
            "  client:  provisioned {}  rejected {}  shed {}  failed {}  (retries {})",
            self.provisioned, self.rejected, self.shed, self.failed, self.retries
        )?;
        writeln!(
            f,
            "  server:  served {}  rejected {}  malformed {}  timed-out {}  disconnected {}  shed {}",
            self.stats.served,
            self.stats.rejected,
            self.stats.malformed,
            self.stats.timed_out,
            self.stats.disconnected,
            self.stats.shed
        )?;
        writeln!(
            f,
            "  batching: {} appraisals in {} secure-world entries ({} world switches total)",
            self.stats.appraised,
            self.stats.appraisal_batches,
            self.world_switches()
        )?;
        for (name, samples) in self.phases.phases() {
            if let Some((p50, p95, p99)) = percentiles_us(samples) {
                writeln!(
                    f,
                    "  phase {name}: p50 {p50}us p95 {p95}us p99 {p99}us ({} samples)",
                    samples.len()
                )?;
            }
        }
        write!(
            f,
            "  throughput {:.0} sessions/s, latency p50 {} p95 {} p99 {}",
            self.throughput(),
            fmt_latency(self.latency_percentile(50.0)),
            fmt_latency(self.latency_percentile(95.0)),
            fmt_latency(self.latency_percentile(99.0))
        )
    }
}

/// Runs one attestation session as a fleet client against `net:port`,
/// delegating the Msg0→Msg3 exchange to [`AttestClient`]. With a retry
/// policy the full handshake is restarted on retryable faults; the second
/// value is the number of attempts made (1 = no retries).
///
/// Blocking (each device is its own thread in the simulator).
fn run_client(
    net: &Network,
    port: u16,
    service: &AttestationService,
    measurement: &[u8; 32],
    pinned: &[u8; 64],
    retry: Option<&RetryPolicy>,
    rng: &mut Fortuna,
) -> (ClientOutcome, u32) {
    let start = Instant::now();
    let client = AttestClient {
        net,
        port,
        service,
        measurement: *measurement,
        pinned_verifier_key: *pinned,
    };
    match retry {
        None => match client.attempt(0, RECV_TIMEOUT, rng) {
            Ok(secret) => (ClientOutcome::Provisioned(secret.len(), start.elapsed()), 1),
            Err(AttemptError::Rejected) => (ClientOutcome::Rejected(start.elapsed()), 1),
            Err(AttemptError::Busy) => (ClientOutcome::Shed, 1),
            Err(_) => (ClientOutcome::Failed, 1),
        },
        Some(policy) => match client.attest(policy, rng) {
            Ok(outcome) => (
                ClientOutcome::Provisioned(outcome.secret.len(), start.elapsed()),
                outcome.attempts,
            ),
            Err(err) => {
                let attempts = err.attempts();
                let outcome = match err.last() {
                    AttemptError::Rejected => ClientOutcome::Rejected(start.elapsed()),
                    AttemptError::Busy => ClientOutcome::Shed,
                    _ => ClientOutcome::Failed,
                };
                (outcome, attempts)
            }
        },
    }
}

impl FleetSim {
    /// Boots the shards and registers the devices (round-robin across
    /// shards). Devices are *not* manufactured here: each one's platform,
    /// secure-boot chain and attestation key materialise on the first
    /// session that schedules it, so a fleet can be sized far beyond what
    /// eager boot-time manufacturing would fit in memory.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError`] if a shard fails secure boot, or if the shard
    /// count does not fit in the port range above `config.port`.
    pub fn boot(config: FleetSimConfig) -> Result<Self, TeeError> {
        // Shard k binds port + k; reject configs whose port arithmetic
        // would wrap (or panic in debug) in `run_with_workers`.
        let highest_shard = config.shards.max(1) - 1;
        if u16::try_from(highest_shard)
            .ok()
            .and_then(|k| config.port.checked_add(k))
            .is_none()
        {
            return Err(TeeError::Net(format!(
                "{} shards starting at port {} exceed the u16 port range",
                config.shards.max(1),
                config.port
            )));
        }
        let shards: Vec<Shard> = (0..config.shards.max(1))
            .map(|k| {
                let platform = Platform::new(PlatformConfig {
                    device_seed: format!("fleet-shard-{k}").into_bytes(),
                    ..PlatformConfig::default()
                });
                tz_hal::boot::install_genuine_chain(&platform).map_err(|_| TeeError::NotBooted)?;
                Ok(Shard {
                    os: TrustedOs::boot(platform)?,
                })
            })
            .collect::<Result<_, TeeError>>()?;

        let kinds = std::iter::repeat_n(DeviceKind::Endorsed, config.endorsed)
            .chain(std::iter::repeat_n(DeviceKind::Rogue, config.rogue))
            .chain(std::iter::repeat_n(DeviceKind::Stale, config.stale));
        let devices: Vec<LazyDevice> = kinds
            .enumerate()
            .map(|(id, kind)| LazyDevice {
                id: id as u32,
                shard: id % shards.len(),
                kind,
                cell: std::sync::OnceLock::new(),
            })
            .collect();

        Ok(FleetSim {
            config,
            shards,
            devices,
            measurement: Sha256::digest(b"fleet reference application"),
            verifier_identity_seed: b"fleet-owner identity".to_vec(),
        })
    }

    /// The device registry (id, shard assignment, kind, and — for
    /// manufactured devices — the endorsement key). Reading the registry
    /// never manufactures anything.
    #[must_use]
    pub fn registry(&self) -> Vec<DeviceRecord> {
        self.devices.iter().map(LazyDevice::record).collect()
    }

    /// How many devices have been manufactured so far (lazily, on first
    /// scheduled session).
    #[must_use]
    pub fn manufactured_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.cell.get().is_some())
            .count()
    }

    /// Whether device `id` has been manufactured.
    #[must_use]
    pub fn is_manufactured(&self, id: u32) -> bool {
        self.devices
            .get(id as usize)
            .is_some_and(|d| d.cell.get().is_some())
    }

    /// The reference measurement every device claims.
    #[must_use]
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// Builds the round's verifier configuration: endorses every
    /// scheduled endorsed AND stale device (stale ones must fail the
    /// version gate, not the endorsement check — that would conflate them
    /// with rogues).
    fn verifier_base(&self, scheduled: &[&LazyDevice]) -> VerifierConfig {
        let mut rng = Fortuna::from_seed(&self.verifier_identity_seed);
        let identity = SigningKey::generate(&mut rng);
        let mut base = VerifierConfig::new(identity)
            .trust_measurement(self.measurement)
            .require_min_version(1)
            .with_secret(b"fleet configuration secret".to_vec());
        for device in scheduled {
            if device.kind != DeviceKind::Rogue {
                base = base.endorse_device(device.device().service.public_key());
            }
        }
        base
    }

    /// Drains and returns the fault logs of every shard network — what the
    /// installed [`FaultPlan`] actually injected during the last round(s).
    /// Empty when no plan was installed.
    #[must_use]
    pub fn take_fault_log(&self) -> Vec<optee_sim::net::FaultEvent> {
        let mut log = Vec::new();
        for shard in &self.shards {
            log.extend(shard.os.shared_network().take_fault_log());
        }
        log
    }

    /// Runs one round with the configured worker count per shard.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_with_workers(self.config.workers_per_shard)
    }

    /// Runs one round over the whole fleet with an explicit worker count.
    ///
    /// Rounds are repeatable — fresh verifiers and fresh ephemeral
    /// session keys each time (benches sweep `workers` this way).
    #[must_use]
    pub fn run_with_workers(&self, workers: usize) -> FleetReport {
        let all: Vec<u32> = (0..self.devices.len() as u32).collect();
        self.run_devices(&all, workers)
    }

    /// Runs one round for the scheduled device ids only: manufactures any
    /// scheduled device that does not exist yet (first session = first
    /// boot), spawns a [`FleetVerifier`] per shard, drives each scheduled
    /// device through a concurrent attestation session, shuts the
    /// verifiers down and aggregates the report. Unscheduled devices are
    /// never manufactured.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range, or if a scheduled device fails
    /// secure boot while being manufactured (deterministic in the
    /// simulator — see [`LazyDevice::device`]).
    #[must_use]
    pub fn run_devices(&self, ids: &[u32], workers: usize) -> FleetReport {
        let scheduled: Vec<&LazyDevice> = ids
            .iter()
            .map(|id| {
                self.devices
                    .get(*id as usize)
                    .expect("scheduled device id in range")
            })
            .collect();
        // Manufacture every scheduled device (rogues included) before the
        // round clock starts, so a cold round times attestation, not
        // device boot — this is the "keyed on first session" moment.
        for device in &scheduled {
            let _ = device.device();
        }
        let base = self.verifier_base(&scheduled);
        let pinned = base.identity_public_key();

        let fleet_config = FleetConfig {
            workers: workers.max(1),
            session_timeout: self.config.session_timeout,
            max_sessions_per_worker: self.config.max_sessions_per_worker,
            max_queued_per_worker: self.config.max_queued_per_worker,
        };
        let verifiers: Vec<FleetVerifier> = self
            .shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let port = self.config.port + k as u16;
                FleetVerifier::spawn(&shard.os, base.clone(), fleet_config.clone(), port)
                    .expect("shard port free")
            })
            .collect();

        // Install the fault plan only after the verifiers are up: the
        // plan targets attestation traffic, not verifier bring-up. Client
        // connections dialled from here on carry the fault hooks.
        if let Some(plan) = &self.config.fault_plan {
            for shard in &self.shards {
                shard.os.shared_network().install_fault_plan(plan.clone());
            }
        }

        let outcomes: Arc<Mutex<Vec<(ClientOutcome, u32)>>> =
            Arc::new(Mutex::new(Vec::with_capacity(scheduled.len())));
        let started = Instant::now();
        std::thread::scope(|scope| {
            for device in &scheduled {
                let net = self.shards[device.shard].os.shared_network();
                let port = self.config.port + device.shard as u16;
                let measurement = self.measurement;
                let outcomes = Arc::clone(&outcomes);
                let service = &device.device().service;
                let id = device.id;
                let retry = self.config.retry.clone().map(|mut policy| {
                    // Each device jitters on its own seed lane so a burst
                    // of synchronised failures does not retry in lockstep.
                    policy.jitter_seed ^= 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(id) + 1);
                    policy
                });
                scope.spawn(move || {
                    let mut rng = Fortuna::from_seed(format!("client-{id}").as_bytes());
                    let outcome = run_client(
                        &net,
                        port,
                        service,
                        &measurement,
                        &pinned,
                        retry.as_ref(),
                        &mut rng,
                    );
                    outcomes.lock().push(outcome);
                });
            }
        });
        let elapsed = started.elapsed();

        if self.config.fault_plan.is_some() {
            for shard in &self.shards {
                shard.os.shared_network().clear_fault_plan();
            }
        }

        let mut stats = FleetStats::default();
        let mut phases = PhaseStats::default();
        for mut verifier in verifiers {
            // Join the workers first: the last sweep's phase flush lands
            // only once its worker exits, so snapshotting before the join
            // could drop tail samples.
            verifier.stop_and_join();
            phases.merge(&verifier.phase_stats());
            stats.merge(&verifier.stats());
        }

        let (mut provisioned, mut rejected, mut shed, mut failed) = (0u64, 0u64, 0u64, 0u64);
        let mut retries = 0u64;
        let mut latencies = Vec::new();
        for (outcome, attempts) in outcomes.lock().iter() {
            retries += u64::from(attempts.saturating_sub(1));
            match outcome {
                ClientOutcome::Provisioned(_, d) => {
                    provisioned += 1;
                    latencies.push(*d);
                }
                ClientOutcome::Rejected(d) => {
                    rejected += 1;
                    latencies.push(*d);
                }
                ClientOutcome::Shed => shed += 1,
                ClientOutcome::Failed => failed += 1,
            }
        }
        latencies.sort_unstable();

        FleetReport {
            devices: scheduled.len(),
            shards: self.shards.len(),
            elapsed,
            provisioned,
            rejected,
            shed,
            failed,
            retries,
            stats,
            phases,
            latencies,
        }
    }

    /// Runs an **open-loop** overload round against shard 0: sessions
    /// arrive on a fixed schedule (one every `interval`) regardless of
    /// whether earlier sessions have completed, which is how real fleets
    /// overload a verifier. Latency is measured from each session's
    /// *scheduled* arrival to its verdict, so queueing delay behind
    /// schedule is charged to the session (no coordinated omission).
    ///
    /// Generator threads each own a disjoint set of endorsed shard-0
    /// devices, so no device's attestation service is driven from two
    /// threads at once. Sessions are single-attempt: a `SERVER_BUSY`
    /// shed is this mode's terminal answer for the session.
    ///
    /// # Panics
    ///
    /// Panics if shard 0 has no endorsed device or the verifier port is
    /// taken.
    #[must_use]
    pub fn run_open_loop(&self, cfg: &OpenLoopConfig) -> OpenLoopReport {
        let shard = &self.shards[0];
        let scheduled: Vec<&LazyDevice> = self
            .devices
            .iter()
            .filter(|d| d.shard == 0 && d.kind == DeviceKind::Endorsed)
            .collect();
        assert!(
            !scheduled.is_empty(),
            "open-loop mode needs at least one endorsed device on shard 0"
        );
        for device in &scheduled {
            let _ = device.device();
        }
        let base = self.verifier_base(&scheduled);
        let pinned = base.identity_public_key();

        let fleet_config = FleetConfig {
            workers: cfg.workers.max(1),
            session_timeout: self.config.session_timeout,
            max_sessions_per_worker: self.config.max_sessions_per_worker,
            max_queued_per_worker: self.config.max_queued_per_worker,
        };
        let mut verifier = FleetVerifier::spawn(&shard.os, base, fleet_config, self.config.port)
            .expect("open-loop verifier port free");
        if let Some(plan) = &self.config.fault_plan {
            shard.os.shared_network().install_fault_plan(plan.clone());
        }

        let threads = cfg.client_threads.clamp(1, scheduled.len());
        let results: Arc<Mutex<Vec<ClientOutcome>>> =
            Arc::new(Mutex::new(Vec::with_capacity(cfg.sessions)));
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (t, &device) in scheduled.iter().enumerate().take(threads) {
                let net = shard.os.shared_network();
                let port = self.config.port;
                let measurement = self.measurement;
                let results = Arc::clone(&results);
                scope.spawn(move || {
                    let mut rng = Fortuna::from_seed(format!("openloop-{t}").as_bytes());
                    let client = AttestClient {
                        net: &net,
                        port,
                        service: &device.device().service,
                        measurement,
                        pinned_verifier_key: pinned,
                    };
                    // Thread t owns arrivals t, t+T, t+2T, ...
                    let mut i = t;
                    while i < cfg.sessions {
                        let due = started + cfg.interval.saturating_mul(i as u32);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let outcome = match client.attempt(0, RECV_TIMEOUT, &mut rng) {
                            Ok(secret) => ClientOutcome::Provisioned(secret.len(), due.elapsed()),
                            Err(AttemptError::Rejected) => ClientOutcome::Rejected(due.elapsed()),
                            Err(AttemptError::Busy) => ClientOutcome::Shed,
                            Err(_) => ClientOutcome::Failed,
                        };
                        results.lock().push(outcome);
                        i += threads;
                    }
                });
            }
        });
        let elapsed = started.elapsed();

        if self.config.fault_plan.is_some() {
            shard.os.shared_network().clear_fault_plan();
        }
        verifier.stop_and_join();
        let stats = verifier.stats();

        let (mut provisioned, mut rejected, mut shed, mut failed) = (0u64, 0u64, 0u64, 0u64);
        let mut latencies = Vec::new();
        for outcome in results.lock().iter() {
            match outcome {
                ClientOutcome::Provisioned(_, d) => {
                    provisioned += 1;
                    latencies.push(*d);
                }
                ClientOutcome::Rejected(d) => {
                    rejected += 1;
                    latencies.push(*d);
                }
                ClientOutcome::Shed => shed += 1,
                ClientOutcome::Failed => failed += 1,
            }
        }
        latencies.sort_unstable();

        OpenLoopReport {
            offered: cfg.sessions,
            interval: cfg.interval,
            elapsed,
            provisioned,
            rejected,
            shed,
            failed,
            stats,
            latencies,
        }
    }
}

/// Arrival schedule for [`FleetSim::run_open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Total sessions offered.
    pub sessions: usize,
    /// Gap between scheduled arrivals (offered rate = 1/interval).
    pub interval: Duration,
    /// Verifier worker threads on shard 0.
    pub workers: usize,
    /// Generator threads (clamped to the endorsed shard-0 device count —
    /// each thread owns its devices exclusively).
    pub client_threads: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            sessions: 64,
            interval: Duration::from_millis(5),
            workers: 2,
            client_threads: 8,
        }
    }
}

/// Result of one open-loop overload round.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Sessions offered on the arrival schedule.
    pub offered: usize,
    /// The scheduled inter-arrival gap.
    pub interval: Duration,
    /// Wall-clock duration of the round.
    pub elapsed: Duration,
    /// Sessions provisioned with the secret.
    pub provisioned: u64,
    /// Sessions rejected by appraisal.
    pub rejected: u64,
    /// Sessions shed by admission control (`SERVER_BUSY`).
    pub shed: u64,
    /// Sessions that failed without any answer.
    pub failed: u64,
    /// Server-side per-outcome statistics.
    pub stats: FleetStats,
    /// Scheduled-arrival → verdict latencies of answered sessions
    /// (provisioned + rejected), sorted ascending. Shed sessions are
    /// excluded: their fast `BUSY` reply is not a verdict.
    latencies: Vec<Duration>,
}

impl OpenLoopReport {
    /// The offered arrival rate in sessions per second.
    #[must_use]
    pub fn offered_rate(&self) -> f64 {
        let secs = self.interval.as_secs_f64();
        if secs > 0.0 {
            1.0 / secs
        } else {
            0.0
        }
    }

    /// Scheduled-arrival → verdict latency at percentile `p`
    /// (0.0..=100.0); `None` when no session was answered.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<Duration> {
        percentile_of(&self.latencies, p)
    }
}

impl std::fmt::Display for OpenLoopReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "open-loop round: {} offered at {:.0}/s, done in {:.2?}",
            self.offered,
            self.offered_rate(),
            self.elapsed
        )?;
        writeln!(
            f,
            "  client:  provisioned {}  rejected {}  shed {}  failed {}",
            self.provisioned, self.rejected, self.shed, self.failed
        )?;
        writeln!(
            f,
            "  server:  served {}  shed {}  timed-out {}  disconnected {}",
            self.stats.served, self.stats.shed, self.stats.timed_out, self.stats.disconnected
        )?;
        write!(
            f,
            "  verdict latency from scheduled arrival: p50 {} p95 {} p99 {}",
            fmt_latency(self.latency_percentile(50.0)),
            fmt_latency(self.latency_percentile(95.0)),
            fmt_latency(self.latency_percentile(99.0))
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(latencies: Vec<Duration>, provisioned: u64, elapsed: Duration) -> FleetReport {
        FleetReport {
            devices: latencies.len(),
            shards: 1,
            elapsed,
            provisioned,
            rejected: 0,
            shed: 0,
            failed: 0,
            retries: 0,
            stats: FleetStats::default(),
            phases: PhaseStats::default(),
            latencies,
        }
    }

    #[test]
    fn latency_percentile_of_empty_report_is_absent_not_zero() {
        // A round where every session timed out has no latencies; the
        // percentiles must be absent rather than a misleading 0 (ROADMAP
        // open item).
        let r = report_with(vec![], 0, Duration::from_secs(1));
        assert_eq!(r.latency_percentile(50.0), None);
        assert_eq!(r.latency_percentile(99.0), None);
        assert_eq!(fmt_latency(r.latency_percentile(50.0)), "-");
        assert_eq!(r.throughput(), 0.0);
        // The Display form shows dashes, not zeros.
        let text = format!("{r}");
        assert!(text.contains("p50 - p95 - p99 -"), "{text}");
    }

    #[test]
    fn latency_percentiles_pick_sorted_ranks() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let r = report_with(lat, 100, Duration::from_secs(2));
        assert_eq!(r.latency_percentile(0.0), Some(Duration::from_millis(1)));
        assert_eq!(
            r.latency_percentile(100.0),
            Some(Duration::from_millis(100))
        );
        let p50 = r.latency_percentile(50.0).unwrap();
        assert!(p50 >= Duration::from_millis(50) && p50 <= Duration::from_millis(51));
        assert_eq!(r.throughput(), 50.0);
    }

    #[test]
    fn default_sim_config_is_a_runnable_shape() {
        let config = FleetSimConfig::default();
        assert!(config.shards >= 1);
        assert!(config.endorsed > 0);
        assert!(config.workers_per_shard >= 1);
    }
}
