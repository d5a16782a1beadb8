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
//!
//! A round ([`FleetSim::run_round`]) is a set of scheduled devices plus an
//! [`Arrivals`] schedule. Closed and open rounds differ only there (the
//! load generators of Schroeder et al., "Open Versus Closed", NSDI 2006):
//! both spawn one verifier per shard, run every session through
//! [`AttestClient::attest`] and tally one [`FleetReport`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use optee_sim::net::FaultPlan;
use optee_sim::{TeeError, TrustedOs};
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::attester::{AttemptError, AttestClient, RetryPolicy};
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::VerifierConfig;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;

use crate::service::{
    nearest_rank, percentiles_us, FleetConfig, FleetStats, FleetVerifier, PhaseStats,
};

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
    /// Every shard verifier's configuration. Its `workers` is the worker
    /// count [`FleetSim::run`] uses; the other rounds name their own.
    pub fleet: FleetConfig,
    /// Port the shard-0 verifier binds; shard `k` uses `port + k` (each
    /// shard has its own network, so this only aids log readability).
    pub port: u16,
    /// Fault plan installed on every shard's network for the duration of
    /// each round (`None` = clean transport, zero overhead).
    pub fault_plan: Option<FaultPlan>,
    /// Client retry policy. `None` = single-attempt clients; `Some`
    /// clients retry retryable faults, each device jittered on its own
    /// seed lane.
    pub retry: Option<RetryPolicy>,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            shards: 4,
            endorsed: 64,
            rogue: 4,
            stale: 4,
            fleet: FleetConfig::default(),
            port: 7700,
            fault_plan: None,
            retry: None,
        }
    }
}

/// When a round's sessions start. Open and closed rounds differ in
/// nothing else: the same verifiers, clients, tally and report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Every scheduled device starts one session at once, each on its own
    /// thread; latency runs from the session's own start.
    Closed,
    /// `sessions` arrivals, one every `interval` regardless of whether
    /// earlier sessions have completed, which is how real fleets overload
    /// a verifier. Generator thread `t` (of `client_threads`, at most one
    /// per scheduled device) drives arrivals `t, t + T, ...` on scheduled
    /// device `t`, so no device's attestation service is driven from two
    /// threads at once. Latency runs from each session's *scheduled*
    /// arrival, so queueing delay behind schedule is charged to the
    /// session (no coordinated omission).
    Open {
        /// Total sessions offered.
        sessions: usize,
        /// Gap between scheduled arrivals (offered rate = 1/interval).
        interval: Duration,
        /// Generator threads.
        client_threads: usize,
    },
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
    /// Rounds run so far: part of every client's RNG seed, so no two
    /// rounds share an ephemeral key.
    rounds: AtomicU64,
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

/// Outcome of one client-side session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientOutcome {
    /// Secret received after this long.
    Provisioned(Duration),
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
    /// Devices scheduled in this round.
    pub devices: usize,
    /// Shards the round ran across.
    pub shards: usize,
    /// The round's arrival schedule: an open round's offered count and
    /// rate.
    pub arrivals: Arrivals,
    /// Wall-clock duration of the round.
    pub elapsed: Duration,
    /// Sessions provisioned with the secret (client-side successes).
    pub provisioned: u64,
    /// Sessions rejected by appraisal (client-side rejections).
    pub rejected: u64,
    /// Sessions shed by admission control that never got a verdict
    /// (client saw `SERVER_BUSY` as its final answer).
    pub shed: u64,
    /// Sessions that failed without a verdict (network errors, timeouts).
    pub failed: u64,
    /// Extra attempts the clients made beyond their first (0 when no
    /// retry policy is configured or no fault forced a retry).
    pub retries: u64,
    /// Server-side per-outcome statistics, aggregated across shards.
    pub stats: FleetStats,
    /// Server-side per-phase handshake timings, aggregated across shards.
    pub phases: PhaseStats,
    /// Client-observed latencies of answered sessions (provisioned +
    /// rejected), sorted ascending. Shed sessions are excluded: their fast
    /// `BUSY` reply is not a verdict.
    latencies: Vec<Duration>,
}

impl FleetReport {
    /// Answered sessions per second of wall-clock time.
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
        nearest_rank(&self.latencies, p)
    }

    /// How many latency samples the round recorded: one per answered
    /// session.
    #[must_use]
    pub fn latency_samples(&self) -> usize {
        self.latencies.len()
    }

    /// Secure-world entries the round cost (msg1 + appraisal batches) —
    /// the world switches batching exists to amortize.
    #[must_use]
    pub fn world_switches(&self) -> u64 {
        self.stats.msg1_batches + self.stats.appraisal_batches
    }
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
        write!(f, "fleet round: ")?;
        if let Arrivals::Open {
            sessions, interval, ..
        } = self.arrivals
        {
            write!(
                f,
                "{sessions} sessions offered at {:.0}/s, ",
                1.0 / interval.as_secs_f64()
            )?;
        }
        writeln!(
            f,
            "{} devices across {} shards in {:.2?}",
            self.devices, self.shards, self.elapsed
        )?;
        writeln!(
            f,
            "  client:  provisioned {}  rejected {}  shed {}  failed {}  (retries {})",
            self.provisioned, self.rejected, self.shed, self.failed, self.retries
        )?;
        writeln!(f, "  server:  {}", self.stats)?;
        for (name, samples) in self.phases.phases() {
            if let Some((p50, p95, p99)) = percentiles_us(samples) {
                writeln!(
                    f,
                    "  phase {name}: p50 {p50}us p95 {p95}us p99 {p99}us ({} samples)",
                    samples.len()
                )?;
            }
        }
        let from = match self.arrivals {
            Arrivals::Closed => "",
            Arrivals::Open { .. } => " from scheduled arrival",
        };
        write!(
            f,
            "  throughput {:.0} sessions/s, latency{from} p50 {} p95 {} p99 {}",
            self.throughput(),
            fmt_latency(self.latency_percentile(50.0)),
            fmt_latency(self.latency_percentile(95.0)),
            fmt_latency(self.latency_percentile(99.0))
        )
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
            rounds: AtomicU64::new(0),
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

    /// Runs one closed round over the whole fleet with the configured
    /// worker count per shard.
    #[must_use]
    pub fn run(&self) -> FleetReport {
        self.run_with_workers(self.config.fleet.workers)
    }

    /// Runs one closed round over the whole fleet with an explicit worker
    /// count.
    ///
    /// Rounds are repeatable — fresh verifiers and fresh ephemeral
    /// session keys each time (benches sweep `workers` this way).
    #[must_use]
    pub fn run_with_workers(&self, workers: usize) -> FleetReport {
        let all: Vec<u32> = (0..self.devices.len() as u32).collect();
        self.run_round(&all, workers, Arrivals::Closed)
    }

    /// Runs one round for the scheduled device ids only, on the given
    /// arrival schedule: manufactures any scheduled device that does not
    /// exist yet (first session = first boot), spawns a [`FleetVerifier`]
    /// with `workers` workers per shard, drives the scheduled devices'
    /// sessions, shuts the verifiers down and aggregates the report.
    /// Unscheduled devices are never manufactured.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range, if an open round schedules no
    /// device, if a shard port is taken, or if a scheduled device fails
    /// secure boot while being manufactured (deterministic in the
    /// simulator — see [`LazyDevice::device`]).
    #[must_use]
    pub fn run_round(&self, ids: &[u32], workers: usize, arrivals: Arrivals) -> FleetReport {
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
            ..self.config.fleet.clone()
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

        // A closed round is one lane per device with one session each.
        let (lanes, sessions) = match arrivals {
            Arrivals::Closed => (scheduled.len(), scheduled.len()),
            Arrivals::Open {
                sessions,
                client_threads,
                ..
            } => {
                assert!(!scheduled.is_empty(), "an open round needs a device");
                (client_threads.clamp(1, scheduled.len()), sessions)
            }
        };
        let round = self.rounds.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let outcomes: Vec<(ClientOutcome, u32)> = std::thread::scope(|scope| {
            let lanes: Vec<_> = scheduled
                .iter()
                .take(lanes)
                .enumerate()
                .map(|(t, device)| {
                    scope.spawn(move || {
                        let indices = (t..sessions).step_by(lanes);
                        self.run_lane(device, round, pinned, arrivals, started, indices)
                    })
                })
                .collect();
            lanes
                .into_iter()
                .flat_map(|lane| lane.join().expect("client lane"))
                .collect()
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

        let mut report = FleetReport {
            devices: scheduled.len(),
            shards: self.shards.len(),
            arrivals,
            elapsed,
            provisioned: 0,
            rejected: 0,
            shed: 0,
            failed: 0,
            retries: 0,
            stats,
            phases,
            latencies: Vec::new(),
        };
        for (outcome, attempts) in outcomes {
            report.retries += u64::from(attempts.saturating_sub(1));
            match outcome {
                ClientOutcome::Provisioned(d) => {
                    report.provisioned += 1;
                    report.latencies.push(d);
                }
                ClientOutcome::Rejected(d) => {
                    report.rejected += 1;
                    report.latencies.push(d);
                }
                ClientOutcome::Shed => report.shed += 1,
                ClientOutcome::Failed => report.failed += 1,
            }
        }
        report.latencies.sort_unstable();
        report
    }

    /// One client thread: runs `device`'s sessions for the given arrival
    /// indices, each through [`AttestClient::attest`] (one attempt unless
    /// the fleet has a retry policy), with an RNG seeded per (round,
    /// device) so no two rounds reuse an ephemeral key.
    fn run_lane(
        &self,
        device: &LazyDevice,
        round: u64,
        pinned: [u8; 64],
        arrivals: Arrivals,
        started: Instant,
        indices: impl Iterator<Item = usize>,
    ) -> Vec<(ClientOutcome, u32)> {
        let client = AttestClient {
            net: self.shards[device.shard].os.network(),
            port: self.config.port + device.shard as u16,
            service: &device.device().service,
            measurement: self.measurement,
            pinned_verifier_key: pinned,
        };
        let mut policy = self.config.retry.clone().unwrap_or(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        });
        // Each device jitters on its own seed lane so a burst of
        // synchronised failures does not retry in lockstep.
        policy.jitter_seed ^= 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(device.id) + 1);
        let mut rng = Fortuna::from_seed(format!("client-{round}-{}", device.id).as_bytes());
        indices
            .map(|i| {
                let start = match arrivals {
                    Arrivals::Closed => Instant::now(),
                    Arrivals::Open { interval, .. } => {
                        let due = started + interval.saturating_mul(i as u32);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        due
                    }
                };
                match client.attest(&policy, &mut rng) {
                    Ok(outcome) => (
                        ClientOutcome::Provisioned(start.elapsed()),
                        outcome.attempts,
                    ),
                    Err(err) => {
                        let outcome = match err.last() {
                            AttemptError::Rejected => ClientOutcome::Rejected(start.elapsed()),
                            AttemptError::Busy => ClientOutcome::Shed,
                            _ => ClientOutcome::Failed,
                        };
                        (outcome, err.attempts())
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(latencies: Vec<Duration>, provisioned: u64, elapsed: Duration) -> FleetReport {
        FleetReport {
            devices: latencies.len(),
            shards: 1,
            arrivals: Arrivals::Closed,
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
        assert!(config.fleet.workers >= 1);
    }
}
