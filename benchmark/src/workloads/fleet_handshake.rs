//! `fleet_handshake` (Tab III and the fleet curve): Msg0-Msg3 sessions
//! against one `FleetVerifier` with a single worker. P-256 (ECDHE keygen,
//! ECDH, ECDSA sign and verify) is ~95 % of a session's CPU; GCM, SHA, the
//! Wasm engine and the compile pipeline do nothing; the fleet scheduler,
//! batching and the loopback transport sit on the blocking path.
//!
//! Two client threads, each owning a disjoint half of the devices, drive
//! two phases. Phase A is a closed loop (each thread opens its next
//! session when the previous one has its verdict) in rounds of a fixed
//! session count: it gives throughput. Phase B is an open loop at a fixed
//! arrival rate, timed from each session's *scheduled* arrival: it gives
//! latency at a rate below saturation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use optee_sim::net::{Network, RECV_TIMEOUT};
use watz_attestation::attester::{AttemptError, AttestClient};
use watz_attestation::service::AttestationService;
use watz_crypto::fortuna::Fortuna;
use watz_fleet::{FleetConfig, FleetStats, FleetVerifier, PhaseStats};
use watz_runtime::{RaVerifierConfig, WatzRuntime};

use super::{boot_device, Workload};
use crate::gen::{self, DeviceKind, Rng};
use crate::layers::{self, ReplyWaits, SessionEnd};
use crate::metrics::Layers;
use crate::stats::{fast, median, percentile, sorted};
use crate::trace::Tracer;
use crate::{Outcome, Sizes};

const NAME: &str = "fleet_handshake";
const PORT: u16 = 7700;
/// Client threads; fixed, so the offered load does not follow the host.
const THREADS: usize = 2;
/// Open-loop arrival rate, sessions per second: about a third of what the
/// closed loop sustains, so the latency is taken well below saturation.
const OPEN_RATE: f64 = 100.0;
/// Share of the time budget spent in the closed-loop phase.
const CLOSED_SHARE: f64 = 0.6;

struct Device {
    id: usize,
    kind: DeviceKind,
    service: Arc<AttestationService>,
    _rt: WatzRuntime,
}

/// See the module documentation.
pub struct FleetHandshake {
    verifier_rt: WatzRuntime,
    verifier: Option<FleetVerifier>,
    config: RaVerifierConfig,
    net: Arc<Network>,
    devices: Vec<Device>,
    measurement: [u8; 32],
    pinned: [u8; 64],
    secret: Vec<u8>,
    seed: u64,
    round_sessions: usize,
    // Kept from the run for the traced report.
    waits: Vec<ReplyWaits>,
    lateness_ms: Vec<f64>,
    stats: FleetStats,
    phases: PhaseStats,
}

/// One client thread's state.
struct Client<'a> {
    fleet: &'a FleetHandshake,
    mine: Vec<&'a Device>,
    cursor: usize,
    rng: Fortuna,
    tr: Tracer,
    waits: Vec<ReplyWaits>,
    /// Sessions that ended as they must.
    correct: u64,
    /// `(op, what went wrong)` of the others.
    wrong: Vec<(String, String)>,
}

impl Client<'_> {
    /// Runs one session for `device` and records whether the verdict is
    /// the one that device must get.
    fn session(&mut self, device: &Device, op_id: u64) {
        let f = self.fleet;
        let client = AttestClient {
            net: &f.net,
            port: PORT,
            service: &device.service,
            measurement: f.measurement,
            pinned_verifier_key: f.pinned,
        };
        let end = if self.tr.is_on() {
            let s = self.tr.begin("session", "benchmark", op_id, None);
            let (end, waits) =
                layers::traced_session(&mut self.tr, s, op_id, &client, &mut self.rng);
            self.tr.end(s);
            self.waits.push(waits);
            end
        } else {
            match client.attempt(0, RECV_TIMEOUT, &mut self.rng) {
                Ok(secret) => SessionEnd::Secret(secret),
                Err(AttemptError::Rejected) => SessionEnd::Rejected,
                Err(e) => SessionEnd::Failed(e.to_string()),
            }
        };
        let problem = match (device.kind, end) {
            (DeviceKind::Endorsed, SessionEnd::Secret(s)) if s == f.secret => None,
            (DeviceKind::Endorsed, SessionEnd::Secret(_)) => Some("wrong secret".to_string()),
            (DeviceKind::Rogue | DeviceKind::Stale, SessionEnd::Rejected) => None,
            (kind, end) => Some(format!("{kind:?} device ended with {end:?}")),
        };
        match problem {
            None => self.correct += 1,
            Some(why) => self
                .wrong
                .push((format!("session {op_id} device {}", device.id), why)),
        }
    }
}

impl FleetHandshake {
    /// Manufactures and boots the devices, endorses all but the rogues and
    /// spawns the verifier.
    ///
    /// # Errors
    ///
    /// A device that fails to boot or a port that is taken.
    pub fn setup(seed: u64, sizes: &Sizes) -> Result<Self, String> {
        let verifier_rt = boot_device(seed, "fleet-verifier")?;
        let (endorsed, rogue, stale) = sizes.devices;
        let mut devices = Vec::new();
        for (id, kind) in gen::device_order(seed, endorsed, rogue, stale)
            .into_iter()
            .enumerate()
        {
            let rt = boot_device(seed, &format!("fleet-device-{id}"))?;
            let service = match kind {
                DeviceKind::Stale => layers::stale_service(&rt),
                _ => Arc::clone(rt.attestation_service()),
            };
            devices.push(Device {
                id,
                kind,
                service,
                _rt: rt,
            });
        }
        let measurement = layers::sha256(b"benchmark fleet application");
        let secret = Rng::new(seed, "fleet secret").bytes(1024);
        let mut config = RaVerifierConfig::new(layers::identity_key("benchmark fleet owner"))
            .trust_measurement(measurement)
            .require_min_version(1)
            .with_secret(secret.clone());
        for d in devices.iter().filter(|d| d.kind != DeviceKind::Rogue) {
            config = config.endorse_device(d.service.public_key());
        }
        let verifier = FleetVerifier::spawn(
            verifier_rt.os(),
            config.clone(),
            FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            },
            PORT,
        )
        .map_err(|e| e.to_string())?;
        Ok(FleetHandshake {
            net: verifier_rt.os().shared_network(),
            pinned: config.identity_public_key(),
            verifier: Some(verifier),
            verifier_rt,
            config,
            devices,
            measurement,
            secret,
            seed,
            round_sessions: sizes.fleet_round,
            waits: Vec::new(),
            lateness_ms: Vec::new(),
            stats: FleetStats::default(),
            phases: PhaseStats::default(),
        })
    }

    /// Device kinds in session order (for the determinism tests).
    #[must_use]
    pub fn device_kinds(&self) -> Vec<DeviceKind> {
        self.devices.iter().map(|d| d.kind).collect()
    }

    fn clients(&self, tr: &Tracer) -> Vec<Client<'_>> {
        (0..THREADS)
            .map(|t| Client {
                fleet: self,
                mine: self.devices.iter().skip(t).step_by(THREADS).collect(),
                cursor: 0,
                rng: Fortuna::from_seed(format!("benchmark-{}-client-{t}", self.seed).as_bytes()),
                tr: if tr.is_on() {
                    Tracer::on(tr.origin(), t as u32 + 1)
                } else {
                    Tracer::off()
                },
                waits: Vec::new(),
                correct: 0,
                wrong: Vec::new(),
            })
            .collect()
    }
}

impl Workload for FleetHandshake {
    fn run(&mut self, budget: Duration, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let enters0 = layers::enters(self.verifier_rt.platform());
        let this: &FleetHandshake = self;
        let mut clients = this.clients(tr);
        let correct = |clients: &[Client<'_>]| clients.iter().map(|c| c.correct).sum::<u64>();

        // Phase A: closed loop, rounds of a fixed number of sessions.
        let closed_budget = budget.mul_f64(CLOSED_SHARE);
        let per_thread = this.round_sessions.div_ceil(THREADS);
        let started = Instant::now();
        let mut rates = Vec::new();
        let mut op_id = 0u64;
        loop {
            let correct_before = correct(&clients);
            let t = Instant::now();
            std::thread::scope(|scope| {
                for (k, c) in clients.iter_mut().enumerate() {
                    let base = op_id + (k * per_thread) as u64;
                    scope.spawn(move || {
                        for j in 0..per_thread {
                            let device = c.mine[c.cursor % c.mine.len()];
                            c.cursor += 1;
                            c.session(device, base + j as u64);
                        }
                    });
                }
            });
            let wall = t.elapsed();
            op_id += (THREADS * per_thread) as u64;
            rates.push((correct(&clients) - correct_before) as f64 / wall.as_secs_f64());
            out.rounds += 1;
            if started.elapsed() >= closed_budget {
                break;
            }
        }

        // Phase B: open loop at a fixed rate for the rest of the budget.
        let open_secs = budget
            .saturating_sub(started.elapsed())
            .as_secs_f64()
            .max(0.5);
        let sessions = (open_secs * OPEN_RATE).ceil() as usize;
        let per_thread_devices = this.devices.len().div_ceil(THREADS);
        let schedule = gen::arrival_schedule(this.seed, sessions, OPEN_RATE, per_thread_devices);
        let open_start = Instant::now();
        let per_thread_results: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(k, c)| {
                    let schedule = &schedule;
                    scope.spawn(move || {
                        let mut latencies = Vec::new();
                        let mut lateness = Vec::new();
                        // Thread k owns arrivals k, k+T, k+2T, ...
                        for (i, (offset, pick)) in
                            schedule.iter().enumerate().skip(k).step_by(THREADS)
                        {
                            let due = open_start + *offset;
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            lateness.push(due.elapsed().as_secs_f64() * 1e3);
                            let device = c.mine[pick % c.mine.len()];
                            c.session(device, op_id + i as u64);
                            latencies.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                        (latencies, lateness)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });

        let mut waits = Vec::new();
        for c in clients {
            out.attempted += c.correct;
            for (op, why) in c.wrong {
                out.check(NAME, || op, Some(why));
            }
            waits.extend(c.waits);
            tr.merge(c.tr);
        }
        let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
        for (lat, late) in per_thread_results {
            latencies.extend(lat);
            lateness.extend(late);
        }

        // Every session has its verdict; drain the verifier and check its
        // books: nothing shed, timed out or lost.
        out.enters = layers::enters(self.verifier_rt.platform()) - enters0;
        if let Some(verifier) = self.verifier.take() {
            self.phases = verifier.phase_stats();
            self.stats = verifier.shutdown();
        }
        let s = self.stats;
        let books = (s.shed + s.timed_out + s.disconnected + s.malformed != 0
            || s.accepted != s.completed()
            || s.accepted != out.attempted)
            .then(|| format!("verifier books do not balance: {s:?}"));
        out.check(NAME, || "verifier stats".to_string(), books);

        out.op_ms = fast(&latencies);
        // Not the fast tail here: a round is short and its rate spreads by
        // +-10 % on its own (four threads scheduled on two cores), so the
        // tail would measure scheduling luck, while P-256 arithmetic hardly
        // feels a busy neighbour (it is ALU-bound, the disturbance is in the
        // memory hierarchy).
        out.ops_per_s = median(&rates);
        out.detail.push(("op.sessions_per_s", "1/s", out.ops_per_s));
        out.detail
            .push(("op.session_p50_ms", "ms", median(&latencies)));
        out.detail
            .push(("closed_loop_rounds", "count", rates.len() as f64));
        out.detail
            .push(("open_loop_sessions", "count", latencies.len() as f64));
        self.waits = waits;
        out.op_samples = latencies;
        self.lateness_ms = lateness;
        out
    }

    fn layers(&mut self, outcome: &Outcome, out: &mut Layers) -> Result<(), String> {
        layers::record_crypto(out);
        let endorsed = self
            .devices
            .iter()
            .find(|d| d.kind == DeviceKind::Endorsed)
            .ok_or("no endorsed device")?;
        let steps = layers::record_attestation(
            out,
            &endorsed.service,
            &self.config,
            &self.measurement,
            40,
        )?;

        let p50 = |samples: &[u64]| watz_fleet::percentiles_us(samples).map_or(0.0, |p| p.0 as f64);
        out.set(
            "watz-fleet.phase_accept_msg0_p50_us",
            p50(&self.phases.accept_to_msg0),
        );
        out.set(
            "watz-fleet.phase_msg0_msg1_p50_us",
            p50(&self.phases.msg0_to_msg1),
        );
        out.set(
            "watz-fleet.phase_msg1_msg2_p50_us",
            p50(&self.phases.msg1_to_msg2),
        );
        out.set(
            "watz-fleet.phase_msg2_msg3_p50_us",
            p50(&self.phases.msg2_to_msg3),
        );
        let wait = |f: fn(&ReplyWaits) -> Duration| {
            median(
                &self
                    .waits
                    .iter()
                    .map(|w| f(w).as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        // What the client waited beyond the verifier's own step: queueing,
        // transport and the world switch.
        out.set(
            "watz-fleet.wait_msg1_us",
            (wait(|w| w.msg1) - steps.msg0_us).max(0.0),
        );
        out.set(
            "watz-fleet.wait_msg3_us",
            (wait(|w| w.msg3) - steps.msg2_us).max(0.0),
        );
        let s = self.stats;
        if s.appraisal_batches > 0 {
            out.set(
                "watz-fleet.batch_mean",
                s.appraised as f64 / s.appraisal_batches as f64,
            );
        }
        if s.completed() > 0 {
            out.set(
                "watz-fleet.world_switches_per_session",
                (s.msg1_batches + s.appraisal_batches) as f64 / s.completed() as f64,
            );
        }
        out.set("watz-fleet.shed", s.shed as f64);
        out.set("watz-fleet.timed_out", s.timed_out as f64);
        out.set("watz-fleet.disconnected", s.disconnected as f64);
        out.set("watz-fleet.malformed", s.malformed as f64);
        let lat = sorted(&outcome.op_samples);
        out.set("watz-fleet.session_p95_ms", percentile(&lat, 95.0));
        out.set("watz-fleet.session_p99_ms", percentile(&lat, 99.0));
        out.set(
            "watz-fleet.gen_lateness_p99_ms",
            percentile(&sorted(&self.lateness_ms), 99.0),
        );

        layers::record_net(out)?;
        layers::record_hal(out, self.verifier_rt.platform(), outcome)?;
        Ok(())
    }
}
