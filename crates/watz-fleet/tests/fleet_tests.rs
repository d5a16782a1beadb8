//! Concurrency tests for the fleet attestation service: many devices
//! against one service, stalled attesters, batched appraisal, and
//! per-outcome accounting.

use std::time::Duration;

use optee_sim::{TeeError, TrustedOs};
use tz_hal::{Platform, PlatformConfig};
use watz_attestation::attester::Attester;
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::{Verifier, VerifierConfig};
use watz_attestation::wire::{Msg1, Msg2, Msg3, INTEGRITY_FAILED, MSG3_RECORD_LEN};
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::sha256::Sha256;
use watz_fleet::sim::{Arrivals, DeviceKind, FleetSim, FleetSimConfig};
use watz_fleet::{
    appraise_batch, prepare_msg1_batch, ConfigError, FleetConfig, FleetVerifier, SpawnError,
};

fn booted_os(seed: &[u8]) -> TrustedOs {
    let platform = Platform::new(PlatformConfig {
        device_seed: seed.to_vec(),
        ..PlatformConfig::default()
    });
    tz_hal::boot::install_genuine_chain(&platform).unwrap();
    TrustedOs::boot(platform).unwrap()
}

fn measurement() -> [u8; 32] {
    Sha256::digest(b"fleet test app")
}

fn verifier_config_for(services: &[&AttestationService]) -> (VerifierConfig, [u8; 64]) {
    let mut rng = Fortuna::from_seed(b"fleet test verifier identity");
    let identity = SigningKey::generate(&mut rng);
    let mut config = VerifierConfig::new(identity)
        .trust_measurement(measurement())
        .with_secret(b"fleet secret".to_vec());
    for svc in services {
        config = config.endorse_device(svc.public_key());
    }
    let pinned = config.identity_public_key();
    (config, pinned)
}

/// Drives one honest client session; returns the decrypted secret.
fn honest_session(
    os: &TrustedOs,
    port: u16,
    service: &AttestationService,
    pinned: &[u8; 64],
    rng: &mut Fortuna,
) -> Vec<u8> {
    let conn = os.network().connect(port).unwrap();
    let (mut attester, msg0) = Attester::start(rng);
    conn.send(&msg0.to_bytes()).unwrap();
    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
    let (msg2, _) = attester
        .attest(&msg1, pinned, service, &measurement())
        .unwrap();
    conn.send(&msg2.to_bytes()).unwrap();
    let msg3 = Msg3::from_bytes(&conn.recv().unwrap()).unwrap();
    let (secret, _) = attester.handle_msg3(&msg3).unwrap();
    secret
}

#[test]
fn sixty_four_devices_attest_concurrently_against_one_service() {
    // The acceptance-criteria test: >= 64 simulated devices, one shard
    // (one service), correct per-outcome stats.
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: 64,
        rogue: 0,
        stale: 0,
        fleet: FleetConfig {
            workers: 4,
            session_timeout: Duration::from_secs(10),
            ..FleetConfig::default()
        },
        port: 7600,
        ..FleetSimConfig::default()
    })
    .unwrap();
    let report = sim.run();

    assert_eq!(report.devices, 64);
    assert_eq!(report.provisioned, 64, "every endorsed device is served");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.failed, 0);
    assert_eq!(report.stats.accepted, 64);
    assert_eq!(report.stats.served, 64);
    assert_eq!(report.stats.rejected, 0);
    assert_eq!(report.stats.malformed, 0);
    assert_eq!(report.stats.timed_out, 0);
    assert_eq!(report.stats.completed(), 64);
    assert_eq!(report.stats.appraised, 64);
    assert!(report.stats.appraisal_batches >= 1);
    assert!(report.stats.appraisal_batches <= report.stats.appraised);
    assert!(report.throughput() > 0.0);
    assert!(report.latency_percentile(50.0) <= report.latency_percentile(99.0));
    assert!(
        report.latency_percentile(50.0).is_some(),
        "completed sessions must yield latency percentiles"
    );
    // Every served session crossed all four handshake boundaries, so
    // each phase carries exactly one timing sample per session.
    for (name, samples) in report.phases.phases() {
        assert_eq!(samples.len(), 64, "phase {name} sample count");
    }
    assert_eq!(
        report.world_switches(),
        report.stats.msg1_batches + report.stats.appraisal_batches
    );
    assert!(
        report.world_switches() >= 2,
        "at least one msg1 batch and one appraisal batch"
    );
}

#[test]
fn mixed_fleet_outcomes_add_up_across_shards() {
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 4,
        endorsed: 24,
        rogue: 4,
        stale: 4,
        fleet: FleetConfig {
            workers: 2,
            session_timeout: Duration::from_secs(10),
            ..FleetConfig::default()
        },
        port: 7620,
        ..FleetSimConfig::default()
    })
    .unwrap();

    let registry = sim.registry();
    assert_eq!(registry.len(), 32);
    let shards_used: std::collections::HashSet<usize> = registry.iter().map(|d| d.shard).collect();
    assert_eq!(shards_used.len(), 4, "devices spread over all shards");

    let report = sim.run();
    assert_eq!(report.shards, 4);
    assert_eq!(report.provisioned, 24, "endorsed devices served");
    assert_eq!(
        report.rejected, 8,
        "rogue devices fail endorsement, stale ones the version gate"
    );
    assert_eq!(report.failed, 0);
    assert_eq!(report.stats.served, 24);
    assert_eq!(report.stats.rejected, 8);
    assert_eq!(report.stats.completed(), 32);
}

#[test]
fn stalled_mid_handshake_attester_does_not_block_other_sessions() {
    // One worker, a generous deadline: if the stalled session blocked the
    // worker, no honest session could complete before it times out.
    let os = booted_os(b"fleet-stall-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let fleet = FleetConfig {
        workers: 1,
        session_timeout: Duration::from_secs(30),
        ..FleetConfig::default()
    };
    let verifier = FleetVerifier::spawn(&os, config, fleet, 7640).unwrap();

    // Stall mid-handshake: send msg0, receive msg1, then go silent.
    let stalled = os.network().connect(7640).unwrap();
    let mut srng = Fortuna::from_seed(b"stalled client");
    let (_stalled_attester, msg0) = Attester::start(&mut srng);
    stalled.send(&msg0.to_bytes()).unwrap();
    let raw1 = stalled.recv().unwrap();
    assert!(Msg1::from_bytes(&raw1).is_ok());

    // Eight honest clients must all be served while the stalled session
    // is still in flight.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let os = os.clone();
                let service = &service;
                scope.spawn(move || {
                    let mut rng = Fortuna::from_seed(format!("honest-{i}").as_bytes());
                    honest_session(&os, 7640, service, &pinned, &mut rng)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), b"fleet secret");
        }
    });

    let live = verifier.stats();
    assert_eq!(live.served, 8, "honest sessions served while one stalls");
    assert_eq!(live.timed_out, 0, "the stalled session is still pending");

    // Unwedge the stalled session with garbage so shutdown's drain does
    // not have to wait out the 30 s deadline — and malformed accounting
    // gets exercised on the way.
    stalled.send(b"garbage instead of msg2").unwrap();
    assert_eq!(stalled.recv().unwrap(), INTEGRITY_FAILED);
    let stats = verifier.shutdown();
    assert_eq!(stats.served, 8);
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.completed(), 9);
}

#[test]
fn stalled_attester_is_evicted_and_counted_as_timed_out() {
    let os = booted_os(b"fleet-timeout-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let fleet = FleetConfig {
        workers: 2,
        session_timeout: Duration::from_millis(250),
        ..FleetConfig::default()
    };
    let verifier = FleetVerifier::spawn(&os, config, fleet, 7641).unwrap();

    // Connects and never sends anything at all.
    let stalled = os.network().connect(7641).unwrap();

    let mut rng = Fortuna::from_seed(b"honest after stall");
    let secret = honest_session(&os, 7641, &service, &pinned, &mut rng);
    assert_eq!(secret, b"fleet secret");

    // Shutdown drains: the stalled session is evicted at its deadline.
    let stats = verifier.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed(), 2);
    drop(stalled);
}

#[test]
fn peer_disconnects_are_accounted_as_disconnected_not_timed_out() {
    let os = booted_os(b"fleet-disconnect-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let fleet = FleetConfig {
        workers: 2,
        session_timeout: Duration::from_secs(30),
        ..FleetConfig::default()
    };
    let verifier = FleetVerifier::spawn(&os, config, fleet, 7643).unwrap();

    // One peer connects and hangs up without a word (AwaitMsg0 hangup);
    // another completes msg0->msg1 and then hangs up (AwaitMsg2 hangup).
    let ghost = os.network().connect(7643).unwrap();
    drop(ghost);
    let flake = os.network().connect(7643).unwrap();
    let mut frng = Fortuna::from_seed(b"flaky client");
    let (_flake_attester, msg0) = Attester::start(&mut frng);
    flake.send(&msg0.to_bytes()).unwrap();
    let raw1 = flake.recv().unwrap();
    assert!(Msg1::from_bytes(&raw1).is_ok());
    drop(flake);

    // An honest session still completes alongside the flappers.
    let mut rng = Fortuna::from_seed(b"honest among flappers");
    let secret = honest_session(&os, 7643, &service, &pinned, &mut rng);
    assert_eq!(secret, b"fleet secret");

    let stats = verifier.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(
        stats.disconnected, 2,
        "hangups get their own bucket, immediately (30 s deadline untouched)"
    );
    assert_eq!(stats.timed_out, 0, "a hangup is not a timeout");
    assert_eq!(stats.completed(), 3);
    assert_eq!(stats.accepted, stats.completed());
}

#[test]
fn drain_under_storm_loses_no_session() {
    // Storm the service and shut it down mid-traffic: every accepted
    // connection must still run to an outcome across the per-worker
    // admission channels — accepted == completed(), nothing silently
    // lost. Small per-worker caps force connections to queue in the
    // admission channels so the drain path actually drains them.
    let os = booted_os(b"fleet-drain-storm-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let fleet = FleetConfig {
        workers: 4,
        max_sessions_per_worker: 2,
        session_timeout: Duration::from_secs(10),
        ..FleetConfig::default()
    };
    let verifier = FleetVerifier::spawn(&os, config, fleet, 7644).unwrap();

    // 24 honest sessions complete through the queues...
    let service = std::sync::Arc::new(service);
    std::thread::scope(|scope| {
        for i in 0..24 {
            let os = os.clone();
            let service = std::sync::Arc::clone(&service);
            scope.spawn(move || {
                let mut rng = Fortuna::from_seed(format!("storm-{i}").as_bytes());
                let secret = honest_session(&os, 7644, &service, &pinned, &mut rng);
                assert_eq!(secret, b"fleet secret");
            });
        }
    });
    // ...then a hangup storm lands right before shutdown, so the drain
    // has to flush sessions it never got to speak to.
    for _ in 0..16 {
        drop(os.network().connect(7644).unwrap());
    }

    let stats = verifier.shutdown();
    assert_eq!(stats.accepted, 40);
    assert_eq!(
        stats.completed(),
        stats.accepted,
        "no session lost across the per-worker queues: {stats:?}"
    );
    assert_eq!(stats.served, 24);
    assert_eq!(stats.disconnected, 16);
}

#[test]
fn worker_scaling_is_not_negative() {
    // The worker-scaling regression test. On multi-core hosts the
    // event-driven design must scale (>= 2x at 4 workers); on the 1-2
    // core machines this suite also runs on, parallel speedup is
    // physically unavailable, so pin the original bug's symptom instead:
    // adding workers must not *cost* throughput (the polled shared-queue
    // design got slower with more workers).
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: 24,
        rogue: 0,
        stale: 0,
        fleet: FleetConfig {
            workers: 1,
            session_timeout: Duration::from_secs(10),
            ..FleetConfig::default()
        },
        port: 7680,
        ..FleetSimConfig::default()
    })
    .unwrap();
    // Warm-up round: manufactures all devices so neither timed round
    // pays the boot cost.
    let warm = sim.run_with_workers(1);
    assert_eq!(warm.provisioned, 24);

    let best = |workers: usize| {
        (0..3)
            .map(|_| {
                let r = sim.run_with_workers(workers);
                assert_eq!(
                    r.provisioned, 24,
                    "all sessions served at {workers} workers"
                );
                assert_eq!(r.stats.accepted, r.stats.completed());
                r.throughput()
            })
            .fold(0.0f64, f64::max)
    };
    let one = best(1);
    let four = best(4);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let ratio = four / one;
    if cores >= 4 {
        assert!(
            ratio >= 2.0,
            "4 workers must give >= 2x of 1 worker on a {cores}-core host (got {ratio:.2}x: {one:.0} -> {four:.0} sessions/s)"
        );
    } else {
        assert!(
            ratio >= 0.5,
            "extra workers must not cost throughput even on a {cores}-core host (got {ratio:.2}x: {one:.0} -> {four:.0} sessions/s)"
        );
    }
}

#[test]
fn batched_appraisal_uses_one_world_switch() {
    // Eight mid-session verifiers, eight msg2s, one enter_secure for all
    // the appraisals and all the releases. Each release is one record,
    // byte for byte the frame `handle_msg2` builds for a twin verifier in
    // the same session state.
    let os = booted_os(b"fleet-batch-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);

    let mut frames = Vec::new();
    let mut sessions: Vec<(Verifier, Msg2)> = (0..8)
        .map(|i| {
            let mut arng = Fortuna::from_seed(format!("batch-attester-{i}").as_bytes());
            let vseed = format!("batch-verifier-{i}");
            let (mut attester, msg0) = Attester::start(&mut arng);
            let mut verifier = Verifier::new(config.clone());
            let mut twin = Verifier::new(config.clone());
            let (msg1, _) = verifier
                .handle_msg0(&msg0, &mut Fortuna::from_seed(vseed.as_bytes()))
                .unwrap();
            twin.handle_msg0(&msg0, &mut Fortuna::from_seed(vseed.as_bytes()))
                .unwrap();
            let (msg2, _) = attester
                .attest(&msg1, &pinned, &service, &measurement())
                .unwrap();
            frames.push(vec![twin.handle_msg2(&msg2).unwrap().0.into_bytes()]);
            (verifier, msg2)
        })
        .collect();

    let platform = os.platform();
    let enters_before = platform.transition_stats().enters();
    let mut records = vec![Vec::new(); 8];
    let outcomes = appraise_batch(
        platform,
        sessions.iter_mut().map(|(v, m)| (v, &*m)).collect(),
        |i, record| {
            records[i].push(record.into_bytes());
            true
        },
    );
    let enters_after = platform.transition_stats().enters();

    assert_eq!(outcomes, vec![Ok(true); 8], "all appraised and released");
    assert_eq!(
        enters_after - enters_before,
        1,
        "the whole batch shares a single secure-world entry"
    );
    assert_eq!(records, frames);
}

#[test]
fn a_refused_record_stops_that_release_only() {
    // A sink that refuses session 1's first record: session 1 reports an
    // unfinished release and gets no second record; the sessions around
    // it still receive their whole secret, a 3-record blob each.
    let os = booted_os(b"fleet-refused-record-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let secret = vec![0x5a; 2 * MSG3_RECORD_LEN + 1];
    let config = config.with_secret(secret.clone());

    let mut sessions: Vec<(Attester, Verifier, Msg2)> = (0..3)
        .map(|i| {
            let mut arng = Fortuna::from_seed(format!("refused-attester-{i}").as_bytes());
            let (mut attester, msg0) = Attester::start(&mut arng);
            let mut verifier = Verifier::new(config.clone());
            let (msg1, _) = verifier
                .handle_msg0(&msg0, &mut Fortuna::from_seed(&[i]))
                .unwrap();
            let (msg2, _) = attester
                .attest(&msg1, &pinned, &service, &measurement())
                .unwrap();
            (attester, verifier, msg2)
        })
        .collect();

    let mut records: Vec<Vec<Msg3>> = vec![Vec::new(); 3];
    let outcomes = appraise_batch(
        os.platform(),
        sessions.iter_mut().map(|(_, v, m)| (v, &*m)).collect(),
        |i, record| {
            records[i].push(record);
            i != 1
        },
    );
    assert_eq!(outcomes, [Ok(true), Ok(false), Ok(true)]);
    assert_eq!(records.iter().map(Vec::len).collect::<Vec<_>>(), [3, 1, 3]);
    for i in [0, 2] {
        let attester = &mut sessions[i].0;
        let got: Vec<u8> = records[i]
            .iter()
            .flat_map(|r| attester.handle_msg3(r).unwrap().0)
            .collect();
        assert_eq!(got, secret);
    }
}

#[test]
fn batched_msg0_handling_uses_one_world_switch() {
    // Eight fresh sessions, eight msg0s, one enter_secure for all the
    // msg1 challenge derivations — mirroring the msg2 appraisal batch.
    let os = booted_os(b"fleet-msg0-batch-device");
    let service = AttestationService::install(&os);
    let (config, _pinned) = verifier_config_for(&[&service]);

    let mut sessions: Vec<(Verifier, watz_attestation::wire::Msg0)> = (0..8)
        .map(|i| {
            let mut arng = Fortuna::from_seed(format!("msg0-batch-attester-{i}").as_bytes());
            let (_attester, msg0) = Attester::start(&mut arng);
            (Verifier::new(config.clone()), msg0)
        })
        .collect();

    let platform = os.platform();
    let mut vrng = os.kernel_prng("msg0-batch-test");
    let enters_before = platform.transition_stats().enters();
    let outcomes = prepare_msg1_batch(
        platform,
        sessions.iter_mut().map(|(v, m)| (v, &*m)).collect(),
        &mut vrng,
    );
    let enters_after = platform.transition_stats().enters();

    assert_eq!(outcomes.len(), 8);
    assert!(outcomes.iter().all(Result::is_ok), "all msg1s derived");
    assert_eq!(
        enters_after - enters_before,
        1,
        "the whole msg0 batch shares a single secure-world entry"
    );
}

#[test]
fn fleet_service_batches_msg0s_end_to_end() {
    // Through the full service: sessions complete and the msg1-batch
    // world switches are both counted and bounded by the session count.
    let os = booted_os(b"fleet-msg0-e2e-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let verifier = FleetVerifier::spawn(&os, config, FleetConfig::default(), 7646).unwrap();

    let n = 12;
    let service = std::sync::Arc::new(service);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let os = os.clone();
            let service = std::sync::Arc::clone(&service);
            std::thread::spawn(move || {
                let mut rng = Fortuna::from_seed(format!("msg0-e2e-{i}").as_bytes());
                honest_session(&os, 7646, &service, &pinned, &mut rng)
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), b"fleet secret");
    }

    let stats = verifier.shutdown();
    assert_eq!(stats.served, n as u64);
    assert!(stats.msg1_batches >= 1, "msg0s go through batches");
    assert!(
        stats.msg1_batches <= stats.accepted,
        "never more msg1 batches than sessions"
    );
}

#[test]
fn malformed_msg0_counted_and_rejected_fast() {
    let os = booted_os(b"fleet-malformed-device");
    let service = AttestationService::install(&os);
    let (config, _pinned) = verifier_config_for(&[&service]);
    let verifier = FleetVerifier::spawn(&os, config, FleetConfig::default(), 7642).unwrap();

    let conn = os.network().connect(7642).unwrap();
    conn.send(b"definitely not a msg0").unwrap();
    assert_eq!(conn.recv().unwrap(), INTEGRITY_FAILED);

    let stats = verifier.shutdown();
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.completed(), 1);
}

#[test]
fn shard_networks_are_isolated_and_ports_freed_after_shutdown() {
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 2,
        endorsed: 4,
        rogue: 0,
        stale: 0,
        fleet: FleetConfig {
            workers: 1,
            session_timeout: Duration::from_secs(5),
            ..FleetConfig::default()
        },
        port: 7660,
        ..FleetSimConfig::default()
    })
    .unwrap();
    let report = sim.run();
    assert_eq!(report.provisioned, 4);

    // Rounds are repeatable: the shard ports were unbound on shutdown and
    // a second round rebinds them cleanly.
    let report2 = sim.run_with_workers(2);
    assert_eq!(report2.provisioned, 4);

    // Between rounds every shard network is back to zero bound ports.
    let os = booted_os(b"port-bookkeeping");
    let service = AttestationService::install(&os);
    let (config, _pinned) = verifier_config_for(&[&service]);
    assert!(!os.network().is_bound(7665));
    let verifier = FleetVerifier::spawn(&os, config, FleetConfig::default(), 7665).unwrap();
    assert!(os.network().is_bound(7665));
    assert_eq!(os.network().bound_ports(), vec![7665]);
    let _ = verifier.shutdown();
    assert!(!os.network().is_bound(7665));
    assert!(os.network().bound_ports().is_empty());

    // Device kinds land where the registry says.
    for record in sim.registry() {
        assert_eq!(record.kind, DeviceKind::Endorsed);
        assert!(record.shard < 2);
    }
}

#[test]
fn devices_manufacture_lazily_on_first_session() {
    // Boot registers specs only; manufacturing (platform, boot chain,
    // key derivation) happens on the first session that schedules a
    // device — a never-scheduled device is never manufactured, so
    // simulations can size past boot-time memory.
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: 6,
        rogue: 1,
        stale: 1,
        fleet: FleetConfig {
            workers: 2,
            session_timeout: Duration::from_secs(10),
            ..FleetConfig::default()
        },
        port: 7690,
        ..FleetSimConfig::default()
    })
    .unwrap();
    assert_eq!(sim.manufactured_count(), 0, "boot must not manufacture");
    let registry = sim.registry();
    assert_eq!(registry.len(), 8);
    assert!(
        registry.iter().all(|r| r.public_key.is_none()),
        "registry reads must not manufacture either"
    );

    // A partial round: only devices 0..3 (all endorsed) attest.
    let report = sim.run_round(&[0, 1, 2], 2, Arrivals::Closed);
    assert_eq!(report.devices, 3);
    assert_eq!(report.provisioned, 3);
    assert_eq!(report.failed, 0);
    assert_eq!(sim.manufactured_count(), 3, "only scheduled devices exist");
    assert!(sim.is_manufactured(0));
    assert!(
        !sim.is_manufactured(7),
        "never-scheduled device must never be manufactured"
    );
    let registry = sim.registry();
    assert!(registry[0].public_key.is_some(), "keyed on first session");
    assert!(registry[7].public_key.is_none());

    // A full round manufactures the rest exactly once and still lands
    // every verdict where the kinds say.
    let report = sim.run();
    assert_eq!(report.devices, 8);
    assert_eq!(report.provisioned, 6);
    assert_eq!(report.rejected, 2, "rogue + stale rejected");
    assert_eq!(sim.manufactured_count(), 8);
}

#[test]
fn open_round_accounts_for_every_offered_session() {
    // Sessions arrive on a schedule, not on completions, against one
    // worker with caps of 1 + 1: some are shed, some served, one device is
    // rogue. Only counts are asserted, never times.
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: 3,
        rogue: 1,
        stale: 0,
        fleet: FleetConfig {
            workers: 1,
            session_timeout: Duration::from_secs(10),
            max_sessions_per_worker: 1,
            max_queued_per_worker: 1,
        },
        port: 7695,
        ..FleetSimConfig::default()
    })
    .unwrap();
    let arrivals = Arrivals::Open {
        sessions: 24,
        interval: Duration::from_micros(200),
        client_threads: 4,
    };
    let report = sim.run_round(&[0, 1, 2, 3], 1, arrivals);
    assert_eq!(report.arrivals, arrivals);
    assert_eq!(
        report.provisioned + report.rejected + report.shed + report.failed,
        24,
        "every offered session lands in one client bucket: {report}"
    );
    assert_eq!(report.stats.accepted, report.stats.completed(), "{report}");
    assert_eq!(
        report.shed, report.stats.shed,
        "client and server agree on shed"
    );
    assert_eq!(
        report.latency_samples() as u64,
        report.provisioned + report.rejected,
        "one latency sample per answered session"
    );
}

#[test]
fn crash_at_every_handshake_phase_lands_in_disconnected() {
    // A client can die at any protocol boundary. Each hangup must resolve
    // promptly as `disconnected` (never `timed_out` — the 30 s deadline is
    // deliberately generous so a timeout misclassification would show),
    // the worker's session set must shrink back to empty, and the verdict
    // bookkeeping must stay exact.
    let os = booted_os(b"fleet-crash-phase-device");
    let service = AttestationService::install(&os);
    let (config, pinned) = verifier_config_for(&[&service]);
    let fleet = FleetConfig {
        workers: 2,
        session_timeout: Duration::from_secs(30),
        ..FleetConfig::default()
    };
    let verifier = FleetVerifier::spawn(&os, config, fleet, 7647).unwrap();

    // Phase 0: connect and hang up without a word.
    drop(os.network().connect(7647).unwrap());

    // Phase 1: hang up right after sending msg0.
    let mut rng = Fortuna::from_seed(b"crash-after-msg0");
    let c = os.network().connect(7647).unwrap();
    let (_attester, msg0) = Attester::start(&mut rng);
    c.send(&msg0.to_bytes()).unwrap();
    drop(c);

    // Phase 2: hang up after receiving msg1.
    let mut rng = Fortuna::from_seed(b"crash-after-msg1");
    let c = os.network().connect(7647).unwrap();
    let (_attester, msg0) = Attester::start(&mut rng);
    c.send(&msg0.to_bytes()).unwrap();
    assert!(Msg1::from_bytes(&c.recv().unwrap()).is_ok());
    drop(c);

    // Phase 3: hang up right after sending msg2 — the appraisal verdict
    // has nowhere to go, so the session must be re-accounted as a
    // disconnect rather than counted served. The reply path is closed
    // before msg2 goes out: a plain drop after the send races the worker's
    // verdict, and a verdict that wins that race was delivered.
    let mut rng = Fortuna::from_seed(b"crash-after-msg2");
    let mut c = os.network().connect(7647).unwrap();
    let (mut attester, msg0) = Attester::start(&mut rng);
    c.send(&msg0.to_bytes()).unwrap();
    let msg1 = Msg1::from_bytes(&c.recv().unwrap()).unwrap();
    let (msg2, _) = attester
        .attest(&msg1, &pinned, &service, &measurement())
        .unwrap();
    c.shutdown_recv();
    c.send(&msg2.to_bytes()).unwrap();
    drop(c);

    // An honest session still completes amid the wreckage.
    let mut rng = Fortuna::from_seed(b"honest-amid-crashes");
    let secret = honest_session(&os, 7647, &service, &pinned, &mut rng);
    assert_eq!(secret, b"fleet secret");

    // Hangups resolve without waiting out the 30 s deadline.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while verifier.live_sessions() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(verifier.live_sessions(), 0, "no leaked sessions");

    let stats = verifier.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(
        stats.disconnected, 4,
        "every crash phase lands in disconnected: {stats:?}"
    );
    assert_eq!(stats.timed_out, 0, "a hangup is never a timeout");
    assert_eq!(stats.completed(), stats.accepted);
}

#[test]
fn degenerate_fleet_config_is_rejected_at_spawn() {
    // Misconfigured fleets must fail fast with a typed error instead of
    // spawning workers that can never make progress.
    let os = booted_os(b"fleet-config-reject-device");
    let service = AttestationService::install(&os);
    let (config, _pinned) = verifier_config_for(&[&service]);

    for (bad, expect) in [
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
                max_sessions_per_worker: 0,
                ..FleetConfig::default()
            },
            ConfigError::ZeroSessionCap,
        ),
    ] {
        let err = FleetVerifier::spawn(&os, config.clone(), bad, 7648).unwrap_err();
        match err {
            SpawnError::Config(c) => assert_eq!(c, expect),
            SpawnError::Net(e) => panic!("expected a config rejection, got Net({e:?})"),
        }
        assert!(
            !os.network().is_bound(7648),
            "a rejected spawn must not leave the port bound"
        );
    }

    // A port conflict is a Net error, not a config error.
    let ok = FleetVerifier::spawn(&os, config.clone(), FleetConfig::default(), 7648).unwrap();
    let err = FleetVerifier::spawn(&os, config, FleetConfig::default(), 7648).unwrap_err();
    assert!(matches!(err, SpawnError::Net(_)));
    let _ = ok.shutdown();
}

#[test]
fn port_overflowing_shard_count_rejected_at_boot() {
    let err = FleetSim::boot(FleetSimConfig {
        shards: 10,
        port: 65530,
        ..FleetSimConfig::default()
    })
    .unwrap_err();
    assert!(matches!(err, TeeError::Net(_)));
}
