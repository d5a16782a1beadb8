//! Fleet-scale attestation throughput: sessions/sec vs worker count.
//!
//! Goes beyond the paper (which appraises one attester at a time) toward
//! the ROADMAP's fleet-scale north star: one `watz-fleet` service, N
//! concurrent simulated devices, sweeping the verifier worker pool.
//! Scale the fleet with `WATZ_BENCH_N` (devices) and the rounds per
//! worker count with `WATZ_BENCH_REPS`.

use std::time::Duration;

use watz_bench::{header, reps, scale};
use watz_fleet::sim::{fmt_latency, Arrivals, FleetSim, FleetSimConfig};
use watz_fleet::FleetConfig;

fn main() {
    header(
        "Fleet attestation: sessions/sec vs worker count",
        "beyond-paper scaling experiment (watz-fleet, batched appraisal)",
    );
    let devices = scale(96);
    let rounds = reps(3);
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: devices,
        rogue: 0,
        stale: 0,
        fleet: FleetConfig {
            session_timeout: Duration::from_secs(10),
            ..FleetConfig::default()
        },
        ..FleetSimConfig::default()
    })
    .expect("fleet boot");
    println!("  {devices} devices, one shard, {rounds} rounds per point");

    let mut one_worker_rate = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        let mut reports: Vec<_> = (0..rounds.max(1))
            .map(|_| sim.run_with_workers(workers))
            .collect();
        reports.sort_by(|a, b| a.throughput().total_cmp(&b.throughput()));
        let median = &reports[reports.len() / 2];
        if workers == 1 {
            one_worker_rate = median.throughput();
        }
        println!(
            "  workers {workers:>2}: {:>8.0} sessions/s   p50 {:>9}  p95 {:>9}  p99 {:>9}  batches/appraisals {}/{}",
            median.throughput(),
            fmt_latency(median.latency_percentile(50.0)),
            fmt_latency(median.latency_percentile(95.0)),
            fmt_latency(median.latency_percentile(99.0)),
            median.stats.appraisal_batches,
            median.stats.appraised,
        );
    }

    // --- Open-loop overload: arrivals faster than capacity. ---
    // A fixed arrival schedule at ~3x the 1-worker closed-loop rate just
    // measured; latency is taken from the *scheduled* arrival, so
    // queueing delay counts (coordinated-omission corrected). Tight
    // admission caps make the verifier shed the excess with BUSY instead
    // of queueing without bound — the honest overload numbers, shed
    // counts included.
    let offered_rate = 3.0 * one_worker_rate.max(1.0);
    let overload_devices = devices.min(32);
    let overload_sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: overload_devices,
        rogue: 0,
        stale: 0,
        fleet: FleetConfig {
            session_timeout: Duration::from_secs(30),
            max_sessions_per_worker: 4,
            max_queued_per_worker: 4,
            ..FleetConfig::default()
        },
        port: 7702,
        ..FleetSimConfig::default()
    })
    .expect("overload fleet boot");
    let arrivals = Arrivals::Open {
        sessions: devices * 2,
        interval: Duration::from_secs_f64(1.0 / offered_rate),
        client_threads: 16,
    };
    let ids: Vec<u32> = (0..overload_devices as u32).collect();
    let overload = overload_sim.run_round(&ids, 1, arrivals);
    println!("  open-loop overload (~3x 1-worker capacity, caps 4+4 per worker):");
    println!("{overload}");
}
