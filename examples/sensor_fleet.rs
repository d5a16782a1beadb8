//! A fleet of attested IoT devices — at scale. Two hundred simulated
//! devices across four shards attest concurrently against per-shard
//! relying parties; only endorsed devices running the reference bytecode
//! receive the configuration secret. Rogue devices (unendorsed keys) and
//! stale devices (outdated WaTZ version) are rejected.
//!
//! Run with: `cargo run --release --example sensor_fleet`

use std::time::Duration;

use watz::fleet::sim::{FleetSim, FleetSimConfig};
use watz::fleet::{DeviceKind, FleetConfig};

fn main() {
    let config = FleetSimConfig {
        shards: 4,
        endorsed: 180,
        rogue: 10,
        stale: 10,
        fleet: FleetConfig {
            workers: 4,
            session_timeout: Duration::from_secs(5),
            ..FleetConfig::default()
        },
        ..FleetSimConfig::default()
    };
    let total = config.endorsed + config.rogue + config.stale;
    println!(
        "booting {total} devices across {} shards ({} endorsed, {} rogue, {} stale)...",
        config.shards, config.endorsed, config.rogue, config.stale
    );
    let sim = FleetSim::boot(config).expect("fleet boot");

    let registry = sim.registry();
    let per_kind = |kind| registry.iter().filter(|d| d.kind == kind).count();
    println!(
        "registry: {} devices ({} endorsed / {} rogue / {} stale), measurement {:02x}{:02x}..",
        registry.len(),
        per_kind(DeviceKind::Endorsed),
        per_kind(DeviceKind::Rogue),
        per_kind(DeviceKind::Stale),
        sim.measurement()[0],
        sim.measurement()[1],
    );

    let report = sim.run();
    println!("{report}");

    // The fleet-wide invariants this example demonstrates.
    assert_eq!(report.provisioned, 180, "all endorsed devices provisioned");
    assert_eq!(report.rejected, 20, "all rogue and stale devices rejected");
    assert_eq!(report.failed, 0, "no session died without a verdict");
    assert_eq!(report.stats.completed(), 200);
    println!("fleet OK: 180 provisioned, 20 rejected, stats add up");
}
