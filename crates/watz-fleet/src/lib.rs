//! **watz-fleet**: attestation as a service, at fleet scale.
//!
//! The paper's relying party (Fig 2) appraises one attester at a time.
//! This crate runs the same four-message protocol for fleets, and it is the
//! repository's one verifier session loop: `watz_runtime`'s
//! `VerifierServer` is a [`FleetVerifier`] with one worker.
//!
//! * [`service`] — a concurrent verifier service: an acceptor dispatches
//!   connections round-robin onto per-worker admission channels, every
//!   Msg0→Msg3 session runs as an explicit non-blocking state machine with
//!   a deadline (a slow or stalled attester never blocks the others), and
//!   queued `msg0`s and `msg2`s are handled in **batches** so one
//!   secure-world entry amortises across many sessions. A passing
//!   session's secret leaves as `msg3` records, each sent the moment it is
//!   sealed. Every session ends in one outcome bucket (served / rejected /
//!   malformed / timed-out / disconnected / shed).
//! * [`sim`] — a sharded device registry and simulator: boot N simulated
//!   devices across K shards (each shard its own `TrustedOs`/`Network`),
//!   drive them through concurrent attestation sessions, and report
//!   throughput and latency percentiles.
//!
//! # Example
//!
//! ```
//! use watz_fleet::sim::{FleetSim, FleetSimConfig};
//!
//! let sim = FleetSim::boot(FleetSimConfig {
//!     shards: 2,
//!     endorsed: 6,
//!     rogue: 1,
//!     stale: 1,
//!     ..FleetSimConfig::default()
//! })
//! .unwrap();
//! let report = sim.run();
//! assert_eq!(report.provisioned, 6);
//! assert_eq!(report.rejected, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod sim;

pub use service::{
    appraise_batch, percentiles_us, prepare_msg1_batch, ConfigError, FleetConfig, FleetStats,
    FleetVerifier, PhaseStats, SpawnError,
};
pub use sim::{
    DeviceKind, DeviceRecord, FleetReport, FleetSim, FleetSimConfig, OpenLoopConfig, OpenLoopReport,
};
