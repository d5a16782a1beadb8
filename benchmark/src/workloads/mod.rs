//! The five workloads. Each sets up from a seed, runs for a time budget
//! with every output checked against a known answer, and, in the traced
//! run, reports what its layers did.

pub mod blob_provision;
pub mod cold_start;
pub mod fleet_handshake;
pub mod minisql_warm;
pub mod polybench_warm;

use std::time::Duration;

use tz_hal::PlatformConfig;
use watz_runtime::WatzRuntime;
use watz_wasm::exec::Value;

use crate::gen::Expect;
use crate::metrics::Layers;
use crate::trace::Tracer;
use crate::{Outcome, Sizes};

/// A set-up workload.
pub trait Workload {
    /// Runs rounds until `budget` is spent (always at least one), checking
    /// every output. Spans go to `tr` when it is on.
    fn run(&mut self, budget: Duration, tr: &mut Tracer) -> Outcome;

    /// Traced run only: measures the layers this workload uses and records
    /// them next to what `outcome` (the traced loop's result) implies.
    ///
    /// # Errors
    ///
    /// A probe that could not run, as text.
    fn layers(&mut self, outcome: &Outcome, out: &mut Layers) -> Result<(), String>;
}

/// Sets up workload `name` from `seed`: compiles guests, generates
/// modules and blobs, boots devices, spawns verifiers, computes reference
/// answers. Everything here is counted in `setup_s`.
///
/// # Errors
///
/// An unknown name, or a set-up step that failed, as text.
pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "polybench_warm" => Box::new(polybench_warm::PolybenchWarm::setup(seed, sizes)?),
        "minisql_warm" => Box::new(minisql_warm::MinisqlWarm::setup(seed, sizes)?),
        "cold_start" => Box::new(cold_start::ColdStart::setup(seed, sizes)?),
        "fleet_handshake" => Box::new(fleet_handshake::FleetHandshake::setup(seed, sizes)?),
        "blob_provision" => Box::new(blob_provision::BlobProvision::setup(seed, sizes)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Boots a device whose world switch costs what the paper measured
/// (86 us in, 20 us out): that cost is what a WaTZ user pays per call.
pub(crate) fn boot_device(seed: u64, role: &str) -> Result<WatzRuntime, String> {
    WatzRuntime::new_device_with(
        format!("benchmark-{seed}-{role}").as_bytes(),
        PlatformConfig::with_paper_latencies(),
    )
    .map_err(|e| e.to_string())
}

/// `None` when `got` is the expected single value, else what differed.
pub(crate) fn mismatch(got: &[Value], expect: Expect) -> Option<String> {
    let ok = match (got, expect) {
        ([Value::I32(v)], Expect::I32(e)) => *v == e,
        ([Value::I64(v)], Expect::I64(e)) => *v == e,
        // Same tolerance as the native-vs-Wasm differential test.
        ([Value::F64(v)], Expect::F64(e)) => (v - e).abs() <= e.abs().max(1.0) * 1e-9,
        _ => false,
    };
    (!ok).then(|| format!("got {got:?}, expected {expect:?}"))
}

/// The single expected value a reference run returned.
pub(crate) fn expect_of(values: &[Value]) -> Result<Expect, String> {
    match values {
        [Value::I32(v)] => Ok(Expect::I32(*v)),
        [Value::I64(v)] => Ok(Expect::I64(*v)),
        [Value::F64(v)] => Ok(Expect::F64(*v)),
        other => Err(format!("reference returned {other:?}")),
    }
}
