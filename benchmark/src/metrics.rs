//! The metric names this benchmark emits, in one place. `BENCHMARK.json`
//! declares the same lists and a test keeps the two in step.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric: name, unit, direction.
pub type Decl = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "polybench_warm",
    "minisql_warm",
    "cold_start",
    "fleet_handshake",
    "blob_provision",
];

/// End-to-end metrics, measured with tracing off. Every workload emits
/// every one; what `op` means on each workload is in the README.
pub const END_TO_END: [Decl; 4] = [
    ("setup_s", "s", Lower),
    ("op_ms", "ms", Lower),
    ("ops_per_s", "1/s", Higher),
    ("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics of the traced run. A workload that never calls a
/// layer reports 0 for it.
pub const PER_LAYER: [Decl; 90] = [
    // Load-time compile pipeline, summed over the workload's modules.
    ("watz-wasm.decode_ms", "ms", Lower),
    ("watz-wasm.validate_ms", "ms", Lower),
    ("watz-wasm.instantiate_ms", "ms", Lower),
    ("watz-wasm.lower_ms", "ms", Lower),
    ("watz-wasm.fuse_ms", "ms", Lower),
    ("watz-wasm.regalloc_ms", "ms", Lower),
    ("watz-wasm.elide_ms", "ms", Lower),
    ("watz-wasm.verify_ms", "ms", Lower),
    ("watz-wasm.compile_mb_per_s", "MB/s", Higher),
    ("watz-wasm.fused_ops", "count", Higher),
    ("watz-wasm.reg_ops", "count", Lower),
    ("watz-wasm.proven_accesses", "count", Higher),
    ("watz-wasm.elided_accesses", "count", Higher),
    ("watz-wasm.verified_ops", "count", Lower),
    // Dispatch loop, one counting pass over the workload's op list.
    ("watz-wasm.instret", "count", Lower),
    ("watz-wasm.host_ops", "count", Lower),
    ("watz-wasm.ops_per_instr", "ratio", Lower),
    ("watz-wasm.loads", "count", Lower),
    ("watz-wasm.stores", "count", Lower),
    ("watz-wasm.calls", "count", Lower),
    ("watz-wasm.backedges", "count", Lower),
    ("watz-wasm.guest_mips", "M/s", Higher),
    ("watz-wasm.ns_per_dispatch", "ns", Lower),
    ("watz-wasm.interp_x", "ratio", Higher),
    ("watz-wasm.profile_overhead_x", "ratio", Lower),
    // Runtime startup pipeline, per round (sum over the round's loads).
    ("watz-runtime.load_ms", "ms", Lower),
    ("watz-runtime.stage_alloc_ms", "ms", Lower),
    ("watz-runtime.hash_ms", "ms", Lower),
    ("watz-runtime.init_ms", "ms", Lower),
    ("watz-runtime.loading_ms", "ms", Lower),
    ("watz-runtime.instantiate_ms", "ms", Lower),
    ("watz-runtime.transition_us", "us", Lower),
    ("watz-runtime.first_invoke_us", "us", Lower),
    ("watz-runtime.invoke_overhead_us", "us", Lower),
    // Primitives, called directly.
    ("watz-crypto.ecdhe_keygen_us", "us", Lower),
    ("watz-crypto.ecdh_shared_us", "us", Lower),
    ("watz-crypto.ecdsa_sign_us", "us", Lower),
    ("watz-crypto.ecdsa_verify_us", "us", Lower),
    ("watz-crypto.kdf_us", "us", Lower),
    ("watz-crypto.cmac_us", "us", Lower),
    ("watz-crypto.sha256_mb_per_s", "MB/s", Higher),
    ("watz-crypto.gcm_encrypt_mb_per_s", "MB/s", Higher),
    ("watz-crypto.gcm_decrypt_mb_per_s", "MB/s", Higher),
    // Protocol step functions, one lock-step session in process.
    ("watz-attestation.attester_msg0_us", "us", Lower),
    ("watz-attestation.verifier_msg0_us", "us", Lower),
    ("watz-attestation.attester_msg1_us", "us", Lower),
    ("watz-attestation.attester_msg2_us", "us", Lower),
    ("watz-attestation.verifier_msg2_us", "us", Lower),
    ("watz-attestation.attester_msg3_us", "us", Lower),
    ("watz-attestation.session_cpu_us", "us", Lower),
    ("watz-attestation.asym_share", "ratio", Lower),
    ("watz-attestation.wire_bytes", "B", Lower),
    // Verifier service.
    ("watz-fleet.phase_accept_msg0_p50_us", "us", Lower),
    ("watz-fleet.phase_msg0_msg1_p50_us", "us", Lower),
    ("watz-fleet.phase_msg1_msg2_p50_us", "us", Lower),
    ("watz-fleet.phase_msg2_msg3_p50_us", "us", Lower),
    ("watz-fleet.wait_msg1_us", "us", Lower),
    ("watz-fleet.wait_msg3_us", "us", Lower),
    ("watz-fleet.batch_mean", "ratio", Higher),
    ("watz-fleet.world_switches_per_session", "ratio", Lower),
    ("watz-fleet.shed", "count", Lower),
    ("watz-fleet.timed_out", "count", Lower),
    ("watz-fleet.disconnected", "count", Lower),
    ("watz-fleet.malformed", "count", Lower),
    ("watz-fleet.session_p95_ms", "ms", Lower),
    ("watz-fleet.session_p99_ms", "ms", Lower),
    ("watz-fleet.gen_lateness_p99_ms", "ms", Lower),
    // WASI-RA host calls, through the guest's exports.
    ("watz-wasi.ra_handshake_ms", "ms", Lower),
    ("watz-wasi.ra_collect_quote_us", "us", Lower),
    ("watz-wasi.ra_send_quote_us", "us", Lower),
    ("watz-wasi.ra_receive_ms", "ms", Lower),
    // Loopback transport.
    ("optee-sim.net_rtt_us", "us", Lower),
    ("optee-sim.net_mb_per_s", "MB/s", Higher),
    // Hardware model.
    ("tz-hal.world_switch_us", "us", Lower),
    ("tz-hal.shmem_mb_per_s", "MB/s", Higher),
    ("tz-hal.enters_per_op", "ratio", Lower),
    // The op classes inside each workload's op. These are the numbers a user
    // of that workload reads; they sit here because an end-to-end metric has
    // to exist on every workload. Fast tails like every reported time,
    // except the two medians, which show what the fast tail leaves out.
    ("op.pass_ms", "ms", Lower),
    ("op.wasm_native_x", "ratio", Lower),
    ("op.read_ms", "ms", Lower),
    ("op.write_ms", "ms", Lower),
    ("op.launch_small_ms", "ms", Lower),
    ("op.launch_unrolled_ms", "ms", Lower),
    ("op.launch_loopy_ms", "ms", Lower),
    ("op.launch_mb_per_s", "MB/s", Higher),
    ("op.sessions_per_s", "1/s", Higher),
    ("op.session_p50_ms", "ms", Lower),
    ("op.median_ms", "ms", Lower),
    ("op.blob_mb_per_s", "MB/s", Higher),
    // The traced loop's own headline, to set against the untraced `op_ms`.
    ("trace.op_ms", "ms", Lower),
    ("trace.spans", "count", Lower),
];

/// Values of the per-layer metrics of one traced run; unset names read 0.
#[derive(Debug, Default, Clone)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under a declared name.
    ///
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not declare: that is a typo in
    /// the benchmark, and silently dropping the number would hide it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "undeclared layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, 0 when the layer did not run.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the result line; `values`
/// runs parallel to `decls`.
#[must_use]
pub fn metrics_json(decls: &[Decl], values: &[f64]) -> Json {
    Json::obj(decls.iter().zip(values).map(|((name, unit, _), value)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}
