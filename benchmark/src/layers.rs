//! Every call the benchmark makes below the runtime facade lives here, so a
//! change to a layer's constructors or stats accessors breaks this file and
//! no other. The traced run uses these probes for its per-layer numbers;
//! set-up uses [`run_guest`] with the tree interpreter as reference oracle.
//!
//! Pass costs are taken from outside: a pass is charged the difference
//! between two whole instantiations that differ only in that pass, so a
//! pass's number also carries whatever else its flag switches on (the flat
//! range analysis always runs, the register-form one runs with `reg`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use optee_sim::net::{Network, RECV_TIMEOUT};
use tz_hal::Platform;
use watz_attestation::attester::{AttestClient, Attester};
use watz_attestation::service::AttestationService;
use watz_attestation::verifier::{Verifier, VerifierConfig};
use watz_attestation::wire::{Msg1, Msg3, APPRAISAL_FAILED};
use watz_attestation::StepTimings;
use watz_crypto::cmac::AesCmac;
use watz_crypto::ecdh::EphemeralKeyPair;
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::kdf::derive_session_keys;
use watz_crypto::sha256::Sha256;
use watz_runtime::{AppConfig, StartupBreakdown, WatzRuntime};
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::{ExecProfile, ProfileMode};

use crate::metrics::Layers;
use crate::stats::{fast, median};
use crate::trace::{SpanId, Tracer};
use crate::Outcome;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall time of one call of `f`, in seconds: the fast tail over `reps`
/// calls, like every reported time (see [`crate::stats::fast`]).
pub fn fast_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    fast(&samples)
}

// ---------------------------------------------------------------------------
// watz-wasm: compile pipeline
// ---------------------------------------------------------------------------

/// Load-time cost and exact pass counts of one module.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileCost {
    /// Module size.
    pub bytes: usize,
    /// `decode::decode`.
    pub decode_ms: f64,
    /// `validate::validate`.
    pub validate_ms: f64,
    /// Whole production instantiation (lower + fuse + regalloc + elide).
    pub instantiate_ms: f64,
    /// Aot unfused minus interpreted.
    pub lower_ms: f64,
    /// Plus fusion.
    pub fuse_ms: f64,
    /// Plus register allocation.
    pub regalloc_ms: f64,
    /// Plus the elision rewrite.
    pub elide_ms: f64,
    /// `Instance::verify_ir`.
    pub verify_ms: f64,
    /// Superinstructions emitted.
    pub fused_ops: u64,
    /// Register opcodes after lowering.
    pub reg_ops: u64,
    /// Accesses proven in bounds.
    pub proven: u64,
    /// Proven accesses rewritten check-free.
    pub elided: u64,
    /// Opcodes the verifier walked (flat + register).
    pub verified_ops: u64,
}

/// Measures one module, `reps` samples per figure.
///
/// # Errors
///
/// The decode, validation or instantiation error as text.
pub fn compile_cost(wasm: &[u8], reps: usize) -> Result<CompileCost, String> {
    let module = watz_wasm::decode::decode(wasm).map_err(|e| e.to_string())?;
    watz_wasm::validate::validate(&module).map_err(|e| e.to_string())?;
    let decode_ms = 1e3
        * fast_secs(reps, || {
            std::hint::black_box(watz_wasm::decode::decode(std::hint::black_box(wasm)).ok());
        });
    let validate_ms = 1e3
        * fast_secs(reps, || {
            std::hint::black_box(watz_wasm::validate::validate(&module).ok());
        });
    // (mode, fuse, reg, elide) ladder; each rung adds one pass.
    let ladder = [
        (ExecMode::Interpreted, false, false, false),
        (ExecMode::Aot, false, false, false),
        (ExecMode::Aot, true, false, false),
        (ExecMode::Aot, true, true, false),
        (ExecMode::Aot, true, true, true),
    ];
    let mut rung_ms = [0.0f64; 5];
    for (slot, (mode, fuse, reg, elide)) in rung_ms.iter_mut().zip(ladder) {
        *slot = 1e3
            * fast_secs(reps, || {
                std::hint::black_box(
                    Instance::instantiate_with_analysis(
                        &module,
                        mode,
                        fuse,
                        reg,
                        elide,
                        false,
                        &mut NoHost,
                    )
                    .ok(),
                );
            });
    }
    let step = |i: usize| (rung_ms[i] - rung_ms[i - 1]).max(0.0);
    let inst = Instance::instantiate_with_analysis(
        &module,
        ExecMode::Aot,
        true,
        true,
        true,
        false,
        &mut NoHost,
    )
    .map_err(|e| e.to_string())?;
    let verify_ms = 1e3
        * fast_secs(reps, || {
            std::hint::black_box(inst.verify_ir());
        });
    let verify = inst
        .verify_ir()
        .and_then(Result::ok)
        .ok_or("IR verification failed")?;
    let range = inst.range_stats().unwrap_or_default();
    Ok(CompileCost {
        bytes: wasm.len(),
        decode_ms,
        validate_ms,
        instantiate_ms: rung_ms[4],
        lower_ms: step(1),
        fuse_ms: step(2),
        regalloc_ms: step(3),
        elide_ms: step(4),
        verify_ms,
        fused_ops: inst.fusion_stats().map_or(0, |f| f.total()),
        reg_ops: verify.reg_ops,
        proven: range.proven(),
        elided: range.elided,
        verified_ops: verify.flat_ops + verify.reg_ops,
    })
}

/// Records the sum of `costs` under the `watz-wasm` compile metrics.
pub fn record_compile(out: &mut Layers, costs: &[CompileCost]) {
    let sum = |f: fn(&CompileCost) -> f64| costs.iter().map(f).sum::<f64>();
    let count = |f: fn(&CompileCost) -> u64| costs.iter().map(f).sum::<u64>() as f64;
    out.set("watz-wasm.decode_ms", sum(|c| c.decode_ms));
    out.set("watz-wasm.validate_ms", sum(|c| c.validate_ms));
    out.set("watz-wasm.instantiate_ms", sum(|c| c.instantiate_ms));
    out.set("watz-wasm.lower_ms", sum(|c| c.lower_ms));
    out.set("watz-wasm.fuse_ms", sum(|c| c.fuse_ms));
    out.set("watz-wasm.regalloc_ms", sum(|c| c.regalloc_ms));
    out.set("watz-wasm.elide_ms", sum(|c| c.elide_ms));
    out.set("watz-wasm.verify_ms", sum(|c| c.verify_ms));
    let total_ms = sum(|c| c.decode_ms + c.validate_ms + c.instantiate_ms);
    if total_ms > 0.0 {
        let mb = sum(|c| c.bytes as f64) / 1e6;
        out.set("watz-wasm.compile_mb_per_s", mb / (total_ms / 1e3));
    }
    out.set("watz-wasm.fused_ops", count(|c| c.fused_ops));
    out.set("watz-wasm.reg_ops", count(|c| c.reg_ops));
    out.set("watz-wasm.proven_accesses", count(|c| c.proven));
    out.set("watz-wasm.elided_accesses", count(|c| c.elided));
    out.set("watz-wasm.verified_ops", count(|c| c.verified_ops));
}

// ---------------------------------------------------------------------------
// watz-wasm: dispatch loop
// ---------------------------------------------------------------------------

/// One export call: name and arguments.
pub type Call = (String, Vec<Value>);

/// Result of running a list of calls on a bare engine instance.
#[derive(Debug, Clone)]
pub struct GuestRun {
    /// What each call returned.
    pub results: Vec<Vec<Value>>,
    /// Counters, when counting was on.
    pub profile: Option<ExecProfile>,
    /// Wall time of the calls (instantiation excluded).
    pub elapsed: Duration,
}

/// Instantiates `wasm` outside the TEE (no host imports) in `mode` and
/// runs `calls` in order. `ExecMode::Interpreted` is the tree oracle that
/// reference answers come from; `count` selects the counting dispatch loop.
///
/// # Errors
///
/// Load errors and traps, as text.
pub fn run_guest(
    wasm: &[u8],
    mode: ExecMode,
    count: bool,
    calls: &[Call],
) -> Result<GuestRun, String> {
    let module = watz_wasm::load(wasm).map_err(|e| e.to_string())?;
    let profile = if count {
        ProfileMode::Count
    } else {
        ProfileMode::Off
    };
    let mut inst =
        Instance::instantiate_with_profile(&module, mode, true, true, profile, &mut NoHost)
            .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut results = Vec::with_capacity(calls.len());
    for (name, args) in calls {
        results.push(
            inst.invoke(&mut NoHost, name, args)
                .map_err(|e| format!("{name}: {e}"))?,
        );
    }
    Ok(GuestRun {
        results,
        elapsed: t.elapsed(),
        profile: inst.profile().cloned(),
    })
}

/// Records the dispatch-loop counters of one counting pass, and the rates
/// they imply given the untraced wall time `op_secs` of the same pass.
pub fn record_exec(out: &mut Layers, profile: &ExecProfile, op_secs: f64) {
    out.set("watz-wasm.instret", profile.instret as f64);
    out.set("watz-wasm.host_ops", profile.host_ops as f64);
    out.set("watz-wasm.ops_per_instr", profile.ops_per_instr());
    out.set("watz-wasm.loads", profile.loads() as f64);
    out.set("watz-wasm.stores", profile.stores() as f64);
    out.set("watz-wasm.calls", profile.calls() as f64);
    out.set("watz-wasm.backedges", profile.backedges as f64);
    if op_secs > 0.0 && profile.host_ops > 0 {
        out.set(
            "watz-wasm.guest_mips",
            profile.instret as f64 / op_secs / 1e6,
        );
        out.set(
            "watz-wasm.ns_per_dispatch",
            op_secs * 1e9 / profile.host_ops as f64,
        );
    }
}

// ---------------------------------------------------------------------------
// watz-runtime
// ---------------------------------------------------------------------------

/// Per-round sums of the startup phases the runtime reports for each load.
#[derive(Debug, Default, Clone)]
pub struct RuntimePhases {
    current: [f64; 8],
    rounds: Vec<[f64; 8]>,
}

impl RuntimePhases {
    /// Adds one launch: the `load` span measured outside, the phases the
    /// runtime returned for it, and the first invoke.
    pub fn add(&mut self, load: Duration, b: &StartupBreakdown) {
        let v = [
            ms(load),
            ms(b.memory_allocation),
            ms(b.hashing),
            ms(b.init),
            ms(b.loading),
            ms(b.instantiate),
            us(b.transition),
            us(b.execution),
        ];
        for (acc, x) in self.current.iter_mut().zip(v) {
            *acc += x;
        }
    }

    /// Closes the current round.
    pub fn end_round(&mut self) {
        self.rounds.push(std::mem::take(&mut self.current));
    }

    /// Records the fast tail over rounds of each phase sum.
    pub fn record(&self, out: &mut Layers) {
        const NAMES: [&str; 8] = [
            "watz-runtime.load_ms",
            "watz-runtime.stage_alloc_ms",
            "watz-runtime.hash_ms",
            "watz-runtime.init_ms",
            "watz-runtime.loading_ms",
            "watz-runtime.instantiate_ms",
            "watz-runtime.transition_us",
            "watz-runtime.first_invoke_us",
        ];
        for (i, name) in NAMES.into_iter().enumerate() {
            let col: Vec<f64> = self.rounds.iter().map(|r| r[i]).collect();
            out.set(name, fast(&col));
        }
    }
}

/// The startup phases as child spans of a `load` span.
pub fn startup_phase_spans(tr: &mut Tracer, load: SpanId, op_id: u64, b: &StartupBreakdown) {
    tr.add_phases(
        load,
        op_id,
        &[
            ("transition", "tz-hal", b.transition),
            ("stage_alloc", "watz-runtime", b.memory_allocation),
            ("hash", "watz-crypto", b.hashing),
            ("init", "watz-wasi", b.init),
            ("decode_validate", "watz-wasm", b.loading),
            ("instantiate", "watz-wasm", b.instantiate),
        ],
    );
}

/// What `WatzApp::invoke` adds on top of `Instance::invoke` for an export
/// that does nothing (the world switch plus the runtime's own bookkeeping),
/// followed by the hardware-model figures of [`record_hal`]: what every
/// workload that hosts a guest reports about the layers under it.
///
/// # Errors
///
/// Load errors and traps, as text.
pub fn record_runtime_host(
    out: &mut Layers,
    rt: &WatzRuntime,
    outcome: &Outcome,
) -> Result<(), String> {
    const SAMPLES: usize = 300;
    let wasm = minic::compile("int nop() { return 0; }").map_err(|e| e.to_string())?;
    let mut app = rt
        .load(&wasm, &AppConfig::default())
        .map_err(|e| e.to_string())?;
    let module = watz_wasm::load(&wasm).map_err(|e| e.to_string())?;
    let mut inst =
        Instance::instantiate(&module, ExecMode::Aot, &mut NoHost).map_err(|e| e.to_string())?;
    let through_runtime = fast_secs(SAMPLES, || {
        std::hint::black_box(app.invoke("nop", &[]).ok());
    });
    let bare = fast_secs(SAMPLES, || {
        std::hint::black_box(inst.invoke(&mut NoHost, "nop", &[]).ok());
    });
    out.set(
        "watz-runtime.invoke_overhead_us",
        (through_runtime - bare).max(0.0) * 1e6,
    );
    record_hal(out, rt.platform(), outcome)
}

// ---------------------------------------------------------------------------
// watz-crypto
// ---------------------------------------------------------------------------

/// SHA-256 throughput on 1 MiB (every launch hashes its module).
pub fn record_sha256(out: &mut Layers) {
    let data = crate::gen::Rng::new(1, "sha256 probe").bytes(1 << 20);
    let secs = fast_secs(9, || {
        std::hint::black_box(Sha256::digest(std::hint::black_box(&data)));
    });
    out.set(
        "watz-crypto.sha256_mb_per_s",
        data.len() as f64 / 1e6 / secs,
    );
}

/// The P-256 and symmetric primitives a session is built from, on fixed
/// seeded inputs, 200 samples each; AES-GCM both ways on 1 MiB.
pub fn record_crypto(out: &mut Layers) {
    const SAMPLES: usize = 200;
    let mut rng = Fortuna::from_seed(b"benchmark crypto probe");
    let peer = EphemeralKeyPair::generate(&mut rng);
    let peer_pub = peer.public_bytes();
    let local = EphemeralKeyPair::generate(&mut rng);
    let key = SigningKey::generate(&mut rng);
    let digest = Sha256::digest(b"benchmark digest");
    let sig = key.sign_deterministic(&digest);
    let shared = local.diffie_hellman(&peer_pub).unwrap_or([7; 32]);
    let keys = derive_session_keys(&shared);
    let content = [0x5au8; 192];

    let t = |f: &mut dyn FnMut()| 1e6 * fast_secs(SAMPLES, f);
    out.set(
        "watz-crypto.ecdhe_keygen_us",
        t(&mut || {
            std::hint::black_box(EphemeralKeyPair::generate(&mut rng));
        }),
    );
    out.set(
        "watz-crypto.ecdh_shared_us",
        t(&mut || {
            std::hint::black_box(local.diffie_hellman(&peer_pub).ok());
        }),
    );
    out.set(
        "watz-crypto.ecdsa_sign_us",
        t(&mut || {
            std::hint::black_box(key.sign_deterministic(&digest));
        }),
    );
    out.set(
        "watz-crypto.ecdsa_verify_us",
        t(&mut || {
            std::hint::black_box(key.verifying_key().verify(&digest, &sig));
        }),
    );
    out.set(
        "watz-crypto.kdf_us",
        t(&mut || {
            std::hint::black_box(derive_session_keys(std::hint::black_box(&shared)));
        }),
    );
    out.set(
        "watz-crypto.cmac_us",
        t(&mut || {
            std::hint::black_box(AesCmac::new(&keys.km).mac(&content));
        }),
    );

    let data = crate::gen::Rng::new(1, "gcm probe").bytes(1 << 20);
    let cipher = AesGcm128::new(&keys.ke);
    let iv = [1u8; 12];
    let mb = data.len() as f64 / 1e6;
    let enc = fast_secs(7, || {
        std::hint::black_box(cipher.encrypt(&iv, &data, b""));
    });
    let (ct, tag) = cipher.encrypt(&iv, &data, b"");
    let dec = fast_secs(7, || {
        std::hint::black_box(cipher.decrypt(&iv, &ct, b"", &tag).ok());
    });
    out.set("watz-crypto.gcm_encrypt_mb_per_s", mb / enc);
    out.set("watz-crypto.gcm_decrypt_mb_per_s", mb / dec);
    record_sha256(out);
}

// ---------------------------------------------------------------------------
// watz-attestation
// ---------------------------------------------------------------------------

/// Verifier-side step costs from the lock-step run, in microseconds; the
/// fleet workload subtracts them from the client's reply waits.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifierSteps {
    /// `Verifier::handle_msg0`.
    pub msg0_us: f64,
    /// `Verifier::handle_msg2`.
    pub msg2_us: f64,
}

/// Runs `sessions` complete sessions in one thread, attester and verifier
/// in lock step with no transport, and records each step's span, the
/// session's CPU cost, the P-256 share of it and the bytes on the wire.
///
/// # Errors
///
/// A protocol error as text: the inputs are well-formed, so any is a bug.
pub fn record_attestation(
    out: &mut Layers,
    service: &AttestationService,
    config: &VerifierConfig,
    measurement: &[u8; 32],
    sessions: usize,
) -> Result<VerifierSteps, String> {
    let pinned = config.identity_public_key();
    let mut arng = Fortuna::from_seed(b"benchmark attester");
    let mut vrng = Fortuna::from_seed(b"benchmark verifier");
    let mut steps: [Vec<f64>; 6] = Default::default();
    let (mut cpu, mut asym, mut wire) = (Vec::new(), Vec::new(), 0usize);
    let e = |e: watz_attestation::RaError| e.to_string();
    for _ in 0..sessions.max(1) {
        let mut total = StepTimings::default();
        let mut spans = [0.0f64; 6];
        let mut step = |slot: usize, t0: Instant, t: &StepTimings| {
            spans[slot] += us(t0.elapsed());
            total.memory += t.memory;
            total.key_generation += t.key_generation;
            total.symmetric += t.symmetric;
            total.asymmetric += t.asymmetric;
        };
        let t0 = Instant::now();
        let (mut attester, msg0, t) = Attester::start_timed(&mut arng);
        step(0, t0, &t);
        let mut verifier = Verifier::new(config.clone());
        let t0 = Instant::now();
        let (msg1, t) = verifier.handle_msg0(&msg0, &mut vrng).map_err(e)?;
        step(1, t0, &t);
        let t0 = Instant::now();
        let (_, t) = attester.handle_msg1(&msg1, &pinned).map_err(e)?;
        step(2, t0, &t);
        let t0 = Instant::now();
        let (quote, t) = attester.collect_quote(service, measurement).map_err(e)?;
        step(3, t0, &t);
        let t0 = Instant::now();
        let (msg2, t) = attester.build_msg2(quote).map_err(e)?;
        step(3, t0, &t);
        let t0 = Instant::now();
        let (msg3, t) = verifier.handle_msg2(&msg2).map_err(e)?;
        step(4, t0, &t);
        let t0 = Instant::now();
        let (_secret, t) = attester.handle_msg3(&msg3).map_err(e)?;
        step(5, t0, &t);
        for (col, v) in steps.iter_mut().zip(spans) {
            col.push(v);
        }
        cpu.push(spans.iter().sum::<f64>());
        let total_us = us(total.total());
        if total_us > 0.0 {
            asym.push(us(total.key_generation + total.asymmetric) / total_us);
        }
        wire = msg0.to_bytes().len()
            + msg1.to_bytes().len()
            + msg2.to_bytes().len()
            + msg3.to_bytes().len();
    }
    const NAMES: [&str; 6] = [
        "watz-attestation.attester_msg0_us",
        "watz-attestation.verifier_msg0_us",
        "watz-attestation.attester_msg1_us",
        "watz-attestation.attester_msg2_us",
        "watz-attestation.verifier_msg2_us",
        "watz-attestation.attester_msg3_us",
    ];
    for (name, col) in NAMES.into_iter().zip(&steps) {
        out.set(name, fast(col));
    }
    out.set("watz-attestation.session_cpu_us", fast(&cpu));
    out.set("watz-attestation.asym_share", median(&asym));
    out.set("watz-attestation.wire_bytes", wire as f64);
    Ok(VerifierSteps {
        msg0_us: fast(&steps[1]),
        msg2_us: fast(&steps[4]),
    })
}

/// Outcome of a client session driven step by step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// The secret arrived.
    Secret(Vec<u8>),
    /// The verifier answered with the appraisal-failed marker.
    Rejected,
    /// Anything else: refused, shed, timed out, garbled.
    Failed(String),
}

/// How long the client sat waiting for each reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplyWaits {
    /// msg0 sent to msg1 received.
    pub msg1: Duration,
    /// msg2 sent to verdict received.
    pub msg3: Duration,
}

/// One client session with the same message flow as
/// `AttestClient::attempt`, but stepped from here so that the traced run
/// can put a span around each reply wait.
pub fn traced_session(
    tr: &mut Tracer,
    parent: SpanId,
    op_id: u64,
    client: &AttestClient<'_>,
    rng: &mut Fortuna,
) -> (SessionEnd, ReplyWaits) {
    let mut waits = ReplyWaits::default();
    let fail = |what: &str| SessionEnd::Failed(what.to_string());
    let Ok(conn) = client.net.connect(client.port) else {
        return (fail("connect refused"), waits);
    };
    let s = tr.begin("attester_msg0", "watz-attestation", op_id, parent);
    let (mut attester, msg0) = Attester::start(rng);
    tr.end(s);
    let s = tr.begin("wait_msg1", "watz-fleet", op_id, parent);
    let t = Instant::now();
    let sent = conn.send(&msg0.to_bytes());
    let raw1 = conn.recv_detailed(RECV_TIMEOUT);
    waits.msg1 = t.elapsed();
    tr.end(s);
    let (Ok(()), Ok(raw1)) = (sent, raw1) else {
        return (fail("no msg1"), waits);
    };
    let Ok(msg1) = Msg1::from_bytes(&raw1) else {
        return (fail("msg1 did not parse"), waits);
    };
    let s = tr.begin("attester_msg1_msg2", "watz-attestation", op_id, parent);
    let msg2 = attester.attest(
        &msg1,
        &client.pinned_verifier_key,
        client.service,
        &client.measurement,
    );
    tr.end(s);
    let Ok((msg2, _)) = msg2 else {
        return (fail("msg1 rejected by attester"), waits);
    };
    let s = tr.begin("wait_msg3", "watz-fleet", op_id, parent);
    let t = Instant::now();
    let sent = conn.send(&msg2.to_bytes());
    let raw3 = conn.recv_detailed(RECV_TIMEOUT);
    waits.msg3 = t.elapsed();
    tr.end(s);
    let (Ok(()), Ok(raw3)) = (sent, raw3) else {
        return (fail("no verdict"), waits);
    };
    if raw3 == APPRAISAL_FAILED {
        return (SessionEnd::Rejected, waits);
    }
    let Ok(msg3) = Msg3::from_bytes(&raw3) else {
        return (fail("verdict did not parse"), waits);
    };
    let s = tr.begin("attester_msg3", "watz-attestation", op_id, parent);
    let secret = attester.handle_msg3(&msg3);
    tr.end(s);
    match secret {
        Ok((secret, _)) => (SessionEnd::Secret(secret), waits),
        Err(e) => (SessionEnd::Failed(e.to_string()), waits),
    }
}

// ---------------------------------------------------------------------------
// optee-sim, tz-hal
// ---------------------------------------------------------------------------

/// Echo round trip of a 64 B frame and throughput of a 1 MiB frame over
/// the loopback network.
///
/// # Errors
///
/// A transport error as text.
pub fn record_net(out: &mut Layers) -> Result<(), String> {
    const PORT: u16 = 4000;
    const SMALL: usize = 400;
    const LARGE: usize = 12;
    let net = Arc::new(Network::new());
    let listener = net.listen(PORT).map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || {
        let Ok(conn) = listener.accept() else { return };
        while let Ok(frame) = conn.recv() {
            if conn.send(&frame).is_err() {
                break;
            }
        }
    });
    let result = (|| -> Result<(), String> {
        let conn = net.connect(PORT).map_err(|e| e.to_string())?;
        let echo_secs = |frame: &[u8], reps: usize| -> Result<f64, String> {
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                conn.send(frame).map_err(|e| e.to_string())?;
                let back = conn.recv().map_err(|e| e.to_string())?;
                samples.push(t.elapsed().as_secs_f64());
                if back.len() != frame.len() {
                    return Err("echo length mismatch".into());
                }
            }
            Ok(fast(&samples))
        };
        out.set("optee-sim.net_rtt_us", 1e6 * echo_secs(&[0x42; 64], SMALL)?);
        let big = vec![0x42u8; 1 << 20];
        let secs = echo_secs(&big, LARGE)?;
        out.set(
            "optee-sim.net_mb_per_s",
            2.0 * big.len() as f64 / 1e6 / secs,
        );
        Ok(())
    })();
    // Dropping the only connection ends the echo loop.
    net.unbind(PORT);
    let _ = echo.join();
    result
}

/// World-switch round trip, shared-memory copy throughput, and the
/// secure-world entries each operation of `outcome` cost.
///
/// # Errors
///
/// The shared-memory cap error as text.
pub fn record_hal(out: &mut Layers, platform: &Platform, outcome: &Outcome) -> Result<(), String> {
    out.set(
        "tz-hal.enters_per_op",
        outcome.enters as f64 / outcome.attempted.max(1) as f64,
    );
    out.set(
        "tz-hal.world_switch_us",
        1e6 * fast_secs(300, || platform.enter_secure(|| ())),
    );
    let data = vec![0x17u8; 1 << 20];
    let mut failed = None;
    let secs = fast_secs(9, || match platform.alloc_shared(data.len()) {
        Ok(buf) => {
            buf.write(0, &data);
            std::hint::black_box(buf.read(0, data.len()));
        }
        Err(e) => failed = Some(e.to_string()),
    });
    if let Some(e) = failed {
        return Err(e);
    }
    out.set(
        "tz-hal.shmem_mb_per_s",
        2.0 * data.len() as f64 / 1e6 / secs,
    );
    Ok(())
}

/// Secure-world entries so far on `platform`.
#[must_use]
pub fn enters(platform: &Platform) -> u64 {
    platform.transition_stats().enters()
}

/// SHA-256 of `data`: the reference a launched module's measurement and a
/// provisioned blob's bytes are compared with.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    Sha256::digest(data)
}

/// An attestation service for `rt`'s device that reports runtime version 0,
/// as an un-updated device in the field would: endorsed, but stale.
#[must_use]
pub fn stale_service(rt: &WatzRuntime) -> Arc<AttestationService> {
    Arc::new(AttestationService::install_with_version(rt.os(), 0))
}

/// A verifier identity key derived from `label`.
#[must_use]
pub fn identity_key(label: &str) -> SigningKey {
    SigningKey::generate(&mut Fortuna::from_seed(label.as_bytes()))
}
