//! `bench-smoke`: a seconds-scale hot-path regression gate for CI.
//!
//! Runs one PolyBench kernel through the tree interpreter and the register
//! engine (unfused and fused), one
//! scalar multiplication through both P-256 paths (generator table and
//! 4-bit window) with the field inversion they share, an ECDSA verify by
//! the window and by the key's comb, AES-GCM
//! against SHA-256 over the same MiB, the load-time compile of Fig 4's
//! 1 MB module against its decode + validate, and one fleet worker-scaling round
//! (1 vs 4 verifier workers), then asserts the optimised paths actually
//! win by a comfortable margin. A regression in the register engine, its
//! fusion rules, the fixed-base table, the GCM tables, the compile passes or
//! the fleet scheduler fails the build loudly, without waiting for the
//! minutes-scale full bench suite.
//!
//! Set `WATZ_SMOKE_SWEEP=1` to additionally sweep the whole PolyBench
//! suite across the unfused and fused register engine and print the
//! per-kernel times plus the geomean fusion ratio (used to record the
//! optimisation trajectory in `BENCH_fig5_polybench.json`).

use std::time::{Duration, Instant};

use watz_attestation::attester::Attester;
use watz_attestation::verifier::Verifier;
use watz_attestation::wire::{MSG3_HEADER_LEN, MSG3_RECORD_LEN};
use watz_crypto::ecdsa::SigningKey;
use watz_crypto::fortuna::Fortuna;
use watz_crypto::gcm::AesGcm128;
use watz_crypto::p256::{curve, AffinePoint, U256};
use watz_crypto::sha256::Sha256;
use watz_fleet::{FleetSim, FleetSimConfig, FleetStats};
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::{EngineConfig, ProfileMode};

fn median(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Instantiates `module` under an explicit engine configuration.
fn engine(module: &watz_wasm::Module, mode: ExecMode, config: EngineConfig) -> Instance {
    Instance::instantiate_with(module, mode, config, &mut NoHost).expect("kernel instantiates")
}

/// The production configuration with the fusion rules on or off.
fn fusion(fuse: bool) -> EngineConfig {
    EngineConfig {
        fuse,
        ..EngineConfig::default()
    }
}

fn time_kernel(inst: &mut Instance, n: i32, reps: usize) -> Duration {
    median(reps, || {
        std::hint::black_box(
            inst.invoke(&mut NoHost, "kernel", &[Value::I32(n)])
                .unwrap(),
        );
    })
}

/// On a gate failure, re-runs the kernel with counting enabled on every
/// rung and dumps each [`watz_wasm::ExecProfile`], so a failed CI run
/// carries the observability data needed to localize the regression.
fn dump_exec_profiles(module: &watz_wasm::Module, n: i32) {
    eprintln!("--- per-rung execution profiles for the failed gate (n={n}) ---");
    let rungs = [
        ("tree", ExecMode::Interpreted, true),
        ("register-unfused", ExecMode::Aot, false),
        ("register", ExecMode::Aot, true),
    ];
    for (label, mode, fuse) in rungs {
        let config = EngineConfig {
            profile: ProfileMode::Count,
            ..fusion(fuse)
        };
        let Ok(mut inst) = Instance::instantiate_with(module, mode, config, &mut NoHost) else {
            eprintln!("  {label}: failed to instantiate");
            continue;
        };
        let _ = inst.invoke(&mut NoHost, "kernel", &[Value::I32(n)]);
        match inst.profile() {
            Some(p) => eprintln!("  {label}:\n{p}"),
            None => eprintln!("  {label}: no profile recorded"),
        }
    }
}

/// Dumps fleet counters on a worker-scaling gate failure.
fn dump_fleet_stats(label: &str, stats: &FleetStats) {
    eprintln!("--- fleet stats for the failed gate ({label}) ---");
    eprintln!(
        "  accepted {}  served {}  rejected {}  malformed {}  timed-out {}  disconnected {}  shed {}",
        stats.accepted,
        stats.served,
        stats.rejected,
        stats.malformed,
        stats.timed_out,
        stats.disconnected,
        stats.shed
    );
    eprintln!(
        "  appraised {} in {} appraisal batches, {} msg1 batches ({} world switches)",
        stats.appraised,
        stats.appraisal_batches,
        stats.msg1_batches,
        stats.msg1_batches + stats.appraisal_batches
    );
}

fn sweep_suite() {
    // Match the fig5 problem size so the recorded optimisation trajectory
    // is comparable with `BENCH_fig5_polybench.json`.
    let n = watz_bench::scale(24) as i32;
    let r = watz_bench::reps(7);
    println!("=== unfused vs fused register engine, full PolyBench suite (n={n}) ===");
    let mut log_fuse = 0.0f64;
    let mut count = 0usize;
    for kernel in workloads::polybench::suite() {
        let wasm = minic::compile(kernel.minic).expect("kernel compiles");
        let module = watz_wasm::load(&wasm).expect("kernel loads");
        let mut unfused = engine(&module, ExecMode::Aot, fusion(false));
        let mut reg = engine(&module, ExecMode::Aot, fusion(true));
        let args = [Value::I32(n)];
        let out_unfused = unfused.invoke(&mut NoHost, "kernel", &args).unwrap();
        let out_reg = reg.invoke(&mut NoHost, "kernel", &args).unwrap();
        assert_eq!(
            out_reg, out_unfused,
            "fusion changes {} results",
            kernel.name
        );
        assert!(
            reg.reg_stats().is_some() && unfused.reg_stats().is_some(),
            "register pass fell back on {}",
            kernel.name
        );
        let t_unfused = time_kernel(&mut unfused, n, r);
        let t_reg = time_kernel(&mut reg, n, r);
        let fuse_ratio = t_unfused.as_secs_f64() / t_reg.as_secs_f64();
        log_fuse += fuse_ratio.ln();
        count += 1;
        println!(
            "  {:<18} reg-unfused {:>10.2?}  reg {:>10.2?}  fuse {fuse_ratio:.2}x",
            kernel.name, t_unfused, t_reg
        );
    }
    let geo_fuse = (log_fuse / count as f64).exp();
    println!("  geomean over {count} kernels: fusion {geo_fuse:.2}x");
}

/// The Tab IV guest, one export per WASI-RA call, its buffer allocated once.
const RA_GUEST: &str = r#"
    extern int ra_handshake(int port, int key_ptr);
    extern int ra_collect_quote(int ctx);
    extern int ra_send_quote(int ctx, int q);
    extern int ra_receive_data(int ctx, int buf, int len);
    extern int ra_dispose_quote(int q);
    extern int ra_dispose(int ctx);
    int key_addr = 0; int buf = 0; int cap = 0; int ctx = 0; int quote = 0;
    int init(int max) { key_addr = (int)alloc(64); buf = (int)alloc(max); cap = max; return key_addr; }
    int do_handshake(int port) { ctx = ra_handshake(port, key_addr); return ctx; }
    int do_collect() { quote = ra_collect_quote(ctx); return quote; }
    int do_send() { return ra_send_quote(ctx, quote); }
    int do_receive() { return ra_receive_data(ctx, buf, cap); }
    int do_close() { ra_dispose_quote(quote); return ra_dispose(ctx); }
"#;

/// Msg3 as a record sequence (Fig 7 / Tab IV). Two exact counts — a 2 MiB
/// secret leaves the verifier as 32 records, and a WASI-RA session enters
/// the secure world 11 times however many records it carries — and, where
/// a second core exists to overlap on, one ratio taken within this run:
/// `ra_receive_data` of 2 MiB, which waits for the verifier to seal while
/// it opens, against sealing and then opening the same blob in one thread.
fn msg3_records(cores: usize) {
    const BLOB: usize = 2 << 20;
    const PORT: u16 = 7821;
    let blob: Vec<u8> = (0..BLOB)
        .map(|i| (i ^ (i >> 8) ^ (i >> 16)) as u8)
        .collect();
    let rt = watz_runtime::WatzRuntime::new_device(b"smoke-records").expect("boots");
    let wasm = minic::compile(RA_GUEST).expect("guest compiles");
    let measurement = Sha256::digest(&wasm);
    let identity = SigningKey::generate(&mut Fortuna::from_seed(b"smoke blob owner"));
    let config = watz_runtime::RaVerifierConfig::new(identity)
        .endorse_device(rt.device_public_key())
        .trust_measurement(measurement)
        .with_secret(blob.clone());
    let pinned = config.identity_public_key();

    // In one thread, no transport: appraise, then seal whole and open whole.
    let lockstep = || {
        let mut verifier = Verifier::new(config.clone());
        let (mut attester, msg0) = Attester::start(&mut Fortuna::from_seed(b"smoke attester"));
        let (msg1, _) = verifier
            .handle_msg0(&msg0, &mut Fortuna::from_seed(b"smoke verifier"))
            .expect("msg0");
        let (msg2, _) = attester
            .attest(&msg1, &pinned, rt.attestation_service(), &measurement)
            .expect("msg1");
        verifier.appraise(&msg2).expect("appraisal");
        (verifier, attester)
    };
    let (mut verifier, _) = lockstep();
    let mut sizes = Vec::new();
    let complete = verifier.release(|record| {
        sizes.push(record.into_bytes().len());
        true
    });
    assert_eq!(
        (complete, sizes.len()),
        (Ok(true), BLOB / MSG3_RECORD_LEN),
        "a 2 MiB secret must leave as 32 records (frame sizes {sizes:?})"
    );
    assert!(
        sizes
            .iter()
            .all(|&n| n == MSG3_RECORD_LEN + MSG3_HEADER_LEN),
        "every frame of a 2 MiB secret is one full record: {sizes:?}"
    );
    let serial = || {
        let (mut verifier, mut attester) = lockstep();
        let t = Instant::now();
        let msg3 = verifier.build_msg3(&blob).expect("attested");
        let (opened, _) = attester.handle_msg3(&msg3).expect("opens");
        let took = t.elapsed();
        assert!(opened == blob);
        took
    };

    // Through VerifierServer and the hosted guest.
    let server =
        watz_runtime::VerifierServer::spawn(rt.os(), config.clone(), PORT).expect("spawns");
    let mut app = rt
        .load(&wasm, &watz_runtime::AppConfig::default())
        .expect("guest launches");
    let call = |app: &mut watz_runtime::WatzApp, export: &str, arg: Option<i32>| {
        let args: Vec<Value> = arg.into_iter().map(Value::I32).collect();
        match app.invoke(export, &args).expect(export)[..] {
            [Value::I32(v)] => v,
            ref other => panic!("{export} returned {other:?}"),
        }
    };
    let key_addr = call(&mut app, "init", Some(BLOB as i32));
    app.write_memory(key_addr as u32, &pinned)
        .expect("key fits");
    let stats = rt.platform().transition_stats();
    let mut enters = Vec::new();
    let mut records = || {
        let before = stats.enters();
        assert!(call(&mut app, "do_handshake", Some(i32::from(PORT))) >= 0);
        assert!(call(&mut app, "do_collect", None) >= 0);
        assert_eq!(call(&mut app, "do_send", None), 0);
        let t = Instant::now();
        let got = call(&mut app, "do_receive", None);
        let took = t.elapsed();
        assert_eq!(got, BLOB as i32, "ra_receive_data(2 MiB)");
        assert_eq!(call(&mut app, "do_close", None), 0);
        enters.push(stats.enters() - before);
        took
    };
    // The best of five each; then, on a host with a second core, record
    // sessions back to back until one meets the gate or five seconds have
    // passed. Everything before this point ran on one thread, and a shared
    // host takes a few seconds to give a machine that starts using its
    // second CPU a second core: from idle the first sessions read
    // 0.73-0.87x, after four seconds of them 0.51x.
    const ROUNDS: u64 = 5;
    const GATE: f64 = 0.8;
    let t_serial = (0..ROUNDS).map(|_| serial()).min().expect("rounds");
    let started = Instant::now();
    let (mut t_records, mut sessions) = (Duration::MAX, 0);
    while sessions < ROUNDS
        || (cores >= 2
            && t_records.as_secs_f64() > GATE * t_serial.as_secs_f64()
            && started.elapsed() < Duration::from_secs(5))
    {
        t_records = t_records.min(records());
        sessions += 1;
    }
    let served = server.shutdown();
    assert_eq!((served.served, served.rejected), (sessions, 0));
    assert!(
        enters.iter().all(|&n| n == 11),
        "a WASI-RA session is 11 secure-world entries (9 by the guest, 2 by the verifier), \
         one of them around all 32 records: {enters:?}"
    );
    let ratio = t_records.as_secs_f64() / t_serial.as_secs_f64();
    println!(
        "msg3 2 MiB: 32 records, 11 enters/session  ra_receive_data {t_records:?} (best of {sessions})  seal+open in one thread {t_serial:?}  ({ratio:.2}x, {cores} cores)"
    );
    if cores >= 2 {
        assert!(
            ratio <= GATE,
            "ra_receive_data(2 MiB) took {t_records:?}, {ratio:.2}x sealing then opening the \
             same blob in one thread ({t_serial:?}); on {cores} cores the verifier's seal, the \
             transport and the attester's open must overlap record by record"
        );
    }
}

fn main() {
    let host = watz_bench::host_info();
    println!("{host}");
    let cores = host.cores;

    // --- Wasm: one mid-size kernel on the oracle and the register engine. ---
    let kernel = workloads::polybench::by_name("gemm").expect("gemm in suite");
    let wasm = minic::compile(kernel.minic).expect("kernel compiles");
    let module = watz_wasm::load(&wasm).expect("kernel loads");
    let n = 16i32;

    let mut reg = engine(&module, ExecMode::Aot, fusion(true));
    let mut unfused = engine(&module, ExecMode::Aot, fusion(false));
    let mut tree = engine(&module, ExecMode::Interpreted, EngineConfig::default());
    let args = [Value::I32(n)];
    let out_reg = reg.invoke(&mut NoHost, "kernel", &args).unwrap();
    let out_unfused = unfused.invoke(&mut NoHost, "kernel", &args).unwrap();
    let out_tree = tree.invoke(&mut NoHost, "kernel", &args).unwrap();
    assert_eq!(out_reg, out_tree, "engines disagree on gemm({n})");
    assert_eq!(out_reg, out_unfused, "fusion changes gemm({n}) results");
    let stats = reg.fusion_stats().expect("Aot instance reports stats");
    assert!(stats.total() > 0, "fusion emitted nothing for gemm");
    assert_eq!(
        unfused.fusion_stats().map(|s| s.total()),
        Some(0),
        "unfused instance must not fuse"
    );
    for inst in [&reg, &unfused] {
        let rstats = inst.reg_stats().expect("register instance reports stats");
        for (name, count) in rstats.counts() {
            assert!(count > 0, "register counter '{name}' is zero for gemm");
        }
    }
    let rstats = reg.reg_stats().expect("register instance reports stats");

    let t_reg = time_kernel(&mut reg, n, 5);
    let t_unfused = time_kernel(&mut unfused, n, 5);
    let t_tree = time_kernel(&mut tree, n, 5);
    let wasm_speedup = t_tree.as_secs_f64() / t_reg.as_secs_f64();
    let fuse_speedup = t_unfused.as_secs_f64() / t_reg.as_secs_f64();
    println!(
        "gemm({n}): reg {t_reg:?}  tree {t_tree:?}  speedup {wasm_speedup:.2}x  ({} stack ops eliminated, {} gets forwarded)",
        rstats.stack_ops_eliminated, rstats.gets_forwarded
    );
    println!(
        "gemm({n}): reg {t_reg:?}  reg-unfused {t_unfused:?}  fusion speedup {fuse_speedup:.2}x  ({} superinstructions)",
        stats.total()
    );

    // --- Crypto: the structure of P-256 on one Montgomery multiply. Every
    // gate below is a ratio of timings taken back to back in this process.
    let k = U256::from_hex("bce6faada7179e84f3b9cac2fc632551ffffffff00000000ffffffffffffffff");
    let point = AffinePoint::mul_base(&U256::from_hex("c0ffee"));
    assert_eq!(
        AffinePoint::mul_base(&k),
        AffinePoint::generator().mul_scalar(&k),
        "fixed-base table disagrees with the windowed variable-base path"
    );
    let fp = curve::fp();
    let z = fp.to_mont(&k);
    let signer = SigningKey::generate(&mut Fortuna::from_seed(b"bench-smoke"));
    let digest = Sha256::digest(b"message");
    let sig = signer.sign_deterministic(&digest);
    let comb = signer.verifying_key().comb_table();
    // Eleven rounds of ~9 ms, each timing all five operations back to back:
    // a busy neighbour slows a whole round, so the ratios are taken within
    // a round and the gates read their median over the rounds.
    let mut ops: [(u32, &mut dyn FnMut()); 5] = [
        (100, &mut || {
            std::hint::black_box(AffinePoint::mul_base(std::hint::black_box(&k)));
        }),
        (25, &mut || {
            std::hint::black_box(point.mul_scalar(std::hint::black_box(&k)));
        }),
        (200, &mut || {
            std::hint::black_box(fp.inv(std::hint::black_box(&z)));
        }),
        (25, &mut || {
            std::hint::black_box(signer.verifying_key().verify(&digest, &sig));
        }),
        (25, &mut || {
            std::hint::black_box(signer.verifying_key().verify_with(&comb, &digest, &sig));
        }),
    ];
    let mut rounds: Vec<[f64; 5]> = (0..11)
        .map(|_| {
            let mut per_op = [0.0; 5];
            for (slot, (reps, f)) in per_op.iter_mut().zip(ops.iter_mut()) {
                let t = Instant::now();
                for _ in 0..*reps {
                    f();
                }
                *slot = t.elapsed().as_secs_f64() / f64::from(*reps);
            }
            per_op
        })
        .collect();
    let mut median_of = |f: &dyn Fn(&[f64; 5]) -> f64| {
        rounds.sort_by(|a, b| f(a).total_cmp(&f(b)));
        f(&rounds[rounds.len() / 2])
    };
    let inv_share = median_of(&|r| r[2] / r[0]);
    let window_cost = median_of(&|r| r[1] / r[0]);
    let verify_cost = median_of(&|r| r[3] / (r[1] + r[0]));
    let comb_cost = median_of(&|r| r[4] / r[3]);
    let [t_mul_base, t_mul_scalar, t_inv, t_verify, t_comb] =
        [0, 1, 2, 3, 4].map(|i| Duration::from_secs_f64(median_of(&|r| r[i])));
    println!(
        "p256: k*G {t_mul_base:?}  k*P {t_mul_scalar:?} ({window_cost:.2}x)  field inversion {t_inv:?} ({:.0}% of k*G)  verify {t_verify:?} ({verify_cost:.2}x k*P + k*G)  comb verify {t_comb:?} ({comb_cost:.2}x verify)",
        inv_share * 100.0
    );

    // --- Crypto: AES-GCM against SHA-256, and GCM key setup against one
    // ECDSA verify. Each gate is a ratio of two timings taken back to back
    // in this process, so a slow or busy host moves both sides together.
    let blob = vec![0x5au8; 1 << 20];
    let gcm = AesGcm128::new(&[7u8; 16]);
    // Two passes over the MiB per sample keep every sample above 5 ms.
    let t_gcm = median(5, || {
        for _ in 0..2 {
            std::hint::black_box(gcm.encrypt(&[1u8; 12], std::hint::black_box(&blob), b""));
        }
    });
    let t_sha = median(5, || {
        for _ in 0..2 {
            std::hint::black_box(Sha256::digest(std::hint::black_box(&blob)));
        }
    });
    let gcm_vs_sha = t_sha.as_secs_f64() / t_gcm.as_secs_f64();
    let t_setup = median(5, || {
        for _ in 0..1000 {
            std::hint::black_box(AesGcm128::new(std::hint::black_box(&[7u8; 16])));
        }
    }) / 1000;
    let setup_share = t_setup.as_secs_f64() / t_verify.as_secs_f64();
    println!(
        "gcm 1 MiB: {:.0} MB/s = {gcm_vs_sha:.2}x sha256  key setup {t_setup:?} = {:.3}% of an ecdsa verify ({t_verify:?})",
        2.0 * blob.len() as f64 / 1e6 / t_gcm.as_secs_f64(),
        setup_share * 100.0
    );

    // --- Profiling must be free when off: the default instances above
    // run the NoProfile dispatch loops, so they must not be slower than
    // the counting loop beyond timer noise. A failure here means the
    // zero-overhead-when-off monomorphization leaked counting work into
    // the default path.
    let counting = EngineConfig {
        profile: ProfileMode::Count,
        ..EngineConfig::default()
    };
    let mut reg_counted = engine(&module, ExecMode::Aot, counting);
    let t_counted = time_kernel(&mut reg_counted, n, 5);
    let profile = reg_counted.profile().expect("counting profile exists");
    println!(
        "gemm({n}): reg+count {t_counted:?}  reg {t_reg:?}  ({} guest instrs, {} host ops, {:.2} ops/instr)",
        profile.instret,
        profile.host_ops,
        profile.ops_per_instr()
    );

    // Gates: generous margins below the measured ratios (7-11x register
    // vs tree, 2.1-2.3x fused vs unfused on the register engine) so CI noise
    // does not flake, but a real regression (the register pass falling
    // back to the interpreter or slowing the dispatch loop, the fusion
    // pass stopping to fire) trips them.
    // Engine-gate failures dump per-rung execution profiles first
    // (instret, dispatch ops, class mix), so the CI log localizes the
    // regression without a rerun.
    let gate = |ok: bool, msg: &str| {
        if !ok {
            dump_exec_profiles(&module, n);
            panic!("{msg}");
        }
    };
    gate(
        wasm_speedup > 3.0,
        &format!(
            "register engine no longer clearly beats the tree interpreter ({wasm_speedup:.2}x)"
        ),
    );
    gate(
        fuse_speedup > 1.3,
        &format!("superinstruction fusion regressed the register engine ({fuse_speedup:.2}x)"),
    );
    gate(
        t_reg.as_secs_f64() <= t_counted.as_secs_f64() * 1.05,
        &format!(
            "profiling-off path is slower than the counting path ({t_reg:?} vs {t_counted:?}); \
             the default dispatch loop gained profiling work"
        ),
    );
    // P-256 by operation count, in Montgomery multiplies: k*G is <= 64 mixed
    // additions (~700) plus one inversion (~305); k*P is 256 doublings, <= 64
    // general additions and the same inversion (~3500); a verify is one of
    // each sharing one inversion. Measured 0.32, 4.0x and 1.04x.
    assert!(
        inv_share <= 0.45,
        "a field inversion is {:.0}% of k*G; the 4-bit-window Fermat ladder lost its window or its multiply",
        inv_share * 100.0
    );
    assert!(
        window_cost <= 5.0,
        "k*P costs {window_cost:.2}x k*G; the 4-bit window fell back towards bit-serial double-and-add"
    );
    assert!(
        verify_cost <= 1.6,
        "an ECDSA verify costs {verify_cost:.2}x (k*P + k*G); the u1*G + u2*Q sum gained a conversion or a second ladder"
    );
    // A comb verify swaps the window's 256 doublings and ~60 general
    // additions for 64 doublings and <= 64 mixed additions: ~0.55x.
    assert!(
        comb_cost <= 0.7,
        "a comb verify costs {comb_cost:.2}x a windowed one; the comb lost its teeth or fell back to the window"
    );

    // Bitwise GHASH over byte-wise AES ran at 0.19x SHA-256; the table
    // forms run at ~0.9x. And the per-key GHASH table must stay a 4 KiB,
    // sub-microsecond build: a 64 KiB table would hash faster but every
    // fleet session pays the setup once, beside ~0.25 ms of P-256 per side
    // (the build is ~0.4 % of one ~0.1 ms verify).
    assert!(
        gcm_vs_sha >= 0.4,
        "AES-GCM fell back towards the bit-at-a-time forms ({gcm_vs_sha:.2}x SHA-256 throughput)"
    );
    assert!(
        setup_share < 0.01,
        "AesGcm128::new costs {:.2}% of an ECDSA verify; the per-key table outgrew its budget",
        setup_share * 100.0
    );

    // --- Load-time compilation must stay proportionate to what it reads.
    // On Fig 4's 1 MB module, instantiation (flat lowering, register pass
    // with its fusion rules, range analysis, on the default configuration)
    // against decoding plus validating the same bytes: a ratio of two
    // timings taken back to back in this process. ~2x as recorded; it was
    // ~6x while the analysis value-numbered every op of a module that has
    // no memory access.
    let app = watz_bench::fig4_app(1);
    let app_module = watz_wasm::load(&app).expect("fig4 module loads");
    let instantiate = || engine(&app_module, ExecMode::Aot, EngineConfig::default());
    std::hint::black_box(instantiate()); // first touch of the allocator's pages
    let t_load = median(5, || {
        std::hint::black_box(watz_wasm::load(std::hint::black_box(&app)).expect("loads"));
    });
    let t_instantiate = median(5, || {
        std::hint::black_box(instantiate());
    });
    let compile_ratio = t_instantiate.as_secs_f64() / t_load.as_secs_f64();
    let passes = instantiate().compile_times().expect("Aot instance");
    println!(
        "fig4 1 MB ({} bytes): decode+validate {t_load:?}  instantiate {t_instantiate:?} ({compile_ratio:.2}x)  passes {passes:?}",
        app.len()
    );
    assert!(
        compile_ratio <= 3.5,
        "instantiating the fig4 1 MB module costs {compile_ratio:.2}x its decode + validate \
         ({t_instantiate:?} vs {t_load:?}); one of the three load-time passes (lower, \
         register, analysis) stopped being linear in what it needs to look at: {passes:?}"
    );

    // --- A relaunch must skip what its first launch computed. The same
    // module through `WatzRuntime::load`, twice per freshly booted runtime:
    // the second launch finds the artifact resident and has the secure
    // copy, the hash and the instance left (~0.1x as recorded). A ratio of
    // launch pairs taken back to back; the warm-up pair is dropped.
    let roomy = watz_runtime::AppConfig {
        heap_bytes: optee_sim::TA_HEAP_CAP,
        mode: ExecMode::Aot,
    };
    let mut pairs: Vec<_> = (0..6)
        .map(|_| {
            let rt = watz_runtime::WatzRuntime::new_device(b"smoke-relaunch").expect("boots");
            let launch = || rt.load(&app, &roomy).expect("launches").startup_breakdown();
            let (first, again) = (launch(), launch());
            let ratio = again.total().as_secs_f64() / first.total().as_secs_f64();
            (ratio, first, again)
        })
        .skip(1)
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (relaunch_ratio, first, again) = pairs[pairs.len() / 2];
    println!(
        "fig4 1 MB launch {:?}  relaunch {:?} ({relaunch_ratio:.2}x)",
        first.total(),
        again.total()
    );
    assert!(
        !first.cached && again.cached && relaunch_ratio <= 0.35,
        "relaunching the fig4 1 MB module costs {relaunch_ratio:.2}x its first launch; the \
         resident artifact was missed or instance creation grew.\n first launch: {first:?}\n \
         relaunch: {again:?}"
    );

    msg3_records(cores);

    // --- Static analysis: the verifier must pass the optimised code and
    // the range analysis must actually discharge bounds checks on gemm.
    // Both instances run with the verifier forced on, so the smoke gate
    // exercises it even when CI env steps don't.
    let verified = |elide| EngineConfig {
        elide,
        verify: true,
        ..EngineConfig::default()
    };
    let mut reg_elided = engine(&module, ExecMode::Aot, verified(true));
    let mut reg_unelided = engine(&module, ExecMode::Aot, verified(false));
    let vstats = reg_elided.verify_stats().expect("verification ran");
    assert!(vstats.funcs > 0, "verifier saw no functions for gemm");
    assert!(
        vstats.obligations > 0,
        "elided gemm must carry proof obligations for its check-free accesses"
    );
    let astats = reg_elided.range_stats().expect("analysis stats exist");
    assert!(astats.proven() > 0, "range analysis proved nothing on gemm");
    assert!(astats.elided > 0, "no bounds checks elided on gemm");
    let astats_off = reg_unelided.range_stats().expect("analysis stats exist");
    assert_eq!(
        astats_off.elided, 0,
        "elision-off instance must keep every bounds check"
    );
    assert_eq!(
        astats_off.proven(),
        astats.proven(),
        "proof counts must not depend on whether the rewrite runs"
    );
    let out_elided = reg_elided.invoke(&mut NoHost, "kernel", &args).unwrap();
    let out_unelided = reg_unelided.invoke(&mut NoHost, "kernel", &args).unwrap();
    assert_eq!(
        out_elided, out_reg,
        "bounds-check elision changes gemm({n})"
    );
    assert_eq!(
        out_unelided, out_reg,
        "elision-off compile changes gemm({n})"
    );
    // Eleven rounds, each timing one elided and one checked invoke back
    // to back: a busy neighbour slows a whole round, so the ratio is taken
    // within a round and the gate reads its median over the rounds (the
    // true difference is under 1 %; the 10 % margin is for the dispatch
    // loop regressing, not for noise).
    let once = |inst: &mut Instance| time_kernel(inst, n, 1).as_secs_f64();
    let mut rounds: Vec<[f64; 2]> = (0..11)
        .map(|_| [once(&mut reg_elided), once(&mut reg_unelided)])
        .collect();
    rounds.sort_by(|a, b| (a[0] / a[1]).total_cmp(&(b[0] / b[1])));
    let [t_elide, t_noelide] = rounds[rounds.len() / 2];
    let elide_cost = t_elide / t_noelide;
    println!(
        "gemm({n}): elided {:?}  checked {:?}  elided/checked {elide_cost:.2}x, median of 11 paired rounds  ({} proven: {} interval + {} subsumed, {} elided, {} verify obligations)",
        Duration::from_secs_f64(t_elide),
        Duration::from_secs_f64(t_noelide),
        astats.proven(),
        astats.proven_interval,
        astats.proven_subsumed,
        astats.elided,
        vstats.obligations
    );
    gate(
        elide_cost <= 1.10,
        &format!(
            "bounds-check elision made gemm slower (elided/checked {elide_cost:.2}x in the median round); \
             the check-free opcodes regressed the dispatch loop"
        ),
    );

    // --- Fleet: worker scaling must not regress to the polled design. ---
    // The pre-fix service polled one shared queue under a lock, so extra
    // workers *cost* throughput. The event-driven service must scale on
    // multi-core hosts and at worst tread water on 1-2 core ones, where
    // parallel speedup is physically unavailable.
    let sim = FleetSim::boot(FleetSimConfig {
        shards: 1,
        endorsed: 16,
        rogue: 0,
        stale: 0,
        workers_per_shard: 1,
        session_timeout: Duration::from_secs(10),
        port: 7811,
        ..FleetSimConfig::default()
    })
    .expect("fleet sim boots");
    let warm = sim.run_with_workers(1);
    assert_eq!(warm.provisioned, 16, "warm-up round provisions the fleet");
    let best = |workers: usize| {
        let mut best_throughput = 0.0f64;
        let mut best_stats = FleetStats::default();
        for _ in 0..3 {
            let r = sim.run_with_workers(workers);
            assert_eq!(
                r.provisioned, 16,
                "all sessions served at {workers} workers"
            );
            assert_eq!(
                r.stats.accepted,
                r.stats.completed(),
                "every accepted session reaches an outcome"
            );
            if r.throughput() > best_throughput {
                best_throughput = r.throughput();
                best_stats = r.stats;
            }
        }
        (best_throughput, best_stats)
    };
    let (fleet_one, stats_one) = best(1);
    let (fleet_four, stats_four) = best(4);
    let fleet_ratio = fleet_four / fleet_one;
    println!(
        "fleet: 1 worker {fleet_one:.0} sessions/s  4 workers {fleet_four:.0} sessions/s  ratio {fleet_ratio:.2}x  ({cores} cores)"
    );
    // A scaling-gate failure dumps both rounds' outcome and batching
    // counters: a jump in timed-out/disconnected or in world switches
    // per appraisal usually names the culprit directly.
    let fleet_gate = |ok: bool, msg: &str| {
        if !ok {
            dump_fleet_stats("1 worker", &stats_one);
            dump_fleet_stats("4 workers", &stats_four);
            panic!("{msg}");
        }
    };
    if cores >= 4 {
        fleet_gate(
            fleet_ratio > 1.6,
            &format!(
                "4 fleet workers must clearly beat 1 on a {cores}-core host ({fleet_ratio:.2}x)"
            ),
        );
    } else {
        fleet_gate(
            fleet_ratio > 0.5,
            &format!(
                "extra fleet workers must not cost throughput on a {cores}-core host ({fleet_ratio:.2}x)"
            ),
        );
    }

    // --- Fleet: load shedding must keep overload latency bounded. ---
    // Offer sessions open-loop at ~3x the single-worker capacity just
    // measured. A service with tight admission caps sheds the excess and
    // keeps p99 (measured from the *scheduled* arrival, so queueing delay
    // counts) near the per-session service time; a service with
    // effectively unbounded caps queues everything and its p99 grows with
    // the backlog. If shedding stops working — BUSY never sent, caps
    // ignored, or the shed reply itself queues behind the backlog — the
    // two runs converge and the gate trips.
    let overload_interval = Duration::from_secs_f64(1.0 / (3.0 * fleet_one));
    let overload = |caps: (usize, usize), port: u16| {
        let sim = FleetSim::boot(FleetSimConfig {
            shards: 1,
            endorsed: 8,
            rogue: 0,
            stale: 0,
            workers_per_shard: 1,
            // Long enough that the server never evicts a queued session
            // mid-round: eviction silence would block the client for the
            // full transport timeout and poison the latency samples.
            session_timeout: Duration::from_secs(30),
            port,
            max_sessions_per_worker: caps.0,
            max_queued_per_worker: caps.1,
            ..FleetSimConfig::default()
        })
        .expect("overload sim boots");
        sim.run_open_loop(&watz_fleet::OpenLoopConfig {
            sessions: 150,
            interval: overload_interval,
            workers: 1,
            client_threads: 8,
        })
    };
    let shedded = overload((2, 2), 7812);
    let unshedded = overload((4096, 4096), 7813);
    let p99_shed = shedded
        .latency_percentile(99.0)
        .expect("shedded run completed some sessions");
    let p99_queue = unshedded
        .latency_percentile(99.0)
        .expect("unshedded run completed some sessions");
    println!(
        "fleet overload ({:.0}/s offered): shedded p99 {p99_shed:?} (shed {})  unshedded p99 {p99_queue:?} (shed {})",
        shedded.offered_rate(),
        shedded.shed,
        unshedded.shed,
    );
    assert!(
        shedded.shed > 0,
        "an overloaded service with tight caps must shed sessions"
    );
    assert_eq!(
        unshedded.shed, 0,
        "caps of 4096 must never trip on a 150-session round"
    );
    assert!(
        shedded.provisioned > 0,
        "shedding must not starve admitted sessions"
    );
    assert!(
        p99_shed < p99_queue,
        "load shedding no longer bounds overload latency \
         (shedded p99 {p99_shed:?} >= unshedded p99 {p99_queue:?})"
    );

    if std::env::var_os("WATZ_SMOKE_SWEEP").is_some() {
        sweep_suite();
    }
    println!("bench-smoke: OK");
}
