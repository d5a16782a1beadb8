//! End-to-end tests of the WaTZ runtime: loading, measurement, memory caps,
//! and full attestation sessions driven from inside Wasm guests via WASI-RA.

use std::time::Duration;

use optee_sim::TeeError;
use watz_crypto::sha256::Sha256;
use watz_runtime::{run_native_ta, AppConfig, VerifierServer, WatzError, WatzRuntime};
use watz_wasm::exec::{ExecMode, Value};

fn runtime() -> WatzRuntime {
    WatzRuntime::new_device(b"core-test-device").unwrap()
}

#[test]
fn load_and_run_minic_app() {
    let rt = runtime();
    let wasm = minic::compile("int add(int a, int b) { return a + b; }").unwrap();
    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    let out = app.invoke("add", &[Value::I32(40), Value::I32(2)]).unwrap();
    assert_eq!(out, vec![Value::I32(42)]);
}

#[test]
fn interpreted_mode_also_works() {
    let rt = runtime();
    let wasm = minic::compile("int sq(int a) { return a * a; }").unwrap();
    let config = AppConfig {
        mode: ExecMode::Interpreted,
        ..AppConfig::default()
    };
    let mut app = rt.load(&wasm, &config).unwrap();
    let out = app.invoke("sq", &[Value::I32(9)]).unwrap();
    assert_eq!(out, vec![Value::I32(81)]);
}

#[test]
fn measurement_is_sha256_of_bytecode() {
    let rt = runtime();
    let wasm1 = minic::compile("int f() { return 1; }").unwrap();
    let wasm2 = minic::compile("int f() { return 2; }").unwrap();
    let app1 = rt.load(&wasm1, &AppConfig::default()).unwrap();
    let app2 = rt.load(&wasm2, &AppConfig::default()).unwrap();
    assert_ne!(app1.measurement(), app2.measurement());
    assert_eq!(app1.measurement(), Sha256::digest(&wasm1));
}

#[test]
fn oversized_app_rejected_by_shared_memory_cap() {
    let rt = runtime();
    // One byte over the 9 MB shared-buffer limit the paper patched in.
    let huge = vec![0u8; 9 * 1024 * 1024 + 1];
    assert!(matches!(
        rt.load(&huge, &AppConfig::default()),
        Err(WatzError::Tee(TeeError::OutOfMemory { .. }))
    ));
}

#[test]
fn heap_budget_enforced() {
    let rt = runtime();
    let wasm = minic::compile("int f() { return 0; }").unwrap();
    let config = AppConfig {
        heap_bytes: 1024, // too small for code copy + linear memory
        mode: ExecMode::Aot,
    };
    assert!(matches!(
        rt.load(&wasm, &config),
        Err(WatzError::Tee(TeeError::OutOfMemory { .. }))
    ));
}

#[test]
fn malformed_module_rejected() {
    let rt = runtime();
    assert!(matches!(
        rt.load(b"not wasm at all", &AppConfig::default()),
        Err(WatzError::Load(_))
    ));
}

#[test]
fn startup_breakdown_is_populated() {
    let rt = runtime();
    let mut src = String::new();
    for i in 0..100 {
        src.push_str(&format!("int f{i}(int x) {{ return x * {i} + 1; }}\n"));
    }
    let wasm = minic::compile(&src).unwrap();
    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    app.invoke("f0", &[Value::I32(1)]).unwrap();
    let b = app.startup_breakdown();
    assert!(b.loading > Duration::ZERO);
    assert!(b.hashing > Duration::ZERO);
    assert!(b.execution > Duration::ZERO);
    assert!(b.total() > Duration::ZERO);
}

#[test]
fn guest_stdout_captured() {
    let rt = runtime();
    let wasm = minic::compile(
        r#"
        extern void print_str(int s);
        int main() { print_str("from the secure world"); return 0; }
        "#,
    )
    .unwrap();
    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    app.invoke("main", &[]).unwrap();
    assert_eq!(app.stdout(), b"from the secure world");
}

#[test]
fn device_keys_are_stable_per_device() {
    let rt1 = WatzRuntime::new_device(b"same-device").unwrap();
    let rt2 = WatzRuntime::new_device(b"same-device").unwrap();
    let rt3 = WatzRuntime::new_device(b"other-device").unwrap();
    assert_eq!(
        rt1.device_public_key().to_vec(),
        rt2.device_public_key().to_vec()
    );
    assert_ne!(
        rt1.device_public_key().to_vec(),
        rt3.device_public_key().to_vec()
    );
}

const ATTEST_GUEST: &str = r#"
    extern int ra_handshake(int port, int key_ptr);
    extern int ra_collect_quote(int ctx);
    extern int ra_send_quote(int ctx, int q);
    extern int ra_receive_data(int ctx, int buf, int len);
    extern int ra_dispose_quote(int q);
    extern int ra_dispose(int ctx);
    int key_addr = 0;
    int blob_addr = 0;
    int set_key_buf() { key_addr = (int)alloc(64); return key_addr; }
    int blob_ptr() { return blob_addr; }
    int attest(int port) {
        int ctx = ra_handshake(port, key_addr);
        if (ctx < 0) { return ctx; }
        int q = ra_collect_quote(ctx);
        if (q < 0) { return q; }
        int rc = ra_send_quote(ctx, q);
        if (rc < 0) { return rc; }
        blob_addr = (int)alloc(65536);
        int n = ra_receive_data(ctx, blob_addr, 65536);
        if (n < 0) { return n; }
        ra_dispose_quote(q);
        ra_dispose(ctx);
        return n;
    }
"#;

fn verifier_config_for(
    rt: &WatzRuntime,
    measurement: [u8; 32],
    secret: &[u8],
) -> (watz_runtime::RaVerifierConfig, [u8; 64]) {
    let mut vrng = watz_crypto::fortuna::Fortuna::from_seed(b"verifier id");
    let identity = watz_crypto::ecdsa::SigningKey::generate(&mut vrng);
    let config = watz_runtime::RaVerifierConfig::new(identity)
        .endorse_device(rt.device_public_key())
        .trust_measurement(measurement)
        .with_secret(secret.to_vec());
    let pinned = config.identity_public_key();
    (config, pinned)
}

#[test]
fn guest_attests_and_receives_secret() {
    let rt = runtime();
    let secret = b"attested configuration data".to_vec();
    let wasm = minic::compile(ATTEST_GUEST).unwrap();
    let measurement = Sha256::digest(&wasm);

    let (config, pinned) = verifier_config_for(&rt, measurement, &secret);
    let server = VerifierServer::spawn(rt.os(), config, 9400).unwrap();

    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    let out = app.invoke("set_key_buf", &[]).unwrap();
    let key_addr = out[0].as_u32();
    app.write_memory(key_addr, &pinned).unwrap();

    let out = app.invoke("attest", &[Value::I32(9400)]).unwrap();
    assert_eq!(out, vec![Value::I32(secret.len() as i32)]);

    // Pull the blob out of guest memory and compare.
    let blob_addr = app.invoke("blob_ptr", &[]).unwrap()[0].as_u32();
    let blob = app.read_memory(blob_addr, secret.len() as u32).unwrap();
    assert_eq!(blob, secret);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected), (1, 0));
}

#[test]
fn unexpected_measurement_fails_attestation() {
    let rt = runtime();
    let wasm = minic::compile(ATTEST_GUEST).unwrap();

    // The verifier trusts a DIFFERENT measurement (e.g. the original app
    // before an attacker modified it).
    let (config, pinned) = verifier_config_for(&rt, [0xAB; 32], b"secret");
    let server = VerifierServer::spawn(rt.os(), config, 9401).unwrap();

    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    let out = app.invoke("set_key_buf", &[]).unwrap();
    let key_addr = out[0].as_u32();
    app.write_memory(key_addr, &pinned).unwrap();

    let out = app.invoke("attest", &[Value::I32(9401)]).unwrap();
    assert_eq!(out, vec![Value::I32(watz_wasi::err_codes::PROTOCOL)]);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected), (0, 1));
}

#[test]
fn wrong_pinned_key_aborts_client_side() {
    let rt = runtime();
    let wasm = minic::compile(ATTEST_GUEST).unwrap();
    let measurement = Sha256::digest(&wasm);

    let (config, _real_pinned) = verifier_config_for(&rt, measurement, b"secret");
    let server = VerifierServer::spawn(rt.os(), config, 9402).unwrap();

    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    let out = app.invoke("set_key_buf", &[]).unwrap();
    let key_addr = out[0].as_u32();
    // Pin garbage instead of the real verifier key.
    app.write_memory(key_addr, &[0x42u8; 64]).unwrap();

    let out = app.invoke("attest", &[Value::I32(9402)]).unwrap();
    assert_eq!(out, vec![Value::I32(watz_wasi::err_codes::PROTOCOL)]);
    // The client aborts before sending msg2, so the server sees neither a
    // served nor a rejected appraisal.
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected), (0, 0));
}

#[test]
fn unendorsed_device_rejected() {
    let rt = runtime();
    let rogue = WatzRuntime::new_device(b"rogue-device").unwrap();
    let wasm = minic::compile(ATTEST_GUEST).unwrap();
    let measurement = Sha256::digest(&wasm);

    // Verifier endorses the *other* device, then serves on the rogue's net.
    let mut vrng = watz_crypto::fortuna::Fortuna::from_seed(b"verifier id");
    let identity = watz_crypto::ecdsa::SigningKey::generate(&mut vrng);
    let config = watz_runtime::RaVerifierConfig::new(identity)
        .endorse_device(rt.device_public_key()) // not the rogue's key
        .trust_measurement(measurement)
        .with_secret(b"secret".to_vec());
    let pinned = config.identity_public_key();
    let server = VerifierServer::spawn(rogue.os(), config, 9403).unwrap();

    let mut app = rogue.load(&wasm, &AppConfig::default()).unwrap();
    let out = app.invoke("set_key_buf", &[]).unwrap();
    let key_addr = out[0].as_u32();
    app.write_memory(key_addr, &pinned).unwrap();

    let out = app.invoke("attest", &[Value::I32(9403)]).unwrap();
    assert_eq!(out, vec![Value::I32(watz_wasi::err_codes::PROTOCOL)]);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected), (0, 1));
}

#[test]
fn native_ta_helper_runs_in_secure_world() {
    let rt = runtime();
    let before = rt.platform().transition_stats().enters();
    let result = run_native_ta(rt.os(), 1024 * 1024, || 6 * 7).unwrap();
    assert_eq!(result, 42);
    assert!(rt.platform().transition_stats().enters() > before);
}

#[test]
fn sandboxed_apps_cannot_see_each_other() {
    // Two apps on the same device: memory is per-instance; a secret written
    // by one is invisible to the other (Wasm sandbox isolation).
    let rt = runtime();
    let writer = minic::compile(
        r#"
        int stash() { int* p = (int*)alloc(4); *p = 1234567; return (int)p; }
        "#,
    )
    .unwrap();
    let reader = minic::compile(
        r#"
        int peek(int addr) { return *(int*)addr; }
        "#,
    )
    .unwrap();
    let mut app_w = rt.load(&writer, &AppConfig::default()).unwrap();
    let mut app_r = rt.load(&reader, &AppConfig::default()).unwrap();
    let addr = app_w.invoke("stash", &[]).unwrap()[0].as_u32();
    // The same numeric address in the reader's memory holds zero.
    let out = app_r.invoke("peek", &[Value::I32(addr as i32)]).unwrap();
    assert_ne!(out, vec![Value::I32(1234567)]);
}

#[test]
fn parallel_attesters_all_served_and_counted() {
    // Eight protocol-level attesters hit the single-session VerifierServer
    // concurrently. Sessions serialize at the listener, but every one must
    // be served and the stats must add up.
    use watz_attestation::attester::Attester;
    use watz_attestation::wire::{Msg1, Msg3};

    let rt = runtime();
    let wasm = minic::compile(ATTEST_GUEST).unwrap();
    let measurement = Sha256::digest(&wasm);
    let (config, pinned) = verifier_config_for(&rt, measurement, b"shared secret");
    let server = VerifierServer::spawn(rt.os(), config, 9410).unwrap();

    const CLIENTS: usize = 8;
    let served: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let rt = rt.clone();
                scope.spawn(move || {
                    let mut rng = watz_crypto::fortuna::Fortuna::from_seed(
                        format!("parallel-client-{i}").as_bytes(),
                    );
                    let conn = rt.os().network().connect(9410).unwrap();
                    let (mut attester, msg0) = Attester::start(&mut rng);
                    conn.send(&msg0.to_bytes()).unwrap();
                    let msg1 = Msg1::from_bytes(&conn.recv().unwrap()).unwrap();
                    let (msg2, _) = attester
                        .attest(&msg1, &pinned, rt.attestation_service(), &measurement)
                        .unwrap();
                    conn.send(&msg2.to_bytes()).unwrap();
                    let msg3 = Msg3::from_bytes(&conn.recv().unwrap()).unwrap();
                    let (secret, _) = attester.handle_msg3(&msg3).unwrap();
                    secret == b"shared secret"
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(served.iter().all(|&ok| ok), "every attester must be served");
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.rejected), (CLIENTS as u64, 0));
}

// ---------------------------------------------------------------------------
// The artifact cache: a relaunch starts from the resident artifact, and
// shares with the first launch the code and nothing a guest can change.
// ---------------------------------------------------------------------------

/// `int f() { return <k>; }`: modules of one length that differ in one byte.
fn constant_module(k: i32) -> Vec<u8> {
    assert!((0..64).contains(&k), "one LEB128 byte");
    minic::compile(&format!("int f() {{ return {k}; }}")).unwrap()
}

fn launch(rt: &WatzRuntime, wasm: &[u8], mode: ExecMode) -> watz_runtime::WatzApp {
    let config = AppConfig {
        mode,
        ..AppConfig::default()
    };
    rt.load(wasm, &config).unwrap()
}

#[test]
fn relaunch_starts_from_the_resident_artifact() {
    let rt = runtime();
    let wasm = constant_module(42);
    let mut first = launch(&rt, &wasm, ExecMode::Aot);
    let resident = rt.os().exec_bytes_allocated();
    assert_eq!(resident, wasm.len());
    let mut again = launch(&rt, &wasm, ExecMode::Aot);
    assert_eq!(
        rt.os().exec_bytes_allocated(),
        resident,
        "N apps of one module share one set of executable pages"
    );

    let (b1, b2) = (first.startup_breakdown(), again.startup_breakdown());
    assert!(!b1.cached && b2.cached);
    assert!(b1.compile != watz_wasm::CompileTimes::default());
    assert_eq!(
        b2.compile,
        watz_wasm::CompileTimes::default(),
        "the compile is reported by the launch that paid it"
    );
    // Measured on every launch, from the bytes of that launch.
    assert!(b2.hashing > Duration::ZERO);
    assert_eq!(first.measurement(), Sha256::digest(&wasm));
    assert_eq!(again.measurement(), first.measurement());
    assert!(std::sync::Arc::ptr_eq(
        first.instance().artifact(),
        again.instance().artifact()
    ));
    assert_eq!(first.reg_stats(), again.reg_stats());
    assert_eq!(first.fusion_stats(), again.fusion_stats());
    assert_eq!(first.invoke("f", &[]).unwrap(), vec![Value::I32(42)]);
    assert_eq!(again.invoke("f", &[]).unwrap(), vec![Value::I32(42)]);

    // A fresh runtime is the cold path.
    let cold = launch(&runtime(), &wasm, ExecMode::Aot);
    assert!(!cold.startup_breakdown().cached);
}

#[test]
fn apps_of_one_artifact_share_no_mutable_state() {
    use watz_wasm::builder::ModuleBuilder;
    use watz_wasm::instr::{Instr, MemArg};
    use watz_wasm::types::ValType::I32;

    // One page growable to four, "seed" at 16, a mutable global at 5.
    let mut b = ModuleBuilder::new();
    b.add_memory(1, Some(4)).add_data(16, b"seed");
    let g = b.add_global(I32, true, Instr::I32Const(5));
    let nullary = b.add_type(&[], &[I32]);
    let unary = b.add_type(&[I32], &[I32]);
    let binary = b.add_type(&[I32, I32], &[I32]);
    let bump = b.add_func(
        nullary,
        &[],
        vec![
            Instr::GlobalGet(g),
            Instr::I32Const(1),
            Instr::I32Add,
            Instr::GlobalSet(g),
            Instr::GlobalGet(g),
            Instr::End,
        ],
    );
    let poke = b.add_func(
        binary,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I32Store(MemArg::align(2)),
            Instr::I32Const(0),
            Instr::End,
        ],
    );
    let peek = b.add_func(
        unary,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I32Load(MemArg::align(2)),
            Instr::End,
        ],
    );
    let grow = b.add_func(
        unary,
        &[],
        vec![Instr::LocalGet(0), Instr::MemoryGrow, Instr::End],
    );
    let pages = b.add_func(nullary, &[], vec![Instr::MemorySize, Instr::End]);
    for (name, f) in [
        ("bump", bump),
        ("poke", poke),
        ("peek", peek),
        ("grow", grow),
        ("pages", pages),
    ] {
        b.export_func(name, f);
    }
    let wasm = b.build();
    let seed = i32::from_le_bytes(*b"seed");
    let i = Value::I32;

    for mode in [ExecMode::Aot, ExecMode::Interpreted] {
        let rt = runtime();
        let mut a = launch(&rt, &wasm, mode);
        let mut b = launch(&rt, &wasm, mode);
        assert!(b.startup_breakdown().cached, "{mode:?}");

        // Global writes.
        assert_eq!(a.invoke("bump", &[]).unwrap(), vec![i(6)]);
        assert_eq!(a.invoke("bump", &[]).unwrap(), vec![i(7)]);
        assert_eq!(b.invoke("bump", &[]).unwrap(), vec![i(6)], "{mode:?}");

        // Memory writes, over the data segment and beside it.
        a.invoke("poke", &[i(16), i(-1)]).unwrap();
        a.invoke("poke", &[i(1024), i(99)]).unwrap();
        assert_eq!(b.invoke("peek", &[i(16)]).unwrap(), vec![i(seed)]);
        assert_eq!(b.invoke("peek", &[i(1024)]).unwrap(), vec![i(0)]);

        // memory.grow.
        assert_eq!(a.invoke("grow", &[i(2)]).unwrap(), vec![i(1)]);
        assert_eq!(a.invoke("pages", &[]).unwrap(), vec![i(3)]);
        assert_eq!(b.invoke("pages", &[]).unwrap(), vec![i(1)], "{mode:?}");
        assert!(a.read_memory(65536, 4).is_ok() && b.read_memory(65536, 4).is_err());

        // A third launch, after all of that: the segment is applied again,
        // the global starts over, the memory is its declared size.
        let mut c = launch(&rt, &wasm, mode);
        assert!(c.startup_breakdown().cached);
        assert_eq!(c.invoke("peek", &[i(16)]).unwrap(), vec![i(seed)]);
        assert_eq!(c.invoke("bump", &[]).unwrap(), vec![i(6)]);
        assert_eq!(c.invoke("pages", &[]).unwrap(), vec![i(1)]);
    }
}

#[test]
fn one_flipped_bit_or_the_other_mode_is_another_artifact() {
    let rt = runtime();
    let (w40, w41) = (constant_module(40), constant_module(41));
    assert_eq!(w40.len(), w41.len());
    let flipped: u32 = w40
        .iter()
        .zip(&w41)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(flipped, 1, "the two byte strings differ in one bit");

    // Two measurements, two artifacts, two answers.
    let mut a = launch(&rt, &w40, ExecMode::Aot);
    let mut b = launch(&rt, &w41, ExecMode::Aot);
    assert!(!a.startup_breakdown().cached && !b.startup_breakdown().cached);
    assert_ne!(a.measurement(), b.measurement());
    assert!(!std::sync::Arc::ptr_eq(
        a.instance().artifact(),
        b.instance().artifact()
    ));
    assert_eq!(a.invoke("f", &[]).unwrap(), vec![Value::I32(40)]);
    assert_eq!(b.invoke("f", &[]).unwrap(), vec![Value::I32(41)]);

    // The other mode misses too, and is the other engine.
    let mut t = launch(&rt, &w40, ExecMode::Interpreted);
    assert!(!t.startup_breakdown().cached);
    assert!(t.reg_stats().is_none() && a.reg_stats().is_some());
    assert_eq!(t.invoke("f", &[]).unwrap(), vec![Value::I32(40)]);
    assert_eq!(rt.os().exec_bytes_allocated(), 3 * w40.len());

    // All three stay resident side by side: each relaunch finds its own.
    for (wasm, mode, first, answer) in [
        (&w40, ExecMode::Aot, &a, 40),
        (&w41, ExecMode::Aot, &b, 41),
        (&w40, ExecMode::Interpreted, &t, 40),
    ] {
        let mut again = launch(&rt, wasm, mode);
        assert!(again.startup_breakdown().cached, "{mode:?} {answer}");
        assert!(std::sync::Arc::ptr_eq(
            first.instance().artifact(),
            again.instance().artifact()
        ));
        assert_eq!(again.measurement(), first.measurement());
        assert_eq!(again.invoke("f", &[]).unwrap(), vec![Value::I32(answer)]);
    }
    assert_eq!(rt.os().exec_bytes_allocated(), 3 * w40.len());
}

#[test]
fn a_failed_launch_is_never_a_cache_hit() {
    use watz_wasm::builder::ModuleBuilder;
    use watz_wasm::instr::Instr;

    let rt = runtime();
    let config = AppConfig::default();

    // Malformed bytes: the same error twice, nothing resident.
    let errors: Vec<String> = (0..2)
        .map(|_| match rt.load(b"\0asm but not really", &config) {
            Err(e @ WatzError::Load(_)) => e.to_string(),
            other => panic!("expected a load error, got {other:?}"),
        })
        .collect();
    assert_eq!(errors[0], errors[1]);
    assert_eq!(rt.os().exec_bytes_allocated(), 0);

    // A start function that traps fails that launch — every launch —
    // whether or not the artifact behind it was already there.
    let mut b = ModuleBuilder::new();
    let ty = b.add_type(&[], &[]);
    let start = b.add_func(ty, &[], vec![Instr::Unreachable, Instr::End]);
    b.set_start(start);
    let trapping = b.build();
    for attempt in 0..3 {
        assert!(
            matches!(
                rt.load(&trapping, &config),
                Err(WatzError::Trap(watz_wasm::Trap::Unreachable))
            ),
            "attempt {attempt}"
        );
    }

    // None of which disturbs a good module's entry.
    let good = constant_module(7);
    assert!(!launch(&rt, &good, ExecMode::Aot).startup_breakdown().cached);
    assert!(rt.load(&trapping, &config).is_err());
    let mut again = launch(&rt, &good, ExecMode::Aot);
    assert!(again.startup_breakdown().cached);
    assert_eq!(again.invoke("f", &[]).unwrap(), vec![Value::I32(7)]);
}

#[test]
fn full_executable_pages_evict_idle_artifacts_oldest_launch_first() {
    let rt = runtime();
    let os = rt.os().clone();
    let len = constant_module(0).len();
    // Room for three of the one-constant modules and a half.
    let held = os
        .alloc_executable(optee_sim::TA_HEAP_CAP - (3 * len + len / 2))
        .unwrap();
    let cached = |k: i32| {
        launch(&rt, &constant_module(k), ExecMode::Aot)
            .startup_breakdown()
            .cached
    };

    let live = launch(&rt, &constant_module(1), ExecMode::Aot);
    assert!(!cached(2) && !cached(3));
    assert_eq!(os.exec_bytes_allocated(), held.len() + 3 * len);
    // 2 is launched again, which leaves 3 the least recently launched of
    // the idle entries; 1 is older still, but an app runs on it.
    assert!(cached(2));
    assert!(!cached(4), "a fourth module needs room");
    assert_eq!(os.exec_bytes_allocated(), held.len() + 3 * len);
    assert!(cached(1) && cached(2) && cached(4));
    assert!(!cached(3), "3 was the one dropped");

    // A module the room cannot hold even with every idle entry gone.
    let mut big = String::new();
    for i in 0..60 {
        big.push_str(&format!("int g{i}(int x) {{ return x * {i} + 1; }}\n"));
    }
    let big = minic::compile(&big).unwrap();
    assert!(big.len() > 4 * len);
    assert!(matches!(
        rt.load(&big, &AppConfig::default()),
        Err(WatzError::Tee(TeeError::OutOfMemory { .. }))
    ));
    assert!(cached(1), "the entry with a live app is never dropped");
    assert_eq!(os.exec_bytes_allocated(), held.len() + len);

    drop((live, rt));
    assert_eq!(os.exec_bytes_allocated(), held.len());
}

#[test]
fn concurrent_launches_share_artifacts_and_agree() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    let rt = runtime();
    let modules: Vec<(i32, Vec<u8>)> = [11, 22, 33]
        .into_iter()
        .map(|k| (k, constant_module(k)))
        .collect();
    // Everyone's first launch is of a module nobody has compiled yet, and
    // they start together: racing first launches of the same bytes.
    let gate = std::sync::Barrier::new(THREADS);
    let hits: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, modules, gate) = (rt.clone(), &modules, &gate);
                scope.spawn(move || {
                    gate.wait();
                    let mut hits = 0;
                    for round in 0..ROUNDS {
                        let (k, wasm) = &modules[(t + round) % modules.len()];
                        let mut app = launch(&rt, wasm, ExecMode::Aot);
                        hits += usize::from(app.startup_breakdown().cached);
                        assert_eq!(app.measurement(), Sha256::digest(wasm));
                        assert_eq!(app.invoke("f", &[]).unwrap(), vec![Value::I32(*k)]);
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // Every launch after a module's first few is a hit (how many of the
    // racing first launches miss is up to the scheduler) ...
    assert!(hits >= THREADS * (ROUNDS - modules.len()), "{hits} hits");
    // ... and whoever lost a race gave its pages back: one set per module.
    let distinct: usize = modules.iter().map(|(_, w)| w.len()).sum();
    assert_eq!(rt.os().exec_bytes_allocated(), distinct);
}
