//! The same `--seed` yields byte-identical inputs, a different seed yields
//! different ones, and the program's exact counts repeat across compiles.

use watz_benchmark::gen::{self, arrival_schedule, device_order, DeviceKind, Rng};
use watz_benchmark::layers::{compile_cost, run_guest};
use watz_benchmark::workloads::blob_provision::BlobProvision;
use watz_benchmark::workloads::cold_start::ColdStart;
use watz_benchmark::workloads::fleet_handshake::FleetHandshake;
use watz_benchmark::Sizes;
use watz_wasm::exec::{ExecMode, Value};

#[test]
fn same_seed_same_modules_blobs_devices_and_arrivals() {
    let sizes = Sizes::quick();
    for seed in [1u64, 2] {
        let (a, b) = (
            ColdStart::setup(seed, &sizes).unwrap(),
            ColdStart::setup(seed, &sizes).unwrap(),
        );
        let wasm = |c: &ColdStart| -> Vec<Vec<u8>> {
            c.large_modules().iter().map(|m| m.wasm.clone()).collect()
        };
        assert_eq!(
            wasm(&a),
            wasm(&b),
            "generated modules differ for seed {seed}"
        );

        let (a, b) = (
            BlobProvision::setup(seed, &sizes).unwrap(),
            BlobProvision::setup(seed, &sizes).unwrap(),
        );
        assert_eq!(a.blob_digests(), b.blob_digests());

        let (a, b) = (
            FleetHandshake::setup(seed, &sizes).unwrap(),
            FleetHandshake::setup(seed, &sizes).unwrap(),
        );
        assert_eq!(a.device_kinds(), b.device_kinds());

        assert_eq!(
            arrival_schedule(seed, 500, 100.0, 24),
            arrival_schedule(seed, 500, 100.0, 24)
        );
    }
}

#[test]
fn different_seed_different_inputs() {
    let sizes = Sizes::quick();
    let loopy = |seed| gen::large_loopy(seed, sizes.loopy_cycles).wasm;
    assert_ne!(loopy(1), loopy(2), "large_loopy must follow the seed");
    let unrolled = |seed| gen::large_unrolled(seed, sizes.unrolled_funcs).wasm;
    assert_ne!(unrolled(1), unrolled(2));
    assert_eq!(
        unrolled(1).len(),
        unrolled(2).len(),
        "the seed must not change the size of large_unrolled"
    );
    assert_ne!(
        Rng::new(1, "blob-0").bytes(64),
        Rng::new(2, "blob-0").bytes(64)
    );
    assert_ne!(
        Rng::new(1, "blob-0").bytes(64),
        Rng::new(1, "blob-1").bytes(64)
    );
    assert_ne!(device_order(1, 38, 5, 5), device_order(2, 38, 5, 5));
    assert_ne!(
        arrival_schedule(1, 500, 100.0, 24),
        arrival_schedule(2, 500, 100.0, 24)
    );
}

#[test]
fn device_order_keeps_the_mix() {
    let kinds = device_order(9, 38, 5, 5);
    let count = |k| kinds.iter().filter(|x| **x == k).count();
    assert_eq!(
        (
            count(DeviceKind::Endorsed),
            count(DeviceKind::Rogue),
            count(DeviceKind::Stale)
        ),
        (38, 5, 5)
    );
}

#[test]
fn arrivals_are_evenly_spaced_at_the_rate() {
    let s = arrival_schedule(3, 200, 100.0, 24);
    assert_eq!(s.len(), 200);
    assert_eq!(s[0].0.as_nanos(), 0);
    assert_eq!(s[100].0.as_millis(), 1000);
    assert!(s.iter().all(|(_, device)| *device < 24));
}

#[test]
fn large_modules_return_their_known_answer() {
    for m in [gen::large_unrolled(5, 3), gen::large_loopy(5, 1)] {
        let call = (m.entry.clone(), m.arg.map(Value::I32).into_iter().collect());
        let run = run_guest(&m.wasm, ExecMode::Aot, false, &[call]).unwrap();
        match (run.results[0].as_slice(), m.expect) {
            ([Value::I64(v)], gen::Expect::I64(e)) => assert_eq!(*v, e, "{}", m.name),
            ([Value::F64(v)], gen::Expect::F64(e)) => {
                assert!(
                    (v - e).abs() <= e.abs().max(1.0) * 1e-9,
                    "{}: {v} vs {e}",
                    m.name
                );
            }
            other => panic!("{}: {other:?}", m.name),
        }
    }
}

#[test]
fn suffixing_leaves_keywords_builtins_and_numbers_alone() {
    let out = gen::suffix_identifiers(
        "double f(int n) { double* a = (double*)alloc(n * 8); // keep n\n return sqrt(a[0]) + 1e3; }",
        "_x",
    );
    assert_eq!(
        out,
        "double f_x(int n_x) { double* a_x = (double*)alloc(n_x * 8); // keep n\n return sqrt(a_x[0]) + 1e3; }"
    );
}

#[test]
fn exact_counts_repeat_across_two_compiles() {
    let wasm = gen::large_loopy(11, 1).wasm;
    let (a, b) = (
        compile_cost(&wasm, 1).unwrap(),
        compile_cost(&wasm, 1).unwrap(),
    );
    assert_eq!(
        (a.fused_ops, a.reg_ops, a.proven, a.elided, a.verified_ops),
        (b.fused_ops, b.reg_ops, b.proven, b.elided, b.verified_ops)
    );
    assert!(a.fused_ops > 0 && a.proven > 0, "{a:?}");

    let kernel = workloads::polybench::by_name("gemm").unwrap();
    let wasm = minic::compile(kernel.minic).unwrap();
    let calls = [("kernel".to_string(), vec![Value::I32(12)])];
    let count = || {
        let p = run_guest(&wasm, ExecMode::Aot, true, &calls)
            .unwrap()
            .profile
            .unwrap();
        (p.instret, p.host_ops, p.loads(), p.stores(), p.backedges)
    };
    let first = count();
    assert_eq!(first, count());
    assert!(first.0 > first.1 && first.1 > 0, "{first:?}");
}
