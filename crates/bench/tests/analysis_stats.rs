//! Live gates for the static-analysis pipeline over the PolyBench suite:
//! the IR verifier must accept every compiled kernel with zero findings,
//! the range analysis must prove a nonzero fraction of accesses on most
//! kernels, and elision must never change results.

use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::EngineConfig;

fn compile(minic_src: &str) -> watz_wasm::Module {
    let wasm = minic::compile(minic_src).expect("kernel compiles");
    watz_wasm::load(&wasm).expect("kernel loads")
}

/// Every kernel verifies with zero findings, fused and unfused; the range
/// analysis proves accesses on at least half the suite; elision-on and
/// elision-off agree bit-for-bit.
#[test]
fn polybench_verifies_and_proves() {
    let n = 8i32;
    let mut proven_kernels = 0usize;
    let mut total = 0usize;
    let mut suite_stats = watz_wasm::RangeStats::default();
    for kernel in workloads::polybench::suite() {
        let module = compile(kernel.minic);
        let verified = |fuse, elide| {
            let config = EngineConfig {
                fuse,
                elide,
                verify: true,
                ..EngineConfig::default()
            };
            Instance::instantiate_with(&module, ExecMode::Aot, config, &mut NoHost)
                .unwrap_or_else(|e| panic!("{} (fuse={fuse} elide={elide}): {e}", kernel.name))
        };
        // The unfused lowering verifies too (the tree oracle has no
        // compiled IR to verify).
        let vstats = verified(false, true)
            .verify_stats()
            .expect("verification ran");
        assert!(vstats.funcs > 0, "{}: nothing verified", kernel.name);

        // Elision on vs off: identical results, and the same proofs.
        let mut on = verified(true, true);
        let mut off = verified(true, false);
        let vstats = on.verify_stats().expect("verification ran");
        assert!(vstats.reg_ops > 0, "{}: no register code", kernel.name);
        let args = [Value::I32(n)];
        let out_on = on.invoke(&mut NoHost, "kernel", &args).unwrap();
        let out_off = off.invoke(&mut NoHost, "kernel", &args).unwrap();
        assert_eq!(out_on, out_off, "elision changes {} results", kernel.name);

        let s_on = on.range_stats().expect("elision-on stats");
        let s_off = off.range_stats().expect("elision-off stats");
        assert_eq!(
            s_on.proven(),
            s_off.proven(),
            "{}: rewrite must not change what is provable",
            kernel.name
        );
        assert_eq!(
            s_off.elided, 0,
            "{}: elision-off must not rewrite",
            kernel.name
        );
        total += 1;
        if s_on.proven() > 0 {
            proven_kernels += 1;
        }
        suite_stats.merge(&s_on);
        println!(
            "{:<18} accesses {:>4}  interval {:>3}  subsumed {:>3}  elided {:>3}",
            kernel.name, s_on.accesses, s_on.proven_interval, s_on.proven_subsumed, s_on.elided
        );
    }
    println!(
        "suite: {proven_kernels}/{total} kernels with proven accesses; {:?}",
        suite_stats.counts()
    );
    assert!(
        proven_kernels * 2 >= total,
        "range analysis proves accesses on only {proven_kernels}/{total} kernels"
    );
    assert!(suite_stats.elided > 0, "elision never fired on the suite");
}
