//! Live gates for the static-analysis pipeline over the PolyBench suite:
//! the IR verifier must accept every compiled kernel with zero findings,
//! and the range analysis, run on demand, must prove a nonzero fraction of
//! accesses on most kernels.

use watz_wasm::exec::{ExecMode, Instance, NoHost};
use watz_wasm::EngineConfig;

fn compile(minic_src: &str) -> watz_wasm::Module {
    let wasm = minic::compile(minic_src).expect("kernel compiles");
    watz_wasm::load(&wasm).expect("kernel loads")
}

/// Every kernel verifies with zero findings, fused and unfused; the range
/// analysis proves accesses on at least half the suite.
#[test]
fn polybench_verifies_and_proves() {
    let mut proven_kernels = 0usize;
    let mut total = 0usize;
    let mut suite_stats = watz_wasm::RangeStats::default();
    for kernel in workloads::polybench::suite() {
        let module = compile(kernel.minic);
        let verified = |fuse| {
            let config = EngineConfig {
                fuse,
                verify: true,
                ..EngineConfig::default()
            };
            Instance::instantiate_with(&module, ExecMode::Aot, config, &mut NoHost)
                .unwrap_or_else(|e| panic!("{} (fuse={fuse}): {e}", kernel.name))
        };
        // The unfused lowering verifies too (the tree oracle has no
        // compiled IR to verify).
        let vstats = verified(false).verify_stats().expect("verification ran");
        assert!(vstats.funcs > 0, "{}: nothing verified", kernel.name);

        let inst = verified(true);
        let vstats = inst.verify_stats().expect("verification ran");
        assert!(vstats.reg_ops > 0, "{}: no register code", kernel.name);
        let stats = inst.range_stats().expect("register instance");
        total += 1;
        if stats.proven() > 0 {
            proven_kernels += 1;
        }
        suite_stats.merge(&stats);
        println!(
            "{:<18} accesses {:>4}  interval {:>3}  subsumed {:>3}",
            kernel.name, stats.accesses, stats.proven_interval, stats.proven_subsumed
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
}
