//! `run --quick`: every workload at about a twentieth of its size, both
//! untraced and traced, emitting exactly the metrics `BENCHMARK.json`
//! declares and no other.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use watz_benchmark::json::Json;
use watz_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn declaration() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn quick_run(trace: bool) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_{trace}.json"));
    let _ = std::fs::remove_file(&out);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_watz-benchmark"));
    cmd.args([
        "run",
        "--quick",
        "--seed",
        "42",
        "--seconds",
        "0.3",
        "--out",
    ])
    .arg(&out);
    if trace {
        cmd.arg("--trace");
    }
    let output = cmd.output().expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "run --quick failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap()
}

#[test]
fn declaration_lists_what_the_code_emits() {
    let decl = declaration();
    let declared = |key: &str| -> Vec<(String, String, String)> {
        decl.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let emitted = |decls: &[watz_benchmark::metrics::Decl]| -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), emitted(&END_TO_END));
    assert_eq!(declared("per_layer"), emitted(&PER_LAYER));
    assert_eq!(names(decl.get("workloads").unwrap()), WORKLOADS);
    for m in decl.get("end_to_end").unwrap().items() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
}

#[test]
fn quick_run_emits_exactly_the_declared_pairs() {
    let started = Instant::now();
    let decl = declaration();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected: BTreeSet<String> = names(decl.get(key).unwrap()).into_iter().collect();
        let result = quick_run(trace);
        let run = &result.get("runs").unwrap().items()[0];
        for block in ["host", "commit", "seed", "benchmark_version"] {
            assert!(run.get(block).is_some(), "result lacks {block}");
        }
        let workloads = run.get("workloads").unwrap();
        assert_eq!(
            workloads
                .members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            WORKLOADS
        );
        for (name, w) in workloads.members() {
            assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
            let emitted: BTreeSet<String> = w
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(emitted, expected, "{name} trace={trace}");
            if !trace {
                for (metric, v) in w.get("metrics").unwrap().members() {
                    let value = v.get("value").and_then(Json::as_f64).unwrap();
                    assert!(
                        value > 0.0,
                        "{name} {metric} must never read 0, got {value}"
                    );
                }
            }
        }
    }
    assert!(
        started.elapsed().as_secs() < 15,
        "quick runs took {:?}",
        started.elapsed()
    );
}
