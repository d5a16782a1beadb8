//! `compare`'s verdicts and the JSON reader/writer under the result files.

use watz_benchmark::cli::{judge, Verdict};
use watz_benchmark::json::Json;
use watz_benchmark::metrics::Better;

#[test]
fn within_bound_is_ok_either_direction() {
    let a = [100.0, 101.0, 99.0];
    assert_eq!(
        judge(&a, &[103.0, 104.0, 102.0], Better::Lower, 0.05).1,
        Verdict::Ok
    );
    assert_eq!(
        judge(&a, &[97.0, 96.0, 98.0], Better::Higher, 0.05).1,
        Verdict::Ok
    );
    let (worse, _) = judge(&a, &[110.0, 110.0, 110.0], Better::Lower, 0.5);
    assert!((worse - 0.10).abs() < 1e-12);
    let (worse, _) = judge(&a, &[110.0, 110.0, 110.0], Better::Higher, 0.5);
    assert!((worse + 0.10).abs() < 1e-12, "better reads as negative");
}

#[test]
fn beyond_bound_is_a_regression() {
    let a = [100.0, 101.0, 99.0];
    assert_eq!(
        judge(&a, &[110.0, 111.0, 109.0], Better::Lower, 0.05).1,
        Verdict::Regression
    );
    assert_eq!(
        judge(&a, &[90.0, 91.0, 89.0], Better::Higher, 0.05).1,
        Verdict::Regression
    );
    // The same numbers are an improvement when the direction flips.
    assert_eq!(
        judge(&a, &[90.0, 91.0, 89.0], Better::Lower, 0.05).1,
        Verdict::Ok
    );
}

#[test]
fn wide_spread_is_unresolved_unless_every_run_is_better() {
    let noisy = [80.0, 100.0, 120.0];
    assert_eq!(
        judge(&noisy, &[100.0, 101.0, 99.0], Better::Lower, 0.05).1,
        Verdict::Unresolved
    );
    // Noisy too, but every B run beats every A run.
    assert_eq!(
        judge(&noisy, &[40.0, 60.0, 70.0], Better::Lower, 0.05).1,
        Verdict::Ok
    );
}

#[test]
fn json_round_trips_result_shapes() {
    let text = r#"{"runs": [{"seed": 7, "trace": false, "host": {"cores": 2, "arch": "x86_64"},
        "workloads": {"cold_start": {"correct": true, "attempted": 10, "failed": 0,
        "metrics": {"op_ms": {"value": 0.4944395, "unit": "ms"}}, "note": "a \"quoted\"\nline é"}}}]}"#;
    let v = Json::parse(text).unwrap();
    let run = &v.get("runs").unwrap().items()[0];
    assert_eq!(run.get("seed").and_then(Json::as_f64), Some(7.0));
    let w = run.get("workloads").unwrap().get("cold_start").unwrap();
    assert_eq!(
        w.get("metrics")
            .and_then(|m| m.get("op_ms"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64),
        Some(0.4944395)
    );
    assert_eq!(
        w.get("note").and_then(Json::as_str),
        Some("a \"quoted\"\nline \u{e9}")
    );
    assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1 2]").is_err());
    assert!(Json::parse("{} x").is_err());
}
