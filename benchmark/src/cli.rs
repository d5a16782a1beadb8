//! The command line: one measured run of one workload (the form the
//! pipeline calls), `run` over all workloads, and `compare` of two result
//! files.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{metrics_json, Better, Decl, Layers, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{fast, median, quartiles, spread, summarize};
use crate::trace::Tracer;
use crate::{peak_rss_mb, workloads, Sizes, VERSION};

/// Fewest set-ups per run; `setup_s` is their fast tail.
const MIN_SETUPS: usize = 3;
/// Most set-ups per run.
const MAX_SETUPS: usize = 15;
/// Beyond the minimum, no further set-up starts after this long.
const MAX_SETUP_TIME: Duration = Duration::from_secs(3);
/// Share of `--seconds` the traced loop runs for; the layer probes use
/// about as much again.
const TRACED_SHARE: f64 = 0.5;

const USAGE: &str = "usage:
  watz-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--quick]
  watz-benchmark run --seed <u64> [--seconds <n>] [--trace] [--quick] [--out <file>]
  watz-benchmark compare <A.json> <B.json>";

/// Where result and trace files go: `out/` beside this package's manifest.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` in the single-run form, a bare flag in `run`.
                a.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => a.rest.push(other.to_string()),
        }
    }
    Ok(a)
}

/// Runs the command line; returns the process exit code.
#[must_use]
pub fn main_with(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..]).and_then(|a| run_all(&a)),
        Some("compare") => parse(&args[1..]).and_then(|a| compare(&a)),
        Some(_) => parse(args).and_then(|a| measure(&a)),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

// ---------------------------------------------------------------------------
// One measured run of one workload
// ---------------------------------------------------------------------------

fn measure(a: &Args) -> Result<bool, String> {
    let name = a.workload.as_deref().ok_or(USAGE)?;
    let sizes = if a.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let budget = Duration::from_secs_f64(a.seconds);

    // Set up several times: one set-up is a single sample, and set-up is
    // where work moved out of the timed loop shows. Cheap set-ups repeat
    // more often than the minimum.
    let mut setups = Vec::new();
    let mut workload = None;
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setup_started.elapsed() < MAX_SETUP_TIME)
    {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(workloads::setup(name, a.seed, &sizes)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("MIN_SETUPS > 0");
    println!(
        "watz-benchmark {VERSION}: {name} seed {} {} s trace {}{}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if a.quick { " (quick sizes)" } else { "" }
    );

    let mut tracer = if a.trace {
        Tracer::on(Instant::now(), 0)
    } else {
        Tracer::off()
    };
    let share = if a.trace { TRACED_SHARE } else { 1.0 };
    let mut outcome = workload.run(budget.mul_f64(share), &mut tracer);
    let setup_s = fast(&setups);
    let op = summarize(&outcome.op_samples);
    println!("  op samples  {op}");
    println!("  set-ups     {}", summarize(&setups));
    outcome.detail.push(("op.median_ms", "ms", op.median));
    // The traced run reports the declared ones among these with its layer
    // metrics; everything else is for the reader only.
    let mut layers = Layers::default();
    for (detail, unit, value) in &outcome.detail {
        match PER_LAYER.iter().find(|(n, _, _)| n == detail) {
            Some((declared, _, _)) if a.trace => layers.set(declared, *value),
            _ => println!("  {detail:<40} {value:>16.4} {unit}"),
        }
    }

    let metrics = if a.trace {
        workload.layers(&outcome, &mut layers)?;
        layers.set("trace.op_ms", outcome.op_ms);
        layers.set("trace.spans", tracer.spans().len() as f64);
        let path = out_dir().join(format!("trace_{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        for (layer, ms) in crate::trace::layer_self_ms(tracer.spans()) {
            println!("  self time {layer:<18} {ms:>12.3} ms");
        }
        let values = PER_LAYER.map(|(metric, _, _)| layers.get(metric));
        print_metrics(&PER_LAYER, &values);
        metrics_json(&PER_LAYER, &values)
    } else {
        // Drop the workload first: teardown is not part of any metric, but
        // a thread still running would be.
        drop(workload);
        let values = [setup_s, outcome.op_ms, outcome.ops_per_s, peak_rss_mb()];
        print_metrics(&END_TO_END, &values);
        metrics_json(&END_TO_END, &values)
    };

    println!(
        "  rounds {}  attempted {}  failed {}  fail_ratio {}",
        outcome.rounds,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for f in outcome.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

fn print_metrics(decls: &[Decl], values: &[f64]) {
    for ((metric, unit, _), value) in decls.iter().zip(values) {
        println!("  {metric:<40} {value:>16.4} {unit}");
    }
}

// ---------------------------------------------------------------------------
// `run`: every workload, each in a fresh child process
// ---------------------------------------------------------------------------

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block of a result: the fields of `watz_bench::HostInfo`.
fn host_json() -> Json {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").map_or_else(
        |_| command_line("uname", &["-r"], here),
        |s| s.trim().to_string(),
    );
    Json::obj([
        (
            "cores",
            Json::Num(
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as f64,
            ),
        ),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("kernel", Json::Str(kernel)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"], here)),
        ),
    ])
}

fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if a.quick {
            cmd.arg("--quick");
        }
        let output = cmd.output().map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let parsed = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{name}: no output"))
            .and_then(Json::parse);
        match parsed {
            Ok(Json::Obj(mut pairs)) => {
                all_correct &= output.status.success();
                let (attempted, failed) = {
                    let num = |k: &str| {
                        pairs
                            .iter()
                            .find(|(key, _)| key == k)
                            .and_then(|(_, v)| v.as_f64())
                            .unwrap_or(0.0)
                    };
                    (num("attempted"), num("failed"))
                };
                pairs.push(("fail_ratio".into(), Json::Num(failed / attempted.max(1.0))));
                results.push((name.to_string(), Json::Obj(pairs)));
            }
            _ => {
                all_correct = false;
                println!(
                    "FAILED {name}: exit {:?}, no result line",
                    output.status.code()
                );
            }
        }
    }
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let entry = Json::obj([
        ("benchmark_version", Json::str(VERSION)),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], here)),
        ),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("min_setups", Json::Num(MIN_SETUPS as f64)),
        ("trace", Json::Bool(a.trace)),
        ("quick", Json::Bool(a.quick)),
        ("host", host_json()),
        ("workloads", Json::Obj(results)),
    ]);
    let default_name = if a.trace {
        "result_trace.json"
    } else {
        "result.json"
    };
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(default_name));
    // An explicit --out accumulates runs, so several runs form one set for
    // `compare`; the default file holds the latest run only.
    let mut runs = match (&a.out, std::fs::read_to_string(&path)) {
        (Some(_), Ok(text)) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("runs")
            .map(|r| r.items().to_vec())
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    runs.push(entry);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(
        &path,
        format!("{}\n", Json::obj([("runs", Json::Arr(runs))])),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(all_correct)
}

// ---------------------------------------------------------------------------
// `compare`
// ---------------------------------------------------------------------------

/// Values of `metric` on `workload` over the runs of a result file.
fn samples(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            let w = run.get("workloads")?.get(workload)?;
            match metric {
                "fail_ratio" => w.get(metric)?.as_f64(),
                _ => w.get("metrics")?.get(metric)?.get("value")?.as_f64(),
            }
        })
        .collect()
}

/// How a pair of sample sets compares under a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// A set's own quartile spread exceeds the bound, so the medians
    /// cannot show a difference of that size either way.
    Unresolved,
}

/// Compares two sample sets of one metric. Returns the share by which B's
/// median is worse than A's (negative when better) and the verdict.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let b_always_better = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    let verdict = if (spread(a) > bound || spread(b) > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn compare(a: &Args) -> Result<bool, String> {
    let [path_a, path_b] = a.rest.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (file_a, file_b) = (read(path_a)?, read(path_b)?);
    let decl_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let decl = Json::parse(
        &std::fs::read_to_string(&decl_path)
            .map_err(|e| format!("{}: {e}", decl_path.display()))?,
    )?;
    let bound_of = |metric: &str| {
        decl.get("end_to_end")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
            .and_then(|m| m.get("bound")?.as_f64())
    };

    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "worse", "bound"
    );
    for workload in WORKLOADS {
        for (metric, _, better) in END_TO_END {
            let (sa, sb) = (
                samples(&file_a, workload, metric),
                samples(&file_b, workload, metric),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let bound = bound_of(metric).ok_or_else(|| format!("{metric}: no bound declared"))?;
            let (worse, verdict) = judge(&sa, &sb, better, bound);
            ok &= verdict != Verdict::Regression;
            let fmt = |s: &[f64]| {
                let (q1, q2, q3) = quartiles(s);
                format!("{q2:.4} [{q1:.4}, {q3:.4}] {}", s.len())
            };
            println!(
                "{workload:<16} {metric:<12} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}",
                fmt(&sa),
                fmt(&sb),
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Failures have an absolute bound of zero: any rise is a regression.
        let (fa, fb) = (
            samples(&file_a, workload, "fail_ratio"),
            samples(&file_b, workload, "fail_ratio"),
        );
        let (worst_a, worst_b) = (
            fa.iter().copied().fold(0.0, f64::max),
            fb.iter().copied().fold(0.0, f64::max),
        );
        if worst_b > worst_a {
            ok = false;
            println!("{workload:<16} fail_ratio   rose from {worst_a} to {worst_b}  REGRESSION");
        }
        // Counts repeat exactly on one commit; between commits a difference
        // is information, not a verdict.
        for (metric, unit, _) in PER_LAYER.iter().filter(|(_, unit, _)| *unit == "count") {
            let (ca, cb) = (
                samples(&file_a, workload, metric),
                samples(&file_b, workload, metric),
            );
            let mut all: Vec<f64> = ca.iter().chain(&cb).copied().collect();
            all.dedup();
            if all.len() > 1 {
                println!("{workload:<16} {metric} differs ({unit}): A {ca:?} B {cb:?}");
            }
        }
    }
    println!("{}", if ok { "no regression" } else { "REGRESSION" });
    Ok(ok)
}
