//! `bench-report`: regenerates `BENCHMARKS.md` from the recorded
//! `BENCH_*.json` trajectories plus live execution-profile counters.
//!
//! Everything written to `BENCHMARKS.md` is **deterministic**: wall-clock
//! times come from the committed trajectory entries (never from this
//! run), and the live numbers are guest-instruction and dispatch counts,
//! which are exact properties of the kernels, not of the machine. CI
//! regenerates the file and fails on drift (`git diff --exit-code
//! BENCHMARKS.md`), so the report can never fall out of sync with the
//! recorded data or the engines.
//!
//! Guest-MIPS columns pair the committed per-kernel times (recorded once,
//! with a `host` block naming the machine) with live retired-instruction
//! counts; instret parity between the tree oracle and the register engine
//! (unfused and fused) is asserted while generating, so the report doubles
//! as a correctness check.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use watz_bench::RUNGS;
use watz_wasm::exec::{ExecMode, Instance, NoHost, Value};
use watz_wasm::{EngineConfig, ExecProfile, ProfileMode};

// --- Minimal JSON reader (the harness has no serde; the BENCH files ---
// --- are flat arrays of objects with string/number/array fields).   ---

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Copy a full UTF-8 scalar, not just one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

// --- Live engine profiling -------------------------------------------

/// Runs `kernel(n)` with counting enabled on one rung.
fn profile_rung(module: &watz_wasm::Module, mode: ExecMode, fuse: bool, n: i32) -> ExecProfile {
    let config = EngineConfig {
        fuse,
        profile: ProfileMode::Count,
    };
    let mut inst =
        Instance::instantiate_with(module, mode, config, &mut NoHost).expect("kernel instantiates");
    inst.invoke(&mut NoHost, "kernel", &[Value::I32(n)])
        .expect("kernel runs");
    *inst.profile().expect("counting profile exists")
}

/// Profiles one kernel on all three rungs and asserts instret parity —
/// the report generator doubles as a correctness check.
fn profile_rungs(name: &str, module: &watz_wasm::Module, n: i32) -> [ExecProfile; 3] {
    let profiles = RUNGS.map(|(_, mode, fuse)| profile_rung(module, mode, fuse, n));
    for ((label, ..), p) in RUNGS.iter().zip(&profiles) {
        assert_eq!(
            p.instret, profiles[0].instret,
            "instret parity broken on {name}({n}): tree retired {} but {label} retired {}",
            profiles[0].instret, p.instret
        );
    }
    profiles
}

// --- Trajectory extraction -------------------------------------------

/// One `BENCH_*.json` file: its target name and entries, in file order.
struct Trajectory {
    target: String,
    entries: Vec<Json>,
}

fn load_trajectories(dir: &Path) -> Vec<Trajectory> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("benchmark directory is readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("trajectory file is readable");
            let json = parse_json(&text)
                .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
            // Trajectories are arrays of entries; single-entry files are
            // recorded as a bare object.
            let entries = match json {
                Json::Arr(items) => items,
                obj @ Json::Obj(_) => vec![obj],
                _ => panic!("{} is not a trajectory", path.display()),
            };
            let target = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unknown")
                .trim_start_matches("BENCH_")
                .to_string();
            Trajectory { target, entries }
        })
        .collect()
}

fn host_cell(entry: &Json) -> String {
    match entry.get("host") {
        Some(host) => {
            let cores = host.get("cores").and_then(Json::as_num).unwrap_or(0.0);
            let arch = host.get("arch").and_then(Json::as_str).unwrap_or("unknown");
            let kernel = host
                .get("kernel")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            let rustc = host
                .get("rustc")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            format!("{cores} cores, {arch}, kernel {kernel}, {rustc}")
        }
        None => "unrecorded (legacy entry)".to_string(),
    }
}

/// Parses a duration token like `2.97ms` / `843.15µs` into seconds.
fn parse_time(token: &str) -> Option<f64> {
    let (number, scale) = if let Some(v) = token.strip_suffix("µs") {
        (v, 1e-6)
    } else if let Some(v) = token.strip_suffix("ns") {
        (v, 1e-9)
    } else if let Some(v) = token.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = token.strip_suffix('s') {
        (v, 1.0)
    } else {
        return None;
    };
    number.parse::<f64>().ok().map(|n| n * scale)
}

/// Per-kernel absolute times from a `WATZ_SMOKE_SWEEP` report line:
/// `<kernel> reg-unfused <t> reg <t> fuse <x>`. Sweeps recorded while the
/// stack-form rungs existed (`<kernel> unfused <t> fused <t> reg <t> …`)
/// do not match and are skipped.
fn parse_sweep_line(line: &str) -> Option<(String, [f64; 2])> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() < 5 || tokens.get(1) != Some(&"reg-unfused") {
        return None;
    }
    Some((
        tokens[0].to_string(),
        [parse_time(tokens[2])?, parse_time(tokens[4])?],
    ))
}

/// Per-kernel `wasm REE` overhead from a normalized fig5 report line:
/// `<kernel> 1.000 <native TEE> <wasm REE> <wasm TEE>`.
fn parse_overhead_line(line: &str) -> Option<(String, f64)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != 5 || tokens.get(1) != Some(&"1.000") {
        return None;
    }
    Some((tokens[0].to_string(), tokens[3].parse().ok()?))
}

fn report_lines(entry: &Json) -> Vec<String> {
    entry
        .get("report")
        .and_then(Json::as_arr)
        .map(|lines| {
            lines
                .iter()
                .filter_map(|l| l.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn fmt_secs(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.2} s")
    } else if t >= 1e-3 {
        format!("{:.2} ms", t * 1e3)
    } else {
        format!("{:.2} us", t * 1e6)
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0f64, 0usize);
    for v in values {
        log_sum += v.ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

// --- Report generation -----------------------------------------------

/// Problem size for the parity/counter table: small enough that the tree
/// interpreter stays fast across the whole suite.
const PROFILE_N: i32 = 8;
/// Problem size matching the recorded absolute-time sweeps (MIPS pairs
/// live counts at this size with the committed times).
const SWEEP_N: i32 = 24;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dir = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => dir = PathBuf::from(args.next().expect("--dir takes a path")),
            other => panic!("unknown argument '{other}' (usage: bench_report [--dir <path>])"),
        }
    }

    let trajectories = load_trajectories(&dir);
    assert!(
        !trajectories.is_empty(),
        "no BENCH_*.json trajectories under {}",
        dir.display()
    );

    let mut md = String::new();
    let w = &mut md;
    writeln!(w, "# WaTZ benchmark report").unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "Generated by `cargo run --release -p watz-bench --bin bench_report` from the\n\
         committed `BENCH_*.json` trajectories plus live execution-profile counters.\n\
         Wall-clock numbers are quoted from the recorded entries (never measured by the\n\
         generator), and the live numbers are exact instruction/dispatch counts, so the\n\
         file regenerates byte-identically on any machine; CI fails if it drifts from\n\
         its inputs. Regenerate after appending a trajectory entry."
    )
    .unwrap();

    // --- System information: host blocks across trajectories. ---
    writeln!(w, "\n## System information").unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "Machines behind the recorded entries (`host` blocks; entries recorded before\n\
         host capture are marked legacy)."
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "| trajectory | entries | latest recorded | latest host |"
    )
    .unwrap();
    writeln!(w, "|---|---|---|---|").unwrap();
    for t in &trajectories {
        let last = t.entries.last();
        let recorded = last
            .and_then(|e| e.get("recorded"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let host = last.map_or_else(|| "unrecorded".to_string(), host_cell);
        writeln!(
            w,
            "| {} | {} | {} | {} |",
            t.target,
            t.entries.len(),
            recorded,
            host
        )
        .unwrap();
    }

    // --- Live per-kernel, per-rung profile (deterministic counts). ---
    writeln!(w, "\n## Engines: guest-instruction accounting").unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "Live counters over the PolyBench suite at n={PROFILE_N}, `ProfileMode::Count`\n\
         on every rung. **instret** (retired guest instructions) is asserted\n\
         identical across the tree oracle and the register engine, unfused and fused,\n\
         while generating this table — lowering optimizes host dispatches per guest\n\
         instruction, never the guest instruction stream itself. `ops/instr` is host\n\
         dispatches divided by instret."
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "| kernel | instret | loads | stores | backedges | tree ops/instr | register-unfused | register |"
    )
    .unwrap();
    writeln!(w, "|---|---|---|---|---|---|---|---|").unwrap();

    let suite: Vec<_> = workloads::polybench::suite().into_iter().collect();
    let mut rung_profiles = Vec::new();
    for kernel in &suite {
        let wasm = minic::compile(kernel.minic).expect("kernel compiles");
        let module = watz_wasm::load(&wasm).expect("kernel loads");
        let profiles = profile_rungs(kernel.name, &module, PROFILE_N);
        let p0 = &profiles[0];
        writeln!(
            w,
            "| {} | {} | {} | {} | {} | {:.2} | {:.2} | {:.2} |",
            kernel.name,
            p0.instret,
            p0.loads(),
            p0.stores(),
            profiles[2].backedges,
            profiles[0].ops_per_instr(),
            profiles[1].ops_per_instr(),
            profiles[2].ops_per_instr(),
        )
        .unwrap();
        rung_profiles.push(profiles);
    }
    let dispatch_compression = geomean(
        rung_profiles
            .iter()
            .map(|p| p[0].ops_per_instr() / p[2].ops_per_instr()),
    );
    writeln!(w).unwrap();
    writeln!(
        w,
        "Geomean dispatch compression, tree → register: **{dispatch_compression:.2}x** \
         fewer host dispatches per retired guest instruction."
    )
    .unwrap();

    // --- Live static-analysis counters (deterministic, like instret). ---
    writeln!(
        w,
        "\n## Static analysis: in-bounds proofs and IR verification"
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "Live counters from compiling each kernel, which runs the independent IR\n\
         verifier over its register code as every compile does, then running the\n\
         range analysis over that code. **proven** is memory accesses the\n\
         interval/subsumption analysis shows in bounds. Every access keeps its\n\
         bounds check all the same: the engine is safe Rust, so a proof has no\n\
         check to remove, and no launch runs the analysis. The analysis and the\n\
         verifier run over the register form — the one form lowering emits and\n\
         the engine executes — so every column counts register-form sites (922\n\
         accesses and 120 proven while a stack-form flat code was analysed as\n\
         well; **verified ops** was about twice this while the verifier also\n\
         walked the flat code an instance kept).\n\
         Counts are exact properties of the kernels, so this table is\n\
         machine-independent and drift-gated like the rest of the report."
    )
    .unwrap();
    writeln!(w).unwrap();
    writeln!(
        w,
        "| kernel | accesses | proven | interval | subsumed | verified ops | branch targets |"
    )
    .unwrap();
    writeln!(w, "|---|---|---|---|---|---|---|").unwrap();
    let mut total = watz_wasm::analysis::RangeStats::default();
    let mut vtotal = watz_wasm::verify::VerifyStats::default();
    let mut proven_kernels = 0usize;
    for kernel in &suite {
        let wasm = minic::compile(kernel.minic).expect("kernel compiles");
        let module = watz_wasm::load(&wasm).expect("kernel loads");
        let inst = Instance::instantiate(&module, ExecMode::Aot, &mut NoHost)
            .unwrap_or_else(|e| panic!("IR verifier rejected {}: {e}", kernel.name));
        let a = inst.range_stats().expect("register instance");
        let v = inst.verify_stats().expect("register instance");
        writeln!(
            w,
            "| {} | {} | {} | {} | {} | {} | {} |",
            kernel.name,
            a.accesses,
            a.proven(),
            a.proven_interval,
            a.proven_subsumed,
            v.reg_ops,
            v.branch_targets,
        )
        .unwrap();
        proven_kernels += usize::from(a.proven() > 0);
        total.merge(&a);
        vtotal.merge(&v);
    }
    writeln!(w).unwrap();
    writeln!(
        w,
        "Suite totals: **{}/{}** kernels with at least one proven access; {} of {}\n\
         accesses proven ({} interval + {} subsumed); the verifier checked {}\n\
         opcodes and {} branch targets with zero findings.",
        proven_kernels,
        suite.len(),
        total.proven(),
        total.accesses,
        total.proven_interval,
        total.proven_subsumed,
        vtotal.reg_ops,
        vtotal.branch_targets,
    )
    .unwrap();

    // --- Times + MIPS from the latest absolute-time sweep entry. ---
    let fig5 = trajectories.iter().find(|t| t.target == "fig5_polybench");
    if let Some(fig5) = fig5 {
        let sweep = fig5.entries.iter().rev().find_map(|e| {
            let times: Vec<_> = report_lines(e)
                .iter()
                .filter_map(|l| parse_sweep_line(l))
                .collect();
            if times.is_empty() {
                None
            } else {
                Some((e, times))
            }
        });
        if let Some((entry, times)) = sweep {
            writeln!(w, "\n## Register engine: time and guest MIPS (n={SWEEP_N})").unwrap();
            writeln!(w).unwrap();
            writeln!(
                w,
                "Times quoted from the `{}` sweep recorded {} ({}). Guest MIPS divides\n\
                 the live retired-instruction count at n={SWEEP_N} (machine-independent)\n\
                 by the recorded time, so the columns measure how fast each rung retires\n\
                 the *same* guest work on the recorded machine.",
                entry
                    .get("command")
                    .and_then(Json::as_str)
                    .unwrap_or("WATZ_SMOKE_SWEEP"),
                entry
                    .get("recorded")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown"),
                host_cell(entry),
            )
            .unwrap();
            writeln!(w).unwrap();
            writeln!(
                w,
                "| kernel | instret | register-unfused | register | register-unfused MIPS | register MIPS |"
            )
            .unwrap();
            writeln!(w, "|---|---|---|---|---|---|").unwrap();
            for (name, [t_unfused, t_reg]) in &times {
                let Some(kernel) = suite.iter().find(|k| k.name == name) else {
                    continue;
                };
                let wasm = minic::compile(kernel.minic).expect("kernel compiles");
                let module = watz_wasm::load(&wasm).expect("kernel loads");
                // Counts are rung-independent (parity asserted above), so
                // one counted run prices both columns.
                let p = profile_rung(&module, ExecMode::Aot, true, SWEEP_N);
                let mips = |t: f64| p.instret as f64 / t / 1e6;
                writeln!(
                    w,
                    "| {} | {} | {} | {} | {:.0} | {:.0} |",
                    name,
                    p.instret,
                    fmt_secs(*t_unfused),
                    fmt_secs(*t_reg),
                    mips(*t_unfused),
                    mips(*t_reg),
                )
                .unwrap();
            }
        }

        // --- Wasm-vs-native overhead trajectory across the rung eras. ---
        let eras: Vec<_> = fig5
            .entries
            .iter()
            .filter(|e| {
                report_lines(e)
                    .iter()
                    .any(|l| l.contains("native REE") && l.contains("wasm REE"))
            })
            .collect();
        if !eras.is_empty() {
            writeln!(w, "\n## Wasm-vs-native overhead trajectory (fig 5)").unwrap();
            writeln!(w).unwrap();
            writeln!(
                w,
                "Geomean `wasm REE / native REE` run-time overhead across the PolyBench\n\
                 suite, one column per recorded era of the engine (paper: ~1.34x with a\n\
                 native AOT compiler; this repo interprets)."
            )
            .unwrap();
            writeln!(w).unwrap();
            writeln!(w, "| era | recorded | geomean overhead | host |").unwrap();
            writeln!(w, "|---|---|---|---|").unwrap();
            for entry in &eras {
                let overheads: Vec<f64> = report_lines(entry)
                    .iter()
                    .filter_map(|l| parse_overhead_line(l))
                    .map(|(_, oh)| oh)
                    .collect();
                // Era label: the note's prefix up to the first colon
                // ("PR 5 (register-allocated flat engine)"), bounded so a
                // colon-free seed note cannot flood the cell.
                let note = entry.get("note").and_then(Json::as_str).unwrap_or("");
                let note = note.split(':').next().unwrap_or("");
                let note = if note.chars().count() > 48 {
                    "seed"
                } else {
                    note
                };
                writeln!(
                    w,
                    "| {} | {} | {:.1}x | {} |",
                    note.trim(),
                    entry
                        .get("recorded")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown"),
                    geomean(overheads.iter().copied()),
                    host_cell(entry),
                )
                .unwrap();
            }
        }
    }

    // --- Fleet trend from the latest fleet trajectory entry. ---
    if let Some(fleet) = trajectories
        .iter()
        .find(|t| t.target == "fleet_attestation")
    {
        if let Some(entry) = fleet.entries.last() {
            writeln!(w, "\n## Fleet attestation: verifier scaling").unwrap();
            writeln!(w).unwrap();
            writeln!(
                w,
                "Latest recorded worker-scaling round ({}, {}). Sessions/s is end-to-end\n\
                 Msg0→Msg3 throughput; percentiles are client-observed session latency.\n\
                 Live runs additionally report per-phase (accept→msg0→msg1→msg2→msg3)\n\
                 percentiles and world-switch counts via `FleetReport`.",
                entry
                    .get("recorded")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown"),
                host_cell(entry),
            )
            .unwrap();
            writeln!(w).unwrap();
            writeln!(w, "```text").unwrap();
            for line in report_lines(entry) {
                writeln!(w, "{line}").unwrap();
            }
            writeln!(w, "```").unwrap();
        }
    }

    let out = dir.join("BENCHMARKS.md");
    std::fs::write(&out, &md).expect("BENCHMARKS.md is writable");
    println!(
        "bench-report: wrote {} ({} trajectories, {} kernels profiled, instret parity OK)",
        out.display(),
        trajectories.len(),
        suite.len()
    );
}
