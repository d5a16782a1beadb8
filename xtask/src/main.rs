//! Repo-local task runner (`cargo run -p xtask -- lint`, `-- loc`).
//!
//! `loc` prints the code-line count ROADMAP's "least code" aim is judged
//! by: per crate under `crates/`, and per source file of `watz-wasm`, the
//! lines of `src/` that still hold something after the lint's comment and
//! string stripping and outside every `#[cfg(test)]` item (test-only module
//! files included). Deleting comments, or moving code into tests, does not
//! move it.
//!
//! `lint` enforces three offline rules CI gates on, beyond what clippy
//! covers:
//!
//! 1. **No `.unwrap()` / `.expect(` in the hot dispatch loops** — the
//!    tree interpreter's `exec_body` and the register engine's
//!    `run_loop`. A panic there is a guest-reachable crash of the
//!    whole runtime, so every use must be individually justified in the
//!    allowlist (`xtask/lint-allow.txt`).
//! 2. **No narrowing `as` casts in the wire-format parsers** — the
//!    attestation protocol codec (`watz-attestation/src/wire.rs`) and
//!    the LEB128 decoder (`watz-wasm/src/leb128.rs`). A silent
//!    truncation of an attacker-controlled length or index is exactly
//!    how wire parsers go wrong; conversions must be `try_from` or
//!    explicitly allowlisted (e.g. masking the low byte).
//! 3. **`watz-wasm` reads the environment in one function** — every
//!    `std::env::` under `crates/watz-wasm/src` sits inside
//!    `EngineConfig::from_env`, so a switch cannot grow a second reader
//!    that parses it differently. `watz-runtime` (`crates/core/src`) keys
//!    its artifact cache on that function's result and is held to the same
//!    rule with nothing allowed: it calls `from_env`, it never reads a
//!    `WATZ_*` variable itself.
//!
//! All scans work on comment- and string-stripped source so matches in
//! docs or literals don't count, and `#[cfg(test)]` modules are out of
//! scope. Findings are compared against `xtask/lint-allow.txt`: lines of
//! `file-suffix|needle`, where a finding is allowed when its file path
//! ends with `file-suffix` and the offending line contains `needle`.
//! Unused allowlist entries are reported as failures too, so the list
//! can only shrink.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("loc") => loc(),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint | loc");
            ExitCode::FAILURE
        }
    }
}

/// The dispatch-loop scan targets: `(file, function name)`.
const DISPATCH_LOOPS: [(&str, &str); 2] = [
    ("crates/watz-wasm/src/exec.rs", "fn exec_body"),
    ("crates/watz-wasm/src/reg.rs", "fn run_loop"),
];

/// The one function of `watz-wasm` allowed to name `std::env::`:
/// `(source directory, file, function name)`.
const ENV_READER: (&str, &str, &str) = ("crates/watz-wasm/src", "exec.rs", "fn from_env");

/// Source directories scanned for `std::env::` beside [`ENV_READER`]'s,
/// with no function exempt: crates that take the switches from
/// `EngineConfig::from_env()`.
const ENV_CALLERS: [&str; 1] = ["crates/core/src"];

/// The wire-parser cast-scan targets.
const WIRE_PARSERS: [&str; 2] = [
    "crates/watz-attestation/src/wire.rs",
    "crates/watz-wasm/src/leb128.rs",
];

/// Narrowing integer casts a wire parser must not perform silently.
const NARROWING: [&str; 6] = ["as u8", "as u16", "as u32", "as i8", "as i16", "as i32"];

struct Finding {
    file: PathBuf,
    line_no: usize,
    line: String,
    what: String,
}

fn lint() -> ExitCode {
    let root = repo_root();
    let allow_path = root.join("xtask/lint-allow.txt");
    let allow = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allowlist: Vec<(String, String)> = allow
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (file, needle) = l.split_once('|')?;
            Some((file.trim().to_string(), needle.trim().to_string()))
        })
        .collect();

    let mut findings = Vec::new();
    for (file, func) in DISPATCH_LOOPS {
        let path = root.join(file);
        let src = read(&path);
        let stripped = strip_comments_and_strings(&src);
        let Some((start, end)) = fn_body_span(&stripped, func) else {
            findings.push(Finding {
                file: path.clone(),
                line_no: 0,
                line: String::new(),
                what: format!("lint target `{func}` not found (did the loop move?)"),
            });
            continue;
        };
        scan_lines(&src, &stripped, start, end, &path, &mut findings, |s| {
            [".unwrap()", ".expect("]
                .iter()
                .find(|n| s.contains(**n))
                .map(|n| format!("`{n}` in a dispatch loop"))
        });
    }
    for file in WIRE_PARSERS {
        let path = root.join(file);
        let src = read(&path);
        // Unit tests are out of scope.
        let (stripped, _) = blank_test_items(strip_comments_and_strings(&src));
        scan_lines(
            &src,
            &stripped,
            0,
            stripped.len(),
            &path,
            &mut findings,
            |s| {
                NARROWING
                    .iter()
                    .find(|n| s.contains(**n))
                    .map(|n| format!("narrowing `{n}` cast in a wire parser"))
            },
        );
    }

    let (env_dir, env_file, env_fn) = ENV_READER;
    let mut env_reads = 0usize;
    let mut sources = Vec::new();
    for dir in [env_dir].into_iter().chain(ENV_CALLERS) {
        rust_files(&root.join(dir), &mut sources);
    }
    sources.sort();
    let reader = root.join(env_dir).join(env_file);
    for path in sources {
        let src = read(&path);
        let stripped = strip_comments_and_strings(&src);
        let check = |s: &str| {
            s.contains("std::env::")
                .then(|| format!("`std::env::` outside `{env_fn}` in {env_file}"))
        };
        let mut all = Vec::new();
        scan_lines(&src, &stripped, 0, stripped.len(), &path, &mut all, check);
        let mut inside = Vec::new();
        if path == reader {
            if let Some((start, end)) = fn_body_span(&stripped, env_fn) {
                scan_lines(&src, &stripped, start, end, &path, &mut inside, check);
            }
        }
        env_reads += inside.len();
        findings.extend(
            all.into_iter()
                .filter(|f| !inside.iter().any(|i| i.line_no == f.line_no)),
        );
    }
    if env_reads == 0 {
        findings.push(Finding {
            file: root.join(env_dir).join(env_file),
            line_no: 0,
            line: String::new(),
            what: format!("`{env_fn}` reads no `std::env::` (did the reader move?)"),
        });
    }

    let mut used = vec![false; allowlist.len()];
    let mut fatal = 0usize;
    for f in &findings {
        let fp = f.file.to_string_lossy();
        let allowed = allowlist.iter().enumerate().any(|(i, (file, needle))| {
            let hit = fp.ends_with(file.as_str()) && f.line.contains(needle.as_str());
            if hit {
                used[i] = true;
            }
            hit
        });
        if !allowed {
            fatal += 1;
            eprintln!(
                "lint: {}:{}: {}\n    {}",
                fp,
                f.line_no,
                f.what,
                f.line.trim()
            );
        }
    }
    for (i, (file, needle)) in allowlist.iter().enumerate() {
        if !used[i] {
            fatal += 1;
            eprintln!("lint: stale allowlist entry `{file}|{needle}` matches nothing — remove it");
        }
    }
    if fatal == 0 {
        println!(
            "lint: ok ({} allowlisted use(s) across {} dispatch loop(s) and {} wire parser(s); {} env read(s), all in `{env_fn}`, none in {})",
            findings.len(),
            DISPATCH_LOOPS.len(),
            WIRE_PARSERS.len(),
            env_reads,
            ENV_CALLERS.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {fatal} finding(s); justify in xtask/lint-allow.txt or fix");
        ExitCode::FAILURE
    }
}

/// Prints non-test, non-comment code lines per crate and per `watz-wasm`
/// source file.
fn loc() -> ExitCode {
    let root = repo_root();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap_or_else(|e| panic!("crates/ unreadable: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crates.sort();
    println!("loc: code lines under crates/*/src (no comments, blanks, string bodies or #[cfg(test)] items)");
    let mut total = 0usize;
    for krate in crates {
        let src_dir = krate.join("src");
        let mut files = Vec::new();
        rust_files(&src_dir, &mut files);
        files.sort();
        let mut test_only: Vec<PathBuf> = Vec::new();
        let mut counts = Vec::new();
        for path in &files {
            let (code, test_mods) = blank_test_items(strip_comments_and_strings(&read(path)));
            // `#[cfg(test)] mod name;` in `a/b.rs` is `a/b/name.rs`; in a
            // `lib.rs`, `main.rs` or `mod.rs` it sits beside the file.
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default();
            let dir = match stem {
                "lib" | "main" | "mod" => path.parent().unwrap_or(&src_dir).to_path_buf(),
                _ => path.with_extension(""),
            };
            test_only.extend(test_mods.iter().map(|m| dir.join(format!("{m}.rs"))));
            let lines = code.lines().filter(|l| !l.trim().is_empty()).count();
            counts.push((path, lines));
        }
        counts.retain(|(path, _)| !test_only.contains(path));
        let sum: usize = counts.iter().map(|(_, n)| n).sum();
        total += sum;
        let name = krate.strip_prefix(&root).unwrap_or(&krate).display();
        println!("  {name:<28} {sum:>6}");
        if krate.ends_with("watz-wasm") {
            for (path, n) in counts {
                let file = path.strip_prefix(&src_dir).unwrap_or(path).display();
                println!("    {file:<26} {n:>6}");
            }
        }
    }
    println!("  {:<28} {total:>6}", "crates/ total");
    ExitCode::SUCCESS
}

/// Collects every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{} unreadable: {e}", dir.display()));
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Blanks every `#[cfg(test)]` item of comment/string-stripped source
/// (offsets and line structure kept): a braced item up to its matching
/// brace, a `mod name;` declaration up to the semicolon. Returns the text
/// and the names of the modules so declared, whose files are test-only.
fn blank_test_items(stripped: String) -> (String, Vec<String>) {
    const ATTR: &str = "#[cfg(test)]";
    let mut spans = Vec::new();
    let mut test_mods = Vec::new();
    let mut from = 0usize;
    while let Some(at) = stripped[from..].find(ATTR).map(|rel| from + rel) {
        let item = &stripped[at + ATTR.len()..];
        let end = match (item.find('{'), item.find(';')) {
            (brace, Some(semi)) if brace.is_none_or(|b| semi < b) => {
                if let Some((_, name)) = item[..semi].rsplit_once("mod ") {
                    test_mods.push(name.trim().to_string());
                }
                at + ATTR.len() + semi + 1
            }
            _ => fn_body_span(&stripped[at..], ATTR).map_or(stripped.len(), |(_, end)| at + end),
        };
        spans.push(at..end);
        from = end;
    }
    let mut out = stripped.into_bytes();
    for span in spans {
        for b in &mut out[span] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    let out = String::from_utf8(out).expect("blanking ASCII-replaces whole items");
    (out, test_mods)
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is <root>/xtask.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the repo root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("lint target {} unreadable: {e}", path.display()))
}

/// Runs `check` over every line intersecting `start..end` of the
/// stripped text, reporting the corresponding raw-source line.
fn scan_lines(
    src: &str,
    stripped: &str,
    start: usize,
    end: usize,
    path: &Path,
    findings: &mut Vec<Finding>,
    check: impl Fn(&str) -> Option<String>,
) {
    let raw_lines: Vec<&str> = src.lines().collect();
    let mut offset = 0usize;
    for (i, line) in stripped.lines().enumerate() {
        let line_start = offset;
        offset += line.len() + 1;
        if line_start + line.len() < start || line_start >= end {
            continue;
        }
        if let Some(what) = check(line) {
            findings.push(Finding {
                file: path.to_path_buf(),
                line_no: i + 1,
                line: raw_lines.get(i).copied().unwrap_or("").to_string(),
                what,
            });
        }
    }
}

/// Byte span of the brace-matched body of the first `needle` match in
/// comment/string-stripped source.
fn fn_body_span(stripped: &str, needle: &str) -> Option<(usize, usize)> {
    let at = stripped.find(needle)?;
    let open = at + stripped[at..].find('{')?;
    let bytes = stripped.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((at, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Replaces the contents of comments, string literals, and char
/// literals with spaces, preserving byte offsets and line structure so
/// scans can't match inside docs or literals. Handles `//`, nested
/// `/* */`, `"…"` with escapes, raw strings `r"…"`/`r#"…"#`, and char
/// literals (while leaving lifetimes like `'a` alone).
fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string: r"…", r#"…"#, r##"…"##, …
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let close: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    let body_start = j + 1;
                    let rel = src.as_bytes()[body_start..]
                        .windows(close.len())
                        .position(|w| w == close.as_slice());
                    let end = rel.map_or(b.len(), |r| body_start + r + close.len());
                    for k in body_start..end.saturating_sub(close.len()) {
                        if b[k] != b'\n' {
                            out[k] = b' ';
                        }
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    if b[i] == b'\\' {
                        out[i] = b' ';
                        i += 1;
                        if i < b.len() && b[i] != b'\n' {
                            out[i] = b' ';
                        }
                    } else if b[i] != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
                i += 1;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with a `'`
                // within a few bytes ('x', '\n', '\u{1F600}').
                let lookahead = &b[i + 1..(i + 12).min(b.len())];
                let close = if lookahead.first() == Some(&b'\\') {
                    lookahead
                        .iter()
                        .skip(1)
                        .position(|&c| c == b'\'')
                        .map(|p| p + 1)
                } else {
                    (lookahead.get(1) == Some(&b'\'')).then_some(1)
                };
                if let Some(p) = close {
                    for k in i + 1..=i + 1 + p {
                        if b[k] != b'\n' {
                            out[k] = b' ';
                        }
                    }
                    i += p + 2;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("stripping preserves UTF-8 only when input is ASCII-punctuated")
}
