//! Repo-local task runner (`cargo run -p xtask -- lint`, `-- loc`).
//!
//! `loc` prints the code-line count ROADMAP's "least code" aim is judged
//! by: per crate under `crates/`, and per source file of `watz-wasm`, the
//! lines of `src/` that still hold something after the lint's comment and
//! string stripping and outside every `#[cfg(test)]` item (test-only module
//! files included). Deleting comments, or moving code into tests, does not
//! move it.
//!
//! `lint` enforces five offline rules CI gates on, beyond what clippy
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
//! 3. **The engine and the runtime read no environment** — no
//!    `std::env::` under `crates/watz-wasm/src` or `crates/core/src`. What
//!    the secure world compiles and runs is a function of the bytes it
//!    measured and the mode, never of the host process's environment.
//! 4. **No dead `pub`** — every `pub` item (`fn`, type, `const`, `static`,
//!    `mod`) of non-test code under `crates/*/src` is named in some other
//!    `.rs` file of the repository: another crate, a test, a bench, an
//!    example or `benchmark/`. A name-level match is enough. An item nobody
//!    else names is made private or `pub(crate)`, deleted, or allowlisted
//!    with the reason it stays public.
//! 5. **No dangling document reference** — every Markdown file name
//!    (`*.md`, with or without a path) that a `.rs` file under `crates/`,
//!    `src/`, `tests/`, `examples/` or `xtask/` mentions is the name of a
//!    file in the repository (outside build output and hidden
//!    directories). Comments and strings count: that is where such a
//!    reference points a reader. The frozen `benchmark/` is not scanned.
//!
//! Rules 1–4 work on comment- and string-stripped source so matches in
//! docs or literals don't count, and `#[cfg(test)]` modules are out of
//! scope. Findings are compared against `xtask/lint-allow.txt`: lines of
//! `file-suffix|needle`, where a finding is allowed when its file path
//! ends with `file-suffix` and the offending line contains `needle`.
//! Unused allowlist entries are reported as failures too, so the list
//! can only shrink.

use std::collections::HashSet;
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

/// Source directories that may not name `std::env::`.
const NO_ENV: [&str; 2] = ["crates/watz-wasm/src", "crates/core/src"];

/// The wire-parser cast-scan targets.
const WIRE_PARSERS: [&str; 2] = [
    "crates/watz-attestation/src/wire.rs",
    "crates/watz-wasm/src/leb128.rs",
];

/// The directories rule 5 scans for Markdown file names.
const DOC_REF_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "xtask"];

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

    let mut sources = Vec::new();
    for dir in NO_ENV {
        files_ending(&root.join(dir), ".rs", &mut sources);
    }
    sources.sort();
    for path in sources {
        let src = read(&path);
        let stripped = strip_comments_and_strings(&src);
        scan_lines(
            &src,
            &stripped,
            0,
            stripped.len(),
            &path,
            &mut findings,
            |s| {
                s.contains("std::env::")
                    .then(|| "`std::env::` in the engine or the runtime".to_string())
            },
        );
    }

    let pub_items = dead_pub(&root, &mut findings);
    let doc_refs = doc_refs(&root, &mut findings);

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
            "lint: ok ({} allowlisted finding(s) across {} dispatch loop(s), {} wire parser(s), {pub_items} `pub` item(s) and {doc_refs} document reference(s); no env read in {})",
            findings.len(),
            DISPATCH_LOOPS.len(),
            WIRE_PARSERS.len(),
            NO_ENV.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {fatal} finding(s); justify in xtask/lint-allow.txt or fix");
        ExitCode::FAILURE
    }
}

/// What may stand between `pub` and an item keyword (`pub const fn`,
/// `pub unsafe fn`, `pub extern "C" fn`).
const QUALIFIERS: [&str; 4] = ["const", "unsafe", "async", "extern"];

/// The item keywords the dead-`pub` check follows to a name.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Rule 4: every `pub` item of non-test code under `crates/*/src` is named
/// in at least one other `.rs` file of the repository (comments and
/// strings do not count). Reports the rest and returns how many items were
/// checked.
fn dead_pub(root: &Path, findings: &mut Vec<Finding>) -> usize {
    let mut files = Vec::new();
    files_ending(root, ".rs", &mut files);
    files.sort();
    let stripped: Vec<String> = files
        .iter()
        .map(|p| strip_comments_and_strings(&read(p)))
        .collect();
    let names: Vec<HashSet<&str>> = stripped
        .iter()
        .map(|s| identifiers(s).map(|(_, w)| w).collect())
        .collect();
    let crates = root.join("crates");
    let mut declaring = Vec::new();
    let mut test_only = Vec::new();
    for (i, path) in files.iter().enumerate() {
        let in_src = path.strip_prefix(&crates).is_ok_and(|rel| {
            rel.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if in_src {
            let (code, mods) = blank_test_items(stripped[i].clone());
            test_only.extend(test_module_files(path, &mods));
            declaring.push((i, code));
        }
    }
    let mut checked = 0usize;
    for (i, code) in declaring {
        let path = &files[i];
        if test_only.contains(path) {
            continue;
        }
        let src = read(path);
        for (at, name) in pub_items(&code) {
            checked += 1;
            if names
                .iter()
                .enumerate()
                .any(|(j, n)| j != i && n.contains(name))
            {
                continue;
            }
            let line_no = code[..at].matches('\n').count() + 1;
            findings.push(Finding {
                file: path.clone(),
                line_no,
                line: src.lines().nth(line_no - 1).unwrap_or("").to_string(),
                what: format!("`pub` item `{name}` is named in no other file"),
            });
        }
    }
    checked
}

/// Rule 5: every Markdown file name a `.rs` file under [`DOC_REF_DIRS`]
/// mentions, in code, comments or strings, names a file of the
/// repository. Reports the rest and returns how many names were checked.
fn doc_refs(root: &Path, findings: &mut Vec<Finding>) -> usize {
    let mut docs = Vec::new();
    files_ending(root, ".md", &mut docs);
    let docs: HashSet<&str> = docs
        .iter()
        .filter_map(|p| p.file_name()?.to_str())
        .collect();
    let mut sources = Vec::new();
    for dir in DOC_REF_DIRS {
        files_ending(&root.join(dir), ".rs", &mut sources);
    }
    sources.sort();
    let mut checked = 0usize;
    for path in sources {
        for (i, line) in read(&path).lines().enumerate() {
            for name in md_names(line) {
                checked += 1;
                if !docs.contains(name) {
                    findings.push(Finding {
                        file: path.clone(),
                        line_no: i + 1,
                        line: line.to_string(),
                        what: format!("`{name}` names no file of the repository"),
                    });
                }
            }
        }
    }
    checked
}

/// The Markdown file names in `line`: a non-empty run of ASCII letters,
/// digits, `_` and `-` followed by `.md` and no further identifier
/// character (any path in front is dropped).
fn md_names(line: &str) -> impl Iterator<Item = &str> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    line.match_indices(".md").filter_map(move |(at, _)| {
        let end = at + ".md".len();
        let start = line[..at].trim_end_matches(is_name).len();
        let whole = !line[end..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        (start < at && whole).then(|| &line[start..end])
    })
}

/// The `pub` items of stripped source: the offset of each `pub` and the
/// item's name. `pub(crate)` and narrower, `pub use` and fields are not
/// items this check follows.
fn pub_items(code: &str) -> Vec<(usize, &str)> {
    let words: Vec<(usize, &str)> = identifiers(code).collect();
    let mut items = Vec::new();
    for (k, &(at, word)) in words.iter().enumerate() {
        if word != "pub" || code[at + 3..].trim_start().starts_with('(') {
            continue;
        }
        let mut rest = words[k + 1..].iter().map(|&(_, w)| w).peekable();
        while rest
            .next_if(|w| QUALIFIERS.contains(w) && *w != "const")
            .is_some()
        {}
        let Some(mut keyword) = rest.next() else {
            continue;
        };
        if keyword == "const" && rest.peek() == Some(&"fn") {
            keyword = "fn";
            rest.next();
        }
        if !ITEM_KEYWORDS.contains(&keyword) {
            continue;
        }
        rest.next_if_eq(&"mut");
        if let Some(name) = rest.next() {
            items.push((at, name));
        }
    }
    items
}

/// The identifier-like words of stripped source, with their offsets.
fn identifiers(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() && !is_ident(bytes[i]) {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        (start < i).then(|| (start, &code[start..i]))
    })
}

/// The files of the modules `path` declares `#[cfg(test)] mod name;`: in
/// `a/b.rs` that is `a/b/name.rs`, in a `lib.rs`, `main.rs` or `mod.rs` it
/// sits beside the file.
fn test_module_files<'a>(path: &Path, mods: &'a [String]) -> impl Iterator<Item = PathBuf> + 'a {
    let dir = match path.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") => path.parent().unwrap_or(path).to_path_buf(),
        _ => path.with_extension(""),
    };
    mods.iter().map(move |m| dir.join(format!("{m}.rs")))
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
        files_ending(&src_dir, ".rs", &mut files);
        files.sort();
        let mut test_only: Vec<PathBuf> = Vec::new();
        let mut counts = Vec::new();
        for path in &files {
            let (code, test_mods) = blank_test_items(strip_comments_and_strings(&read(path)));
            test_only.extend(test_module_files(path, &test_mods));
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

/// Collects every file whose name ends with `suffix` under `dir`,
/// recursively, except under build-output (`target`) and hidden
/// directories.
fn files_ending(dir: &Path, suffix: &str, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{} unreadable: {e}", dir.display()));
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                files_ending(&path, suffix, out);
            }
        } else if name.ends_with(suffix) {
            out.push(path);
        }
    }
}

/// Blanks every `#[cfg(test)]` item of comment/string-stripped source
/// (offsets and line structure kept), each up to where [`item_end`] puts
/// it. Returns the text and the names of the modules declared
/// `#[cfg(test)] mod name;`, whose files are test-only.
fn blank_test_items(stripped: String) -> (String, Vec<String>) {
    const ATTR: &str = "#[cfg(test)]";
    let mut spans = Vec::new();
    let mut test_mods = Vec::new();
    let mut from = 0usize;
    while let Some(at) = stripped[from..].find(ATTR).map(|rel| from + rel) {
        let start = at + ATTR.len();
        let end = start + item_end(&stripped[start..]);
        if let Some(decl) = stripped[start..end].trim().strip_suffix(';') {
            if let [.., "mod", name] = decl.split_whitespace().collect::<Vec<_>>()[..] {
                test_mods.push(name.to_string());
            }
        }
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

/// Length of the item, field or statement at the head of stripped source
/// `s`: through the first `;` or `,` outside any bracket, or through the
/// `}` that closes the first brace block, or up to a closer of the
/// enclosing scope (a last field without a comma). Angle brackets hide a
/// `,` (`HashMap<K, V>`) and nothing else; `->` and `=>` close none.
fn item_end(s: &str) -> usize {
    let b = s.as_bytes();
    let (mut depth, mut angle) = (0usize, 0usize);
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 && c == b'}' {
                    return i + 1;
                }
            }
            b'<' if depth == 0 => angle += 1,
            b'>' if depth == 0 && !matches!(b.get(i.wrapping_sub(1)), Some(b'-' | b'=')) => {
                angle = angle.saturating_sub(1);
            }
            b';' if depth == 0 => return i + 1,
            b',' if depth == 0 && angle == 0 => return i + 1,
            _ => {}
        }
    }
    s.len()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The lines of `src` that still hold code once its test items are
    /// blanked, trimmed, and the test-only module names.
    fn kept(src: &str) -> (Vec<String>, Vec<String>) {
        let (code, mods) = blank_test_items(strip_comments_and_strings(src));
        assert_eq!(code.len(), src.len(), "offsets are kept");
        let lines = code
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(String::from)
            .collect();
        (lines, mods)
    }

    #[test]
    fn a_test_field_ends_at_its_comma() {
        let src = "struct A {\n    x: u8,\n    #[cfg(test)]\n    seen: HashMap<u8, Vec<u8>>,\n    y: u8,\n}\nimpl A {\n    fn f(&self) {}\n}\n";
        let (lines, mods) = kept(src);
        assert_eq!(
            lines,
            [
                "struct A {",
                "x: u8,",
                "y: u8,",
                "}",
                "impl A {",
                "fn f(&self) {}",
                "}"
            ]
        );
        assert!(mods.is_empty());
        // The last field, without a comma, ends at the struct's brace.
        let (lines, _) =
            kept("struct B {\n    x: u8,\n    #[cfg(test)]\n    seen: u8\n}\nfn g() {}\n");
        assert_eq!(lines, ["struct B {", "x: u8,", "}", "fn g() {}"]);
    }

    #[test]
    fn a_test_fn_with_parameters_ends_at_its_body() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper<A, B>(a: A, b: B) -> Vec<u8> {\n    let v = vec![0, 1];\n    v\n}\nfn real(x: u8) -> u8 {\n    x\n}\n";
        let (lines, _) = kept(src);
        assert_eq!(lines, ["fn real(x: u8) -> u8 {", "x", "}"]);
    }

    #[test]
    fn a_test_mod_declaration_ends_at_its_semicolon() {
        let src = "mod real;\n#[cfg(test)]\nmod oracle;\n\nfn f() {\n    g();\n}\n";
        let (lines, mods) = kept(src);
        assert_eq!(lines, ["mod real;", "fn f() {", "g();", "}"]);
        assert_eq!(mods, ["oracle"]);
    }

    #[test]
    fn an_attributed_statement_ends_at_its_semicolon() {
        let src = "fn f(n: &Cell<u8>) -> u8 {\n    #[cfg(test)]\n    COUNT.with(|c| c.set(c.get() + 1));\n    let x = { 1 };\n    x\n}\n";
        let (lines, mods) = kept(src);
        assert_eq!(
            lines,
            ["fn f(n: &Cell<u8>) -> u8 {", "let x = { 1 };", "x", "}"]
        );
        assert!(mods.is_empty());
    }
}
