//! Workspace automation, following the cargo-xtask pattern: run with
//! `cargo xtask <task>` (aliased in `.cargo/config.toml`).
//!
//! The only task so far is `lint`: repo-specific source-level static
//! analysis that stock clippy cannot express:
//!
//! 1. **no-panic-serving-path** — no `.unwrap()` / `.expect(` in
//!    non-test code of `pico-runtime`, `pico-core` and `pico-serve`
//!    (the serving path propagates `Result`s; panics belong in tests
//!    only);
//! 2. **no-lossy-casts-in-cost** — the cost model
//!    (`crates/partition/src/cost.rs`) may only cast *to* `f64`
//!    (int → f64 is the one sanctioned widening); any other `as` cast
//!    between numeric primitives silently truncates;
//! 3. **lint-headers** — every crate root keeps
//!    `#![forbid(unsafe_code)]` and a `missing_docs` lint
//!    (`warn` or `deny`); `pico-tensor` alone carries
//!    `#![deny(unsafe_code)]` instead, because its vectorized kernels
//!    opt back in per-module (see rule 10);
//! 4. **diagnostics-registry** — every `PA###` diagnostic code
//!    mentioned anywhere in the sources is documented in DESIGN.md's
//!    "Plan diagnostics registry";
//! 5. **telemetry-name-registry** — span/counter/histogram names
//!    passed to `Recorder` methods (and `Event` constructors) outside
//!    `pico-telemetry` itself must be `pico_telemetry::names::*`
//!    consts, never ad-hoc string literals, so the name registry stays
//!    the single source of truth and the trace summary's exact-match
//!    grouping cannot silently miss a misspelled name;
//! 6. **kernel-hot-path** — the GEMM micro-kernels
//!    (`crates/tensor/src/gemm.rs`) contain no `.unwrap()` /
//!    `.expect(` and no allocation calls in non-test code: every
//!    buffer is caller-provided (normally from a `Scratch` pool), so
//!    the steady-state zero-allocation guarantee cannot silently rot;
//! 7. **wall-clock-discipline** — `Instant::now()` appears only inside
//!    `pico-telemetry` (the `clock::wall_now` seam) and `pico-bench`
//!    (the measurement harness); everything else must go through the
//!    seam so timing stays mockable and the simulator's virtual time
//!    cannot silently mix with wall time;
//! 8. **bounded-channels-only** — no `unbounded(` / `mpsc::channel(`
//!    in non-test code of `pico-runtime` and `pico-serve`: every
//!    queue in the serving path is bounded so backpressure reaches
//!    admission control as a typed rejection instead of unbounded
//!    memory growth;
//! 9. **serve-plans-via-frontier** — `pico-serve` never invokes a
//!    planner directly (no `.plan(` / `PlanRequest::new(` in non-test
//!    code): every plan the serving path runs comes off the
//!    audit-certified fleet frontier through the plan cache, so an
//!    uncertified plan cannot reach the runtime;
//! 10. **simd-hot-path** — the vectorized and quantized kernels
//!     (`crates/tensor/src/{simd,quant}.rs`) inherit the rule-6
//!     discipline (no `.unwrap()` / `.expect(`, no allocation calls in
//!     non-test code), `unsafe` in any `pico-tensor` module stays
//!     confined to `simd.rs`, and every non-test line using `unsafe`
//!     there carries a nearby `SAFETY:` comment;
//! 11. **no-churn-in-serve** — `pico-serve` never constructs or
//!     consumes churn events (`ClusterSchedule` / `ChurnEvent` /
//!     `ChurnKind` stay out of non-test code): membership churn is
//!     decided by the deployment layer (`pico-core`'s epoch
//!     orchestration), and the serving path only ever sees its
//!     consequences through the plan cache and fleet frontier.
//!
//! Exit code 0 when clean, 1 with a findings listing otherwise.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("unknown task `{other}`\n\nusage: cargo xtask lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

/// Workspace root: this file lives in `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// One lint finding.
struct Violation {
    rule: &'static str,
    file: PathBuf,
    line: usize,
    detail: String,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut violations = Vec::new();

    lint_no_panics(&root, &mut violations);
    lint_cost_casts(&root, &mut violations);
    lint_headers(&root, &mut violations);
    lint_registry(&root, &mut violations);
    lint_telemetry_names(&root, &mut violations);
    lint_kernel_hot_path(&root, &mut violations);
    lint_wall_clock(&root, &mut violations);
    lint_bounded_channels(&root, &mut violations);
    lint_serve_via_frontier(&root, &mut violations);
    lint_simd_hot_path(&root, &mut violations);
    lint_no_churn_in_serve(&root, &mut violations);

    if violations.is_empty() {
        println!("xtask lint: clean (11 rules, 0 findings)");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            let path = v.file.strip_prefix(&root).unwrap_or(&v.file);
            eprintln!("[{}] {}:{}: {}", v.rule, path.display(), v.line, v.detail);
        }
        eprintln!("xtask lint: {} finding(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Collects `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Strips `//` comments and the contents of ordinary string literals
/// from one line, so lint patterns never match inside either. Escapes
/// inside strings are handled; raw strings and block comments are rare
/// enough in this workspace to ignore.
fn strip_comments_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_string = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Net brace depth change of a (comment/string-stripped) line.
fn brace_delta(code: &str) -> i64 {
    code.chars().fold(0, |acc, c| match c {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    })
}

/// Iterates the non-test lines of a source file: lines inside
/// `#[cfg(test)]`-gated items (modules, functions, uses) are skipped.
fn non_test_lines(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut pending_cfg_test = false;
    let mut test_block_depth: i64 = 0;
    let mut in_test_block = false;
    for (i, raw) in source.lines().enumerate() {
        let code = strip_comments_and_strings(raw);
        let trimmed = code.trim();
        if in_test_block {
            test_block_depth += brace_delta(&code);
            if test_block_depth <= 0 {
                in_test_block = false;
            }
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with('#') {
                // Another attribute between #[cfg(test)] and the item.
            } else {
                pending_cfg_test = false;
                let delta = brace_delta(&code);
                if delta > 0 {
                    in_test_block = true;
                    test_block_depth = delta;
                }
                // Item without a block (e.g. a gated `use`): only that
                // line is skipped.
            }
            continue;
        }
        if trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        out.push((i + 1, code));
    }
    out
}

/// Rule 1: no `.unwrap()` / `.expect(` in the serving path.
fn lint_no_panics(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    for dir in ["crates/runtime/src", "crates/core/src", "crates/serve/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (line, code) in non_test_lines(&source) {
            for pattern in [".unwrap()", ".expect("] {
                if code.contains(pattern) {
                    violations.push(Violation {
                        rule: "no-panic-serving-path",
                        file: file.clone(),
                        line,
                        detail: format!("`{pattern}` in non-test serving-path code"),
                    });
                }
            }
        }
    }
}

const LOSSY_CAST_TARGETS: [&str; 14] = [
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize", "f32",
    "char",
];

/// Rule 2: in the cost model, `as` may only widen to `f64`.
fn lint_cost_casts(root: &Path, violations: &mut Vec<Violation>) {
    let file = root.join("crates/partition/src/cost.rs");
    let Ok(source) = std::fs::read_to_string(&file) else {
        violations.push(Violation {
            rule: "no-lossy-casts-in-cost",
            file,
            line: 0,
            detail: "crates/partition/src/cost.rs is missing".to_owned(),
        });
        return;
    };
    for (i, raw) in source.lines().enumerate() {
        let code = strip_comments_and_strings(raw);
        let mut rest = code.as_str();
        while let Some(pos) = rest.find(" as ") {
            let after = &rest[pos + 4..];
            let target: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if LOSSY_CAST_TARGETS.contains(&target.as_str()) {
                violations.push(Violation {
                    rule: "no-lossy-casts-in-cost",
                    file: file.clone(),
                    line: i + 1,
                    detail: format!("lossy `as {target}` cast (only `as f64` is allowed here)"),
                });
            }
            rest = after;
        }
    }
}

/// Rule 3: every crate root keeps its lint headers.
fn lint_headers(root: &Path, violations: &mut Vec<Violation>) {
    let mut roots = vec![root.join("src/lib.rs")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let lib = dir.join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            } else {
                // Binary-only crates (like this one) carry the
                // unsafe-code header on their main.rs instead.
                let main = dir.join("src/main.rs");
                if main.is_file() {
                    let ok = std::fs::read_to_string(&main)
                        .is_ok_and(|s| s.contains("#![forbid(unsafe_code)]"));
                    if !ok {
                        violations.push(Violation {
                            rule: "lint-headers",
                            file: main,
                            line: 1,
                            detail: "missing `#![forbid(unsafe_code)]`".to_owned(),
                        });
                    }
                }
            }
        }
    }
    for lib in roots {
        let Ok(source) = std::fs::read_to_string(&lib) else {
            violations.push(Violation {
                rule: "lint-headers",
                file: lib,
                line: 0,
                detail: "crate root missing".to_owned(),
            });
            continue;
        };
        // pico-tensor hosts the explicitly vectorized kernels, which
        // opt back into `unsafe` per-module; its root
        // must deny (not forbid) so those `#![allow]`s are possible,
        // while rule 10 polices where they may appear.
        let tensor_root = lib.ends_with("crates/tensor/src/lib.rs");
        let (required, found) = if tensor_root {
            (
                "#![deny(unsafe_code)]",
                source.contains("#![deny(unsafe_code)]"),
            )
        } else {
            (
                "#![forbid(unsafe_code)]",
                source.contains("#![forbid(unsafe_code)]"),
            )
        };
        if !found {
            violations.push(Violation {
                rule: "lint-headers",
                file: lib.clone(),
                line: 1,
                detail: format!("missing `{required}`"),
            });
        }
        if !source.contains("#![warn(missing_docs)]") && !source.contains("#![deny(missing_docs)]")
        {
            violations.push(Violation {
                rule: "lint-headers",
                file: lib,
                line: 1,
                detail: "missing `#![warn(missing_docs)]` / `#![deny(missing_docs)]`".to_owned(),
            });
        }
    }
}

/// Extracts every `PA###` token from a string.
fn pa_codes(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 5 <= bytes.len() {
        if bytes[i] == b'P'
            && bytes[i + 1] == b'A'
            && bytes[i + 2].is_ascii_digit()
            && bytes[i + 3].is_ascii_digit()
            && bytes[i + 4].is_ascii_digit()
            && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
            && (i + 5 == bytes.len() || !bytes[i + 5].is_ascii_alphanumeric())
        {
            out.push(text[i..i + 5].to_owned());
            i += 5;
        } else {
            i += 1;
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Rule 4: every diagnostic code used in the sources appears in the
/// DESIGN.md registry.
fn lint_registry(root: &Path, violations: &mut Vec<Violation>) {
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let documented = pa_codes(&design);
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        // This linter's own source mentions no real codes.
        if file.ends_with("crates/xtask/src/main.rs") {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        for code in pa_codes(&source) {
            if !documented.contains(&code) {
                let line = source
                    .lines()
                    .position(|l| l.contains(&code))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                let mut detail = String::new();
                let _ = write!(
                    detail,
                    "diagnostic code {code} is not documented in DESIGN.md's registry"
                );
                violations.push(Violation {
                    rule: "diagnostics-registry",
                    file: file.clone(),
                    line,
                    detail,
                });
            }
        }
    }
}

/// Recorder methods whose *first* argument is an event name.
const RECORDER_NAME_METHODS: [&str; 9] = [
    ".span(",
    ".span_with(",
    ".span_at(",
    ".instant(",
    ".instant_at(",
    ".count(",
    ".count_at(",
    ".observe(",
    ".observe_at(",
];

/// `Event` constructors that take a name (second argument, after the
/// timestamp).
const EVENT_NAME_CALLS: [&str; 3] = ["Event::span_begin(", "Event::span_end(", "Event::instant("];

/// Byte offsets of every occurrence of `needle` in `haystack`.
fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = haystack[start..].find(needle) {
        out.push(start + p);
        start += p + needle.len();
    }
    out
}

/// First non-whitespace character at or after `(idx, col)` in the
/// line stream, looking at most three lines ahead (rustfmt puts a
/// wrapped first argument on the very next line).
fn first_arg_char(lines: &[(usize, String)], idx: usize, col: usize) -> Option<char> {
    for (n, (_, code)) in lines.iter().enumerate().skip(idx).take(4) {
        let from = if n == idx { col } else { 0 };
        if let Some(c) = code
            .get(from..)
            .and_then(|s| s.chars().find(|c| !c.is_whitespace()))
        {
            return Some(c);
        }
    }
    None
}

/// Rule-5 findings for one (already test-stripped) source: `(line,
/// offending token)` pairs where a recorder method or `Event`
/// constructor is handed a string literal instead of a `names::` const.
fn telemetry_name_findings(lines: &[(usize, String)]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, (line, code)) in lines.iter().enumerate() {
        for token in RECORDER_NAME_METHODS {
            for pos in find_all(code, token) {
                if first_arg_char(lines, idx, pos + token.len()) == Some('"') {
                    out.push((*line, token.trim_start_matches('.').to_owned()));
                }
            }
        }
        for token in EVENT_NAME_CALLS {
            for pos in find_all(code, token) {
                // The name is the second argument; scan the argument
                // window (this line + up to three continuations, cut at
                // the first close paren) for any string literal.
                let mut window = code[pos + token.len()..].to_owned();
                for (_, next) in lines.iter().skip(idx + 1).take(3) {
                    window.push(' ');
                    window.push_str(next);
                }
                let window = window.split(')').next().unwrap_or("");
                if window.contains('"') {
                    out.push((*line, token.to_owned()));
                }
            }
        }
    }
    out
}

/// Rule 5: telemetry names outside the telemetry crate come from the
/// `pico_telemetry::names` registry, never ad-hoc string literals.
fn lint_telemetry_names(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        // The telemetry crate defines the API (its internals forward a
        // `name` parameter); the linter's own source spells the
        // patterns it searches for.
        if rel.starts_with("crates/telemetry/") || rel.starts_with("crates/xtask/") {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        let lines = non_test_lines(&source);
        for (line, token) in telemetry_name_findings(&lines) {
            violations.push(Violation {
                rule: "telemetry-name-registry",
                file: file.clone(),
                line,
                detail: format!(
                    "`{token}...)` called with a string literal; \
                     use a `pico_telemetry::names` const"
                ),
            });
        }
    }
}

/// Tokens that heap-allocate; none may appear in kernel hot-path code.
const ALLOCATION_TOKENS: [&str; 9] = [
    "vec!",
    "Vec::new",
    "Vec::with_capacity",
    ".to_vec(",
    ".collect(",
    ".to_owned(",
    ".to_string(",
    "String::",
    "Box::new",
];

/// Rule 6: the GEMM micro-kernels stay panic-free and allocation-free
/// outside tests.
fn lint_kernel_hot_path(root: &Path, violations: &mut Vec<Violation>) {
    let file = root.join("crates/tensor/src/gemm.rs");
    let Ok(source) = std::fs::read_to_string(&file) else {
        violations.push(Violation {
            rule: "kernel-hot-path",
            file,
            line: 0,
            detail: "crates/tensor/src/gemm.rs is missing".to_owned(),
        });
        return;
    };
    for (line, code) in non_test_lines(&source) {
        for pattern in [".unwrap()", ".expect("] {
            if code.contains(pattern) {
                violations.push(Violation {
                    rule: "kernel-hot-path",
                    file: file.clone(),
                    line,
                    detail: format!("`{pattern}` in non-test kernel code"),
                });
            }
        }
        for token in ALLOCATION_TOKENS {
            if code.contains(token) {
                violations.push(Violation {
                    rule: "kernel-hot-path",
                    file: file.clone(),
                    line,
                    detail: format!("`{token}` allocates; kernel buffers must be caller-provided"),
                });
            }
        }
    }
}

/// Rule 7: wall-clock reads go through `pico_telemetry::clock` (or the
/// bench harness, which measures wall time by design); a bare
/// `Instant::now()` anywhere else bypasses the one seam that keeps
/// timing mockable.
fn lint_wall_clock(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/telemetry/")
            || rel.starts_with("crates/bench/")
            || rel.starts_with("crates/xtask/")
        {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (line, code) in non_test_lines(&source) {
            if code.contains("Instant::now(") {
                violations.push(Violation {
                    rule: "wall-clock-discipline",
                    file: file.clone(),
                    line,
                    detail: "wall-clock read outside pico-telemetry/pico-bench; \
                             use `pico_telemetry::clock::wall_now()`"
                        .to_owned(),
                });
            }
        }
    }
}

/// Rule 8: only bounded channels in the serving path. An unbounded
/// queue between intake and the pipeline would absorb overload
/// silently; the design surfaces it as a typed admission rejection.
fn lint_bounded_channels(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    for dir in ["crates/runtime/src", "crates/serve/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (line, code) in non_test_lines(&source) {
            for pattern in ["unbounded(", "mpsc::channel("] {
                if code.contains(pattern) {
                    violations.push(Violation {
                        rule: "bounded-channels-only",
                        file: file.clone(),
                        line,
                        detail: format!(
                            "`{pattern}` in the serving path; use `sync_channel(..)` so \
                             backpressure surfaces at admission"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 9: `pico-serve` never plans for itself. Every plan the serving
/// path executes must come off the audit-certified fleet frontier
/// (through the plan cache), so a direct planner invocation here would
/// bypass the deep-audit gate that certifies stability and memory.
fn lint_serve_via_frontier(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates/serve/src"), &mut files);
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (line, code) in non_test_lines(&source) {
            for pattern in [".plan(", "PlanRequest::new("] {
                if code.contains(pattern) {
                    violations.push(Violation {
                        rule: "serve-plans-via-frontier",
                        file: file.clone(),
                        line,
                        detail: format!(
                            "`{pattern}` plans directly in pico-serve; take plans \
                             from the audited fleet frontier (pico-fleet) instead"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 11: membership churn never reaches `pico-serve`. Churn events
/// are a deployment-layer concern — `pico-core` slices streams into
/// epochs and re-admits devices behind the audit gates — so the serving
/// path handling churn types directly would create a second, ungated
/// re-admission path.
fn lint_no_churn_in_serve(root: &Path, violations: &mut Vec<Violation>) {
    let mut files = Vec::new();
    rust_files(&root.join("crates/serve/src"), &mut files);
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        for (line, code) in non_test_lines(&source) {
            for pattern in ["ClusterSchedule", "ChurnEvent", "ChurnKind"] {
                if code.contains(pattern) {
                    violations.push(Violation {
                        rule: "no-churn-in-serve",
                        file: file.clone(),
                        line,
                        detail: format!(
                            "`{pattern}` in pico-serve; churn is orchestrated by \
                             pico-core's epoch machinery, not the serving path"
                        ),
                    });
                }
            }
        }
    }
}

/// True when `code` contains `unsafe` as a whole word (so
/// `unsafe_code` in an attribute does not count).
fn contains_unsafe_keyword(code: &str) -> bool {
    for pos in find_all(code, "unsafe") {
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let after_ok = !code[pos + 6..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Rule 10: the vectorized and quantized kernels inherit the rule-6
/// hot-path discipline, `unsafe` anywhere in `pico-tensor` stays
/// confined to `simd.rs` (the one module that needs `std::arch`), and
/// every use there is documented with a nearby `SAFETY:` comment.
fn lint_simd_hot_path(root: &Path, violations: &mut Vec<Violation>) {
    const UNSAFE_OK: [&str; 1] = ["simd.rs"];
    const HOT_PATH: [&str; 2] = ["simd.rs", "quant.rs"];
    let dir = root.join("crates/tensor/src");
    for name in HOT_PATH {
        if !dir.join(name).is_file() {
            violations.push(Violation {
                rule: "simd-hot-path",
                file: dir.join(name),
                line: 0,
                detail: format!("crates/tensor/src/{name} is missing"),
            });
        }
    }
    let mut files = Vec::new();
    rust_files(&dir, &mut files);
    for file in files {
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let hot = HOT_PATH.contains(&name);
        let raw_lines: Vec<&str> = source.lines().collect();
        for (line, code) in non_test_lines(&source) {
            for pattern in [".unwrap()", ".expect("] {
                if hot && code.contains(pattern) {
                    violations.push(Violation {
                        rule: "simd-hot-path",
                        file: file.clone(),
                        line,
                        detail: format!("`{pattern}` in non-test kernel code"),
                    });
                }
            }
            for token in ALLOCATION_TOKENS {
                if hot && code.contains(token) {
                    violations.push(Violation {
                        rule: "simd-hot-path",
                        file: file.clone(),
                        line,
                        detail: format!(
                            "`{token}` allocates; kernel buffers must be caller-provided"
                        ),
                    });
                }
            }
            if contains_unsafe_keyword(&code) {
                if !UNSAFE_OK.contains(&name) {
                    violations.push(Violation {
                        rule: "simd-hot-path",
                        file: file.clone(),
                        line,
                        detail: "`unsafe` outside simd.rs; every other tensor module \
                                 is plain safe Rust"
                            .to_owned(),
                    });
                } else {
                    // The justification may sit above a doc comment
                    // and attributes, so scan a few raw lines back
                    // (comments included — that is where it lives).
                    let documented = raw_lines[..line.saturating_sub(1)]
                        .iter()
                        .rev()
                        .take(8)
                        .any(|l| l.contains("SAFETY"))
                        || raw_lines
                            .get(line.saturating_sub(1))
                            .is_some_and(|l| l.contains("SAFETY"));
                    if !documented {
                        violations.push(Violation {
                            rule: "simd-hot-path",
                            file: file.clone(),
                            line,
                            detail: "`unsafe` without a nearby `// SAFETY:` comment".to_owned(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_but_keeps_code() {
        assert_eq!(
            strip_comments_and_strings("let x = 1; // .unwrap()"),
            "let x = 1; "
        );
        assert_eq!(
            strip_comments_and_strings(r#"let s = "a as u8 // x";"#),
            r#"let s = "";"#
        );
    }

    #[test]
    fn non_test_lines_skip_gated_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let lines = non_test_lines(src);
        let text: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        assert!(text.iter().any(|l| l.contains("fn a")));
        assert!(text.iter().any(|l| l.contains("fn c")));
        assert!(!text.iter().any(|l| l.contains("unwrap")));
    }

    #[test]
    fn non_test_lines_skip_gated_use_only() {
        let src = "#[cfg(test)]\nuse foo::Bar;\nfn a() {}\n";
        let lines = non_test_lines(src);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].1.contains("fn a"));
    }

    #[test]
    fn unsafe_keyword_detection_requires_word_boundaries() {
        assert!(contains_unsafe_keyword("unsafe fn f()"));
        assert!(contains_unsafe_keyword("let s = unsafe { *p };"));
        assert!(!contains_unsafe_keyword("#![allow(unsafe_code)]"));
        assert!(!contains_unsafe_keyword("not_unsafe()"));
        assert!(!contains_unsafe_keyword("fn safe_code() {}"));
    }

    #[test]
    fn pa_code_extraction_requires_word_boundaries() {
        assert_eq!(pa_codes("PA001 and PA102."), vec!["PA001", "PA102"]);
        assert!(pa_codes("SPA001 PA0012 OPA123x").is_empty());
    }

    #[test]
    fn telemetry_name_literals_are_flagged() {
        let src = "\
fn instrument(rec: &Recorder) {
    rec.span_at(names::COMPUTE, Ctx::default(), 0.0, 1.0, 0.0, 0);
    rec.count_at(\"ad_hoc\", Ctx::default(), 0.0, 1.0);
    rec.observe_at(
        \"wrapped_literal\",
        Ctx::default(),
        0.0,
        1.0,
    );
    rec.record(Event::instant(0.0, \"bad_name\", Ctx::default()));
    rec.record(Event::instant(0.0, names::PLAN, Ctx::default()));
    let n = xs.iter().count();
}
#[cfg(test)]
mod tests {
    fn gated() { rec.count(\"test_only\", 1.0); }
}
";
        let lines = non_test_lines(src);
        let found = telemetry_name_findings(&lines);
        let tokens: Vec<&str> = found.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            tokens,
            vec!["count_at(", "observe_at(", "Event::instant("],
            "{found:?}"
        );
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        // The committed tree must satisfy its own lints; this is the
        // same check CI runs via `cargo xtask lint`.
        let root = workspace_root();
        let mut violations = Vec::new();
        lint_no_panics(&root, &mut violations);
        lint_cost_casts(&root, &mut violations);
        lint_headers(&root, &mut violations);
        lint_registry(&root, &mut violations);
        lint_telemetry_names(&root, &mut violations);
        lint_kernel_hot_path(&root, &mut violations);
        lint_wall_clock(&root, &mut violations);
        lint_bounded_channels(&root, &mut violations);
        lint_serve_via_frontier(&root, &mut violations);
        lint_simd_hot_path(&root, &mut violations);
        lint_no_churn_in_serve(&root, &mut violations);
        let rendered: Vec<String> = violations
            .iter()
            .map(|v| format!("[{}] {}:{}: {}", v.rule, v.file.display(), v.line, v.detail))
            .collect();
        assert!(rendered.is_empty(), "{rendered:#?}");
    }
}
