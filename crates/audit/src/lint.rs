//! Zero-dependency source lint pass over the workspace's crates.
//!
//! The linter is line/token-level (no rustc internals): a small
//! comment/string-stripping state machine feeds per-line rules. Scope is
//! every `crates/*/src/**/*.rs` plus the root package's `src/`. The
//! hygiene rules skip `#[cfg(test)]` modules, and the first two also skip
//! binary targets (`src/bin/**`, `main.rs`), which legitimately print and
//! unwrap.
//!
//! Rules (stable ids, `lint.*`):
//!
//! * `lint.no-unwrap` — no `unwrap()` / `expect(` / `panic!(` /
//!   `unreachable!(` / `todo!(` / `unimplemented!(` in library code.
//! * `lint.no-println` — no `println!` / `print!` / `eprintln!` /
//!   `eprint!` in library code; route through `astro_telemetry::log`.
//! * `lint.must-use` — builder-style methods (`self`-consuming, returning
//!   `Self`) must carry `#[must_use]`.
//! * `lint.pub-doc` — every `pub` item needs a `///` doc comment.
//! * `lint.telemetry-span` — curated public pipeline entry points must
//!   open a telemetry span.
//! * `lint.allowlist.stale` — an allowlist entry matched nothing; the
//!   allowlist is shrink-only and stale entries must be deleted.
//!
//! Lock and wait rules, over every line (test modules included) of every
//! file but the locking machinery itself (`CONCURRENCY_EXEMPT`):
//!
//! * `lint.lock-unranked` — a `.lock()` that is not a `lock_ranked` call
//!   and has no `lockcheck::acquire` in the lines just above it, so the
//!   debug-build rank checker cannot see it.
//! * `lint.lock-unknown-rank` — an acquisition names a lock with no row in
//!   `astro_telemetry::lockcheck::RANKS`.
//! * `lint.lock-unused-rank` — a `RANKS` row no site acquires.
//! * `lint.lock-order` — an acquisition lexically nested inside another
//!   whose rank is not strictly lower. The scope is the brace block, which
//!   over-approximates a guard's life (the conservative direction).
//! * `lint.wait-unmodelled` — a condvar wait in a file with no
//!   `WAIT_HARNESSES` row naming the model-checked harness covering it.
//! * `lint.wait-unused-row` — a `WAIT_HARNESSES` row whose file has no
//!   wait.
//!
//! Grandfathered sites live in `audit_allowlist.txt` at the repo root,
//! one `rule|path|trimmed line` triple per line.

use astro_telemetry::lockcheck;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Name of the allowlist file at the repository root.
pub const ALLOWLIST_FILE: &str = "audit_allowlist.txt";

/// The locking machinery itself (the model checker, the rank checker and
/// the sync shim), whose raw `.lock()` and `.wait(` calls are what every
/// other site's `lock_ranked` compiles down to: exempt from the lock and
/// wait rules.
const CONCURRENCY_EXEMPT: &[&str] = &[
    "crates/check/src/",
    "crates/telemetry/src/lockcheck.rs",
    "crates/telemetry/src/sync.rs",
];

/// Every file that waits on a condvar, with the `--cfg astro_check`
/// harness that explores its protocol. A new wait needs a harness and a
/// row; a row outlives its file's last wait only as a lint error.
const WAIT_HARNESSES: &[(&str, &str)] =
    &[("crates/gateway/src/queue.rs", "crates/gateway/tests/check_queue.rs")];

/// Where `RANKS` lives, the path `lint.lock-unused-rank` reports.
const RANKS_FILE: &str = "crates/telemetry/src/lockcheck.rs";

/// Calls that record a ranked acquisition; `lock_ranked` also takes the
/// lock. The lock name is the call's first string literal.
const ACQUIRE_CALLS: &[&str] = &["lockcheck::acquire(", "lock_ranked("];

/// How many lines above a `.lock()` its `lockcheck::acquire` may sit.
const ACQUIRE_WINDOW: usize = 5;

/// Condvar waits (a `.wait()` with no guard argument is a process or a
/// barrier, not a condvar).
const WAIT_CALLS: &[&str] = &[".wait(", ".wait_timeout(", ".wait_while("];

/// Pipeline *stage* entry points that must open a telemetry span near the
/// top of their body: (path suffix, function name). A connection handler
/// is not one: a request is described by its trace.
const SPAN_REQUIRED: &[(&str, &str)] = &[
    ("crates/core/src/study.rs", "prepare"),
    ("crates/core/src/study.rs", "pretrain_native"),
    ("crates/core/src/study.rs", "cpt"),
    ("crates/core/src/study.rs", "sft"),
    ("crates/core/src/study.rs", "run_study"),
    ("crates/train/src/trainer.rs", "train_lm"),
    ("crates/eval/src/score.rs", "evaluate_checked"),
    ("crates/serve/src/engine.rs", "score_batch"),
    ("crates/serve/src/engine.rs", "generate_batch"),
];

/// One raw lint hit before allowlist filtering.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id, e.g. `lint.no-unwrap`.
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line (the allowlist key).
    pub content: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The `rule|path|content` triple used for allowlist matching. The
    /// line number is deliberately excluded so unrelated edits above a
    /// grandfathered site do not invalidate its entry.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.path, self.content)
    }

    /// Render as a one-line `error [rule] path:line: message` string.
    pub fn render(&self) -> String {
        format!("error [{}] {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

/// Lint configuration: where the workspace lives and which allowlist file
/// to honour.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Workspace root (directory containing `crates/`).
    pub root: PathBuf,
    /// Allowlist path; defaults to `<root>/audit_allowlist.txt`.
    pub allowlist: PathBuf,
}

impl LintConfig {
    /// Config rooted at `root` with the default allowlist location.
    pub fn new(root: &Path) -> Self {
        LintConfig { root: root.to_path_buf(), allowlist: root.join(ALLOWLIST_FILE) }
    }
}

/// Outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Findings not covered by the allowlist, plus stale-allowlist errors.
    pub diagnostics: Vec<Finding>,
    /// Number of findings suppressed by allowlist entries.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when no diagnostics remain after filtering.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Line-oriented comment/string stripper. Returns the line with comment
/// text and string interiors removed; keeps structure (`"..."` becomes
/// `""`) so token rules do not fire inside prose.
struct Stripper {
    in_block_comment: bool,
    in_raw_string: Option<usize>, // number of #s terminating the raw string
}

impl Stripper {
    fn new() -> Self {
        Stripper { in_block_comment: false, in_raw_string: None }
    }

    fn strip(&mut self, line: &str) -> String {
        let b = line.as_bytes();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            if self.in_block_comment {
                if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    self.in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if let Some(hashes) = self.in_raw_string {
                // Look for `"###` with the right number of #s.
                if b[i] == b'"' && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes {
                    self.in_raw_string = None;
                    out.push('"');
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
                continue;
            }
            let c = b[i];
            match c {
                b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break, // line comment
                b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                    self.in_block_comment = true;
                    i += 2;
                }
                b'r' => {
                    if let Some(hashes) = Self::raw_string_start(b, i) {
                        self.in_raw_string = Some(hashes);
                        out.push('"');
                        i += 2 + hashes; // r##"
                    } else {
                        out.push('r');
                        i += 1;
                    }
                }
                b'"' => {
                    out.push('"');
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'"' {
                            out.push('"');
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    // Unterminated => ordinary multi-line strings are rare
                    // in this codebase; treat the rest of the line as string.
                }
                b'\'' => {
                    // Char literal vs lifetime: a lifetime is `'ident` not
                    // followed by a closing quote within 2-3 chars with
                    // escape handling; simplest robust rule: if the next
                    // char is alphabetic and the char after is not `'`,
                    // it's a lifetime — copy and move on.
                    if i + 2 < b.len()
                        && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                        && b[i + 2] != b'\''
                    {
                        out.push('\'');
                        i += 1; // lifetime
                    } else {
                        // char literal: skip to closing quote
                        let mut j = i + 1;
                        if j < b.len() && b[j] == b'\\' {
                            j += 2;
                            // \x41 and \u{..} are longer; scan to quote
                            while j < b.len() && b[j] != b'\'' {
                                j += 1;
                            }
                        }
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                        i = (j + 1).min(b.len());
                        out.push('\'');
                        out.push('\'');
                    }
                }
                _ => {
                    out.push(c as char);
                    i += 1;
                }
            }
        }
        out
    }

    /// If `b[i..]` starts a raw string (`r"`, `r#"`, `br"`, …) return the
    /// number of `#`s; `i` must point at the `r`.
    fn raw_string_start(b: &[u8], i: usize) -> Option<usize> {
        // Reject identifiers ending in r (e.g. `var"` is not valid Rust
        // anyway, but `for"` can't occur); require non-ident before.
        if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
            return None;
        }
        let mut j = i + 1;
        let mut hashes = 0;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            Some(hashes)
        } else {
            None
        }
    }
}

/// Count brace-depth delta and minimum relative depth over a stripped line.
fn brace_walk(line: &str, depth: i64) -> (i64, i64) {
    let mut d = depth;
    let mut min = depth;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => {
                d -= 1;
                min = min.min(d);
            }
            _ => {}
        }
    }
    (d, min)
}

/// Is this path a binary target (free to print/unwrap)?
fn is_bin_path(rel: &str) -> bool {
    rel.contains("src/bin/") || rel.ends_with("/main.rs") || rel == "main.rs"
}

const UNWRAP_TOKENS: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];
const PRINT_TOKENS: &[&str] = &["eprintln!(", "eprint!(", "println!(", "print!("];

/// Tokens immediately preceding `needle` that make it a different method
/// (e.g. `.expect_err(` contains `.expect(`? no — substring match needs
/// care: `.expect(` does not match `.expect_err(` because of the open
/// paren, and `.unwrap()` does not match `.unwrap_or(...)`. The token
/// list is chosen so no false-positive overlap exists.)
fn scan_tokens(line: &str, tokens: &[&str]) -> Option<&'static str> {
    for &t in tokens {
        if line.contains(t) {
            // Re-borrow as 'static: the token slices are 'static.
            return UNWRAP_TOKENS
                .iter()
                .chain(PRINT_TOKENS.iter())
                .find(|&&k| k == t)
                .copied();
        }
    }
    None
}

/// What the lock and wait rules gather across files, for the two rules
/// about table rows no source site uses.
#[derive(Default)]
struct Seen {
    /// Lock names some site acquires.
    ranks: BTreeSet<String>,
    /// Files with a condvar wait.
    waits: BTreeSet<String>,
}

/// The lock name of a ranked acquisition on this line, if any: detected
/// on the stripped line (not in prose), read from the raw one (the
/// stripper empties string literals).
fn acquire_name<'a>(stripped: &str, raw: &'a str) -> Option<&'a str> {
    if !ACQUIRE_CALLS.iter().any(|c| stripped.contains(c)) {
        return None;
    }
    let rest = ACQUIRE_CALLS.iter().find_map(|c| raw.find(c).map(|at| &raw[at + c.len()..]))?;
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(&rest[start..end])
}

/// Is there a condvar wait on this stripped line?
fn waits_on_condvar(line: &str) -> bool {
    WAIT_CALLS
        .iter()
        .any(|c| line.match_indices(c).any(|(at, _)| !line[at + c.len()..].starts_with(')')))
}

/// The per-line lock and wait rules over one file, test modules included.
fn lock_and_wait_rules(
    rel: &str,
    raw_lines: &[&str],
    stripped: &[String],
    seen: &mut Seen,
    findings: &mut Vec<Finding>,
) {
    let mut push = |rule: &str, idx: usize, message: String| {
        findings.push(Finding {
            rule: rule.to_string(),
            path: rel.to_string(),
            line: idx + 1,
            content: raw_lines[idx].trim().to_string(),
            message,
        });
    };
    // Ranked acquisitions lexically held: (name, rank, brace depth).
    let mut held: Vec<(&str, u32, i64)> = Vec::new();
    let mut depth: i64 = 0;
    let mut last_acquire: Option<usize> = None;
    for (idx, line) in stripped.iter().enumerate() {
        // A block closing on this line releases what was taken inside it.
        let (d, min) = brace_walk(line, depth);
        held.retain(|&(_, _, at)| at <= min);
        if let Some(name) = acquire_name(line, raw_lines[idx]) {
            last_acquire = Some(idx);
            seen.ranks.insert(name.to_string());
            match lockcheck::rank_of(name) {
                None => push(
                    "lint.lock-unknown-rank",
                    idx,
                    format!("`{name}` has no row in lockcheck::RANKS"),
                ),
                Some(rank) => {
                    if let Some(&(top, top_rank, _)) = held.last() {
                        if rank <= top_rank {
                            push(
                                "lint.lock-order",
                                idx,
                                format!(
                                    "acquires {name} (rank {rank}) while lexically holding \
                                     {top} (rank {top_rank}); ranks must strictly increase"
                                ),
                            );
                        }
                    }
                    held.push((name, rank, d));
                }
            }
        } else if line.contains(".lock()") && last_acquire.is_none_or(|a| idx - a > ACQUIRE_WINDOW) {
            push(
                "lint.lock-unranked",
                idx,
                "`.lock()` with no lock_ranked / lockcheck::acquire just above it; the \
                 debug-build rank checker cannot see it"
                    .to_string(),
            );
        }
        if waits_on_condvar(line) {
            seen.waits.insert(rel.to_string());
            if !WAIT_HARNESSES.iter().any(|&(file, _)| file == rel) {
                push(
                    "lint.wait-unmodelled",
                    idx,
                    "condvar wait with no WAIT_HARNESSES row; give its protocol an \
                     astro-check harness and add the row"
                        .to_string(),
                );
            }
        }
        depth = d;
    }
}

/// The table rows no scanned site uses: `RANKS` names never acquired and
/// `WAIT_HARNESSES` files that no longer wait.
fn unused_rows(seen: &Seen, findings: &mut Vec<Finding>) {
    for r in lockcheck::RANKS.iter().filter(|r| !seen.ranks.contains(r.name)) {
        findings.push(Finding {
            rule: "lint.lock-unused-rank".to_string(),
            path: RANKS_FILE.to_string(),
            line: 0,
            content: r.name.to_string(),
            message: format!("rank {} `{}` is declared but no site acquires it", r.rank, r.name),
        });
    }
    for &(file, harness) in WAIT_HARNESSES.iter().filter(|(f, _)| !seen.waits.contains(*f)) {
        findings.push(Finding {
            rule: "lint.wait-unused-row".to_string(),
            path: file.to_string(),
            line: 0,
            content: harness.to_string(),
            message: format!("WAIT_HARNESSES row names {file}, which has no condvar wait"),
        });
    }
}

/// Scan one source file, appending findings.
#[allow(clippy::too_many_lines)]
fn scan_file(
    abs: &Path,
    rel: &str,
    seen: &mut Seen,
    findings: &mut Vec<Finding>,
) -> std::io::Result<()> {
    let text = std::fs::read_to_string(abs)?;
    let raw_lines: Vec<&str> = text.lines().collect();
    let mut stripper = Stripper::new();
    let stripped: Vec<String> = raw_lines.iter().map(|l| stripper.strip(l)).collect();
    if !CONCURRENCY_EXEMPT.iter().any(|e| rel.starts_with(e)) {
        lock_and_wait_rules(rel, &raw_lines, &stripped, seen, findings);
    }

    // Mark lines inside `#[cfg(test)] mod … { … }` regions.
    let mut in_test = vec![false; raw_lines.len()];
    {
        let mut depth: i64 = 0;
        let mut pending_cfg_test = false;
        let mut test_depth: Option<i64> = None;
        for (idx, line) in stripped.iter().enumerate() {
            let trimmed = raw_lines[idx].trim_start();
            if trimmed.starts_with("#[cfg(test)]") {
                pending_cfg_test = true;
            }
            let entering_mod = pending_cfg_test && line.contains("mod ") && line.contains('{');
            let (d, _min) = brace_walk(line, depth);
            if let Some(td) = test_depth {
                in_test[idx] = true;
                if d <= td {
                    test_depth = None;
                }
            } else if entering_mod {
                in_test[idx] = true;
                test_depth = Some(depth);
                pending_cfg_test = false;
            } else if pending_cfg_test && !trimmed.starts_with("#[") && !trimmed.is_empty() {
                // #[cfg(test)] on a non-mod item (fn, use): only that item
                // is test-only; treat the single line as test code.
                in_test[idx] = true;
                pending_cfg_test = false;
            }
            depth = d;
        }
    }

    let is_bin = is_bin_path(rel);
    let push = |findings: &mut Vec<Finding>, rule: &str, idx: usize, message: String| {
        findings.push(Finding {
            rule: rule.to_string(),
            path: rel.to_string(),
            line: idx + 1,
            content: raw_lines[idx].trim().to_string(),
            message,
        });
    };

    for (idx, line) in stripped.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        if !is_bin {
            if let Some(tok) = scan_tokens(line, UNWRAP_TOKENS) {
                push(
                    findings,
                    "lint.no-unwrap",
                    idx,
                    format!("`{tok}` in library code; return a Result or document the invariant"),
                );
            }
            if let Some(tok) = scan_tokens(line, PRINT_TOKENS) {
                push(
                    findings,
                    "lint.no-println",
                    idx,
                    format!("`{tok}` in library code; use astro_telemetry::log or the sink"),
                );
            }
        }

        // Rules below apply to bins too: docs and must_use are about API.
        let trimmed = raw_lines[idx].trim_start();
        let is_pub_item = (trimmed.starts_with("pub fn ")
            || trimmed.starts_with("pub struct ")
            || trimmed.starts_with("pub enum ")
            || trimmed.starts_with("pub trait ")
            || trimmed.starts_with("pub mod ")
            || trimmed.starts_with("pub const ")
            || trimmed.starts_with("pub static ")
            || trimmed.starts_with("pub type ")
            || trimmed.starts_with("pub unsafe fn "))
            && !trimmed.starts_with("pub use")
            // `pub mod x;` declarations carry their docs inside the file
            // as `//!` module docs; only inline `pub mod x { ... }` needs
            // a `///` at the declaration.
            && !(trimmed.starts_with("pub mod ") && trimmed.trim_end().ends_with(';'));
        if is_pub_item {
            // Walk upward over attributes and derives to the nearest
            // non-attribute line; require a doc comment there.
            let mut j = idx;
            let mut documented = false;
            while j > 0 {
                j -= 1;
                let above = raw_lines[j].trim_start();
                if above.starts_with("#[") || above.starts_with("#![") {
                    continue;
                }
                documented = above.starts_with("///")
                    || above.starts_with("//!")
                    || above.starts_with("#[doc")
                    || above.ends_with("*/");
                break;
            }
            if !documented {
                push(
                    findings,
                    "lint.pub-doc",
                    idx,
                    "public item without a doc comment".to_string(),
                );
            }
        }

        // Builder-style: consuming-self method returning Self.
        if trimmed.starts_with("pub fn ") {
            // Join continuation lines until the signature terminates.
            let mut sig = line.trim().to_string();
            let mut k = idx;
            while !sig.contains('{') && !sig.contains(';') && k + 1 < stripped.len() && k - idx < 6
            {
                k += 1;
                sig.push(' ');
                sig.push_str(stripped[k].trim());
            }
            let consuming_self = sig.contains("(self,")
                || sig.contains("(self)")
                || sig.contains("(mut self,")
                || sig.contains("(mut self)");
            let returns_self = sig.contains("-> Self");
            if consuming_self && returns_self {
                let mut has_must_use = false;
                let mut j = idx;
                while j > 0 && idx - (j - 1) <= 3 {
                    j -= 1;
                    if raw_lines[j].trim_start().starts_with("#[must_use") {
                        has_must_use = true;
                        break;
                    }
                    if !raw_lines[j].trim_start().starts_with("#[") {
                        break;
                    }
                }
                if !has_must_use {
                    push(
                        findings,
                        "lint.must-use",
                        idx,
                        "builder-style method (consumes self, returns Self) without #[must_use]"
                            .to_string(),
                    );
                }
            }
        }
    }

    // Telemetry-span coverage for curated entry points in this file.
    for &(suffix, func) in SPAN_REQUIRED {
        if !rel.ends_with(suffix) {
            continue;
        }
        let needle = format!("fn {func}(");
        let mut found_fn = false;
        for (idx, line) in stripped.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            if line.contains(&needle) {
                found_fn = true;
                // Window covers a multi-line signature plus early argument
                // validation before the span opens.
                let end = (idx + 20).min(stripped.len());
                if !stripped[idx..end].iter().any(|l| l.contains("span")) {
                    push(
                        findings,
                        "lint.telemetry-span",
                        idx,
                        format!("pipeline entry point `{func}` does not open a telemetry span"),
                    );
                }
                break;
            }
        }
        if !found_fn {
            findings.push(Finding {
                rule: "lint.telemetry-span".to_string(),
                path: rel.to_string(),
                line: 1,
                content: format!("fn {func}"),
                message: format!(
                    "curated entry point `{func}` not found in {rel}; update the SPAN_REQUIRED \
                     table in crates/audit/src/lint.rs"
                ),
            });
        }
    }
    Ok(())
}

/// Recursively collect `.rs` files under `dir` (sorted for determinism).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Gather raw findings over the whole workspace (no allowlist filtering).
pub fn collect_findings(root: &Path) -> (Vec<Finding>, usize) {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        crate_dirs.sort();
        for c in crate_dirs {
            rust_files(&c.join("src"), &mut files);
        }
    }
    rust_files(&root.join("src"), &mut files);
    let mut findings = Vec::new();
    let mut seen = Seen::default();
    let scanned = files.len();
    for abs in &files {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(abs)
            .to_string_lossy()
            .replace('\\', "/");
        if let Err(e) = scan_file(abs, &rel, &mut seen, &mut findings) {
            findings.push(Finding {
                rule: "lint.io".to_string(),
                path: rel,
                line: 0,
                content: String::new(),
                message: format!("failed to read source: {e}"),
            });
        }
    }
    unused_rows(&seen, &mut findings);
    findings.sort();
    (findings, scanned)
}

/// Parse the allowlist file: `rule|path|content` triples, `#` comments.
fn load_allowlist(path: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Run the lint pass with allowlist filtering.
pub fn lint_workspace(config: &LintConfig) -> LintReport {
    let (findings, files_scanned) = collect_findings(&config.root);
    let allow = load_allowlist(&config.allowlist);
    let allow_set: BTreeSet<&str> = allow.iter().map(String::as_str).collect();
    let mut used: BTreeSet<&str> = BTreeSet::new();
    let mut report = LintReport { files_scanned, ..Default::default() };
    for f in findings {
        if let Some(&entry) = allow_set.get(f.key().as_str()) {
            used.insert(entry);
            report.suppressed += 1;
        } else {
            report.diagnostics.push(f);
        }
    }
    for entry in allow.iter().filter(|e| !used.contains(e.as_str())) {
        report.diagnostics.push(Finding {
            rule: "lint.allowlist.stale".to_string(),
            path: ALLOWLIST_FILE.to_string(),
            line: 0,
            content: entry.clone(),
            message: format!("entry matches nothing (allowlist is shrink-only, delete it): {entry}"),
        });
    }
    report
}

/// Serialise findings as allowlist lines (used by `--write-allowlist`).
pub fn render_allowlist(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# astro-audit lint allowlist — grandfathered sites only.\n\
         # Format: rule|path|trimmed source line. Shrink-only: stale entries fail CI.\n",
    );
    let mut keys: Vec<String> = findings.iter().map(Finding::key).collect();
    keys.sort();
    keys.dedup();
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip_one(s: &str) -> String {
        Stripper::new().strip(s)
    }

    #[test]
    fn stripper_removes_comments_and_strings() {
        assert_eq!(strip_one("let x = 1; // unwrap() here"), "let x = 1; ");
        assert_eq!(strip_one("let s = \"panic!(boom)\";"), "let s = \"\";");
        assert_eq!(strip_one("let c = '\\n'; let l: &'static str;"), "let c = ''; let l: &'static str;");
        assert_eq!(strip_one("let r = r#\"println!(x)\"#;"), "let r = \"\";");
    }

    #[test]
    fn stripper_handles_block_comments_across_lines() {
        let mut s = Stripper::new();
        assert_eq!(s.strip("foo(); /* start"), "foo(); ");
        assert_eq!(s.strip("unwrap() inside */ bar();"), " bar();");
    }

    #[test]
    fn unwrap_token_does_not_match_unwrap_or() {
        assert!(scan_tokens("x.unwrap_or(0)", UNWRAP_TOKENS).is_none());
        assert!(scan_tokens("x.unwrap_or_else(f)", UNWRAP_TOKENS).is_none());
        assert_eq!(scan_tokens("x.unwrap()", UNWRAP_TOKENS), Some(".unwrap()"));
        assert_eq!(scan_tokens("x.expect(\"m\")", UNWRAP_TOKENS), Some(".expect("));
    }

    #[test]
    fn finds_violations_in_synthetic_crate() {
        let dir = std::env::temp_dir().join(format!("astro-audit-lint-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            r#"//! Demo crate.
/// Documented.
pub fn documented() -> usize {
    let v: Option<usize> = None;
    v.unwrap()
}
pub fn undocumented() {
    println!("hi");
}
pub fn with_x(mut self) -> Self {
    self
}
#[cfg(test)]
mod tests {
    #[test]
    fn ok() {
        let v: Option<usize> = Some(1);
        assert_eq!(v.unwrap(), 1); // fine in tests
    }
}
"#,
        )
        .unwrap();
        let (findings, scanned) = collect_findings(&dir);
        assert_eq!(scanned, 1);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"lint.no-unwrap"), "{rules:?}");
        assert!(rules.contains(&"lint.no-println"), "{rules:?}");
        assert!(rules.contains(&"lint.pub-doc"), "{rules:?}");
        assert!(rules.contains(&"lint.must-use"), "{rules:?}");
        // The unwrap inside #[cfg(test)] must NOT be reported.
        assert_eq!(
            findings.iter().filter(|f| f.rule == "lint.no-unwrap").count(),
            1,
            "{findings:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allowlist_suppresses_and_flags_stale() {
        let dir = std::env::temp_dir().join(format!("astro-audit-allow-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "//! D.\n/// D.\npub fn f() {\n    Option::<u8>::None.unwrap();\n}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join(ALLOWLIST_FILE),
            "lint.no-unwrap|crates/demo/src/lib.rs|Option::<u8>::None.unwrap();\n\
             lint.no-unwrap|crates/demo/src/lib.rs|this line was deleted long ago\n",
        )
        .unwrap();
        let report = lint_workspace(&LintConfig::new(&dir));
        assert_eq!(report.suppressed, 1);
        assert!(report.diagnostics.iter().any(|d| d.rule == "lint.allowlist.stale"));
        assert!(!report.diagnostics.iter().any(|d| d.rule == "lint.no-unwrap"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
    }

    #[test]
    fn workspace_is_clean() {
        let report = lint_workspace(&LintConfig::new(&repo_root()));
        let errors: Vec<String> = report.diagnostics.iter().map(Finding::render).collect();
        assert!(errors.is_empty(), "lint errors:\n{}", errors.join("\n"));
        assert!(report.files_scanned > 100, "scanned {} files", report.files_scanned);
    }

    /// `(rule, path)` of the per-line lock and wait findings for `files`
    /// written into an otherwise empty workspace.
    fn lock_and_wait_hits(tag: &str, files: &[(&str, &str)]) -> Vec<(String, String)> {
        let dir = std::env::temp_dir().join(format!("astro-audit-{tag}-{}", std::process::id()));
        for (rel, body) in files {
            let path = dir.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, body).unwrap();
        }
        let (findings, _) = collect_findings(&dir);
        std::fs::remove_dir_all(&dir).ok();
        findings
            .into_iter()
            .filter(|f| {
                matches!(
                    f.rule.as_str(),
                    "lint.lock-unranked"
                        | "lint.lock-unknown-rank"
                        | "lint.lock-order"
                        | "lint.wait-unmodelled"
                )
            })
            .map(|f| (f.rule, f.path))
            .collect()
    }

    fn hit(rule: &str, path: &str) -> (String, String) {
        (rule.to_string(), path.to_string())
    }

    // The model crate was never a concurrency root: the rules reach it.
    const MODEL: &str = "crates/model/src/pool.rs";

    #[test]
    fn raw_lock_is_flagged_unless_acquired_just_above() {
        let hits = lock_and_wait_hits(
            "raw",
            &[
                (MODEL, "fn raw() {\n    let _g = POOL.lock().unwrap_or_else(PoisonError::into_inner);\n}\n"),
                (
                    "crates/model/src/ranked.rs",
                    r#"fn ranked() {
    let _t = lockcheck::acquire("serve.prefix_cache");
    let _g = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
}
"#,
                ),
            ],
        );
        assert_eq!(hits, [hit("lint.lock-unranked", MODEL)]);
    }

    #[test]
    fn unknown_rank_name_is_flagged() {
        let body = "fn f() {\n    let (_t, _g) = sync::lock_ranked(\"model.pool\", &POOL);\n}\n";
        assert_eq!(lock_and_wait_hits("unknown", &[(MODEL, body)]), [hit("lint.lock-unknown-rank", MODEL)]);
    }

    #[test]
    fn inverted_nested_pair_is_flagged_and_released_scopes_are_not() {
        let body = r#"fn inverted() {
    let (_a, _ga) = lockcheck::lock_ranked("telemetry.sink", &SINK);
    {
        let (_b, _gb) = lockcheck::lock_ranked("serve.prefix_cache", &CACHE);
    }
}
fn increasing() {
    let (_a, _ga) = lockcheck::lock_ranked("serve.prefix_cache", &CACHE);
    let (_b, _gb) = lockcheck::lock_ranked("telemetry.sink", &SINK);
}
fn after_release() {
    let (_b, _gb) = lockcheck::lock_ranked("serve.prefix_cache", &CACHE);
}
"#;
        let hits = lock_and_wait_hits("order", &[(MODEL, body)]);
        assert_eq!(hits, [hit("lint.lock-order", MODEL)]);
    }

    #[test]
    fn condvar_wait_outside_the_harness_table_is_flagged() {
        let body = r#"fn take(&self) {
    let (_t, mut g) = sync::lock_ranked("serve.prefix_cache", &self.inner);
    while g.is_empty() {
        g = self
            .ready
            .wait(g)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let _ = child.wait();
}
"#;
        assert_eq!(lock_and_wait_hits("wait", &[(MODEL, body)]), [hit("lint.wait-unmodelled", MODEL)]);
    }

    #[test]
    fn the_locking_machinery_is_exempt() {
        let body = r#"fn raw(&self) {
    let _t = lockcheck::acquire("not.a.rank");
    let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
    g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
}
"#;
        for exempt in ["crates/check/src/sched.rs", RANKS_FILE, "crates/telemetry/src/sync.rs"] {
            assert_eq!(lock_and_wait_hits("exempt", &[(exempt, body)]), [], "{exempt}");
        }
    }

    #[test]
    fn unused_table_rows_are_flagged_counting_test_modules() {
        let body = r#"#[cfg(test)]
mod tests {
    fn gate() {
        let _t = lockcheck::acquire("test.trace_gate");
    }
}
"#;
        let dir = std::env::temp_dir().join(format!("astro-audit-unused-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/telemetry/src")).unwrap();
        std::fs::write(dir.join("crates/telemetry/src/trace.rs"), body).unwrap();
        let (findings, _) = collect_findings(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let unused: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == "lint.lock-unused-rank")
            .map(|f| f.content.as_str())
            .collect();
        assert_eq!(unused.len(), lockcheck::RANKS.len() - 1, "{unused:?}");
        assert!(!unused.contains(&"test.trace_gate"), "{unused:?}");
        let rows: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == "lint.wait-unused-row")
            .map(|f| f.path.as_str())
            .collect();
        assert_eq!(rows, ["crates/gateway/src/queue.rs"]);
    }

    #[test]
    fn bin_paths_may_print() {
        assert!(is_bin_path("crates/bench/src/bin/astro-bench/table1.rs"));
        assert!(is_bin_path("crates/audit/src/main.rs"));
        assert!(is_bin_path("src/bin/astro-gateway.rs"));
        assert!(!is_bin_path("crates/bench/src/lib.rs"));
    }
}
