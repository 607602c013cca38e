//! Static lock-order analysis over the workspace's annotated lock sites.
//!
//! Every `Mutex::lock()` call under [`crate::CONCURRENCY_ROOTS`] is either
//! preceded by a `lockcheck::acquire("<lock name>")` annotation or taken
//! through a combined helper — `lockcheck::lock_ranked("<lock name>", …)`
//! or the model-checkable `sync::lock_ranked("<lock name>", …)` wrapper
//! from `astro_telemetry::sync` (see [`astro_telemetry::lockcheck`]).
//! This pass re-derives the lock-acquisition graph from source text
//! alone:
//!
//! * `locks.unknown` — an annotation names a lock with no declared rank.
//! * `locks.order` — an acquisition is (lexically) nested inside a lock of
//!   equal or higher rank, inverting the declared hierarchy.
//! * `locks.cycle` — the acquired-while-holding graph contains a cycle,
//!   i.e. a potential deadlock even if each individual edge looked locally
//!   justified.
//! * `locks.unannotated` — a `.lock()` call with no `acquire` annotation
//!   within the preceding few lines, so the debug-build checker cannot see
//!   it.
//! * `locks.wait-while-holding` — a condvar `wait` while more than one
//!   ranked lock is held (warning: waits release only their own mutex).
//! * `locks.unused-rank` — a declared rank no source site acquires: the
//!   table has drifted from the code (error, so CI fails on a row that
//!   outlives its lock).
//!
//! The pass is lexical, not semantic: it tracks brace depth so a token
//! acquired inside a block stops being "held" when the block closes, which
//! matches the RAII scope of the runtime `LockToken`. Lexical nesting
//! over-approximates dynamic nesting (a guard dropped early is still
//! counted until its block ends), which is the conservative direction for
//! deadlock detection.

use crate::{Diagnostic, Severity};
use astro_telemetry::lockcheck;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How many lines before a `.lock()` call an `acquire` annotation may sit.
const ANNOTATION_WINDOW: usize = 5;

/// One lexically-observed acquisition site.
#[derive(Clone, Debug)]
pub struct AcquireSite {
    /// Lock name as written in the annotation.
    pub name: String,
    /// `file:line` of the annotation.
    pub at: String,
}

/// Result of the static lock-order pass.
#[derive(Clone, Debug, Default)]
pub struct LockReport {
    /// Every annotation found, in scan order.
    pub sites: Vec<AcquireSite>,
    /// Distinct held→acquired edges observed (by lock name).
    pub edges: Vec<(String, String)>,
    /// Diagnostics from all rules.
    pub diagnostics: Vec<Diagnostic>,
}

impl LockReport {
    /// True when no error-severity diagnostics were produced.
    pub fn ok(&self) -> bool {
        self.diagnostics.iter().all(|d| d.severity != Severity::Error)
    }
}

/// Strip `//` line comments and the interiors of string literals so brace
/// counting and pattern matches ignore prose. Block comments are handled
/// by the caller via `in_block_comment`.
pub(crate) fn strip_noise(line: &str, in_block_comment: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if *in_block_comment {
            if c == '*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block_comment = false;
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        if in_str {
            if c == '\\' {
                i += 2;
                continue;
            }
            if c == '"' {
                in_str = false;
                out.push('"');
                i += 1;
                continue;
            }
            out.push(c); // keep string contents: acquire("name") needs them
            i += 1;
            continue;
        }
        match c {
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block_comment = true;
                i += 2;
            }
            '"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Extract the lock name from a `lockcheck::acquire("…")`,
/// `lockcheck::lock_ranked("…", …)` or `sync::lock_ranked("…", …)` call,
/// if any. The combined helpers both annotate and take the lock, so a
/// site using one needs no separate `.lock()` within the annotation
/// window. `sync::lock_ranked` is the `astro_telemetry::sync` wrapper
/// that routes through the model-checker shim under `--cfg astro_check`;
/// it acquires the same rank as the `lockcheck` helpers.
fn acquire_name(line: &str) -> Option<&str> {
    let rest = [
        "lockcheck::acquire(",
        "lockcheck::lock_ranked(",
        "sync::lock_ranked(",
    ]
    .iter()
    .find_map(|pat| line.find(pat).map(|idx| &line[idx + pat.len()..]))?;
    let start = rest.find('"')? + 1;
    let end = start + rest[start..].find('"')?;
    Some(&rest[start..end])
}

/// Scan one file, pushing observed sites/edges/diagnostics.
fn scan_file(path: &Path, report: &mut LockReport) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let display = path.display().to_string();
    // Held stack entries: (name, rank, brace depth at acquisition).
    let mut held: Vec<(String, u32, i64)> = Vec::new();
    let mut depth: i64 = 0;
    let mut in_block_comment = false;
    let mut last_acquire_line: Option<usize> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_noise(raw, &mut in_block_comment);
        // A lexical block closing releases tokens acquired inside it.
        // Apply closings seen on this line *after* processing its
        // acquisitions would be wrong for `}` at line start, so compute the
        // minimum depth reached while walking the line.
        let mut min_depth = depth;
        let mut d = depth;
        for c in line.chars() {
            match c {
                '{' => d += 1,
                '}' => {
                    d -= 1;
                    min_depth = min_depth.min(d);
                }
                _ => {}
            }
        }
        held.retain(|&(_, _, at)| at <= min_depth);

        let subject = format!("{display}:{lineno}");
        if let Some(name) = acquire_name(&line) {
            last_acquire_line = Some(lineno);
            report.sites.push(AcquireSite { name: name.to_string(), at: subject.clone() });
            match lockcheck::rank_of(name) {
                None => report.diagnostics.push(Diagnostic::error(
                    "locks.unknown",
                    &subject,
                    format!("acquire(\"{name}\") names a lock with no declared rank"),
                )),
                Some(rank) => {
                    if let Some((top_name, top_rank, _)) = held.last() {
                        report.edges.push((top_name.clone(), name.to_string()));
                        if rank <= *top_rank {
                            report.diagnostics.push(Diagnostic::error(
                                "locks.order",
                                &subject,
                                format!(
                                    "acquires {name} (rank {rank}) while lexically holding \
                                     {top_name} (rank {top_rank}); ranks must strictly increase"
                                ),
                            ));
                        }
                    }
                    held.push((name.to_string(), rank, d));
                }
            }
        } else if line.contains(".lock()") {
            let annotated = last_acquire_line
                .is_some_and(|l| lineno >= l && lineno - l <= ANNOTATION_WINDOW);
            if !annotated {
                report.diagnostics.push(Diagnostic::error(
                    "locks.unannotated",
                    &subject,
                    ".lock() call with no lockcheck::acquire annotation in the \
                     preceding lines; the debug-build checker cannot see it"
                        .to_string(),
                ));
            }
        }
        if line.contains(".wait(") && held.len() > 1 {
            let names: Vec<&str> = held.iter().map(|(n, _, _)| n.as_str()).collect();
            report.diagnostics.push(Diagnostic::warning(
                "locks.wait-while-holding",
                &subject,
                format!(
                    "condvar wait while holding {} ranked locks ({}); the wait \
                     releases only its own mutex",
                    held.len(),
                    names.join(", ")
                ),
            ));
        }
        depth = d;
    }
    Ok(())
}

/// Depth-first cycle search over the held→acquired edge set.
fn find_cycle(edges: &[(String, String)]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a).or_default().insert(b);
    }
    // Colours: 0 unvisited, 1 on stack, 2 done.
    let mut colour: BTreeMap<&str, u8> = BTreeMap::new();
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        colour: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        colour.insert(node, 1);
        stack.push(node);
        if let Some(nexts) = adj.get(node) {
            for &next in nexts {
                match colour.get(next).copied().unwrap_or(0) {
                    0 => {
                        if let Some(c) = dfs(next, adj, colour, stack) {
                            return Some(c);
                        }
                    }
                    1 => {
                        let pos = stack.iter().position(|&n| n == next).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[pos..].iter().map(|s| s.to_string()).collect();
                        cycle.push(next.to_string());
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        colour.insert(node, 2);
        None
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for node in nodes {
        if colour.get(node).copied().unwrap_or(0) == 0 {
            let mut stack = Vec::new();
            if let Some(c) = dfs(node, &adj, &mut colour, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Run the full static lock-order pass over the sources under
/// [`crate::CONCURRENCY_ROOTS`] of the repository at `root`.
pub fn analyze_locks(root: &Path) -> LockReport {
    let mut report = LockReport::default();
    let files = match crate::concurrency_sources(root, "locks.no-sources") {
        Ok(files) => files,
        Err(no_sources) => {
            report.diagnostics.push(no_sources);
            return report;
        }
    };
    for file in &files {
        if file.ends_with("lockcheck.rs") {
            continue; // the checker's own implementation, not a client
        }
        if file.ends_with("telemetry/src/sync.rs") {
            // The sync-primitive re-export shim: its `lock_ranked` wrapper
            // performs the annotated acquisition on behalf of every
            // caller, so its own raw `.lock()` is the annotation
            // mechanism, not an unannotated client site.
            continue;
        }
        if let Err(e) = scan_file(file, &mut report) {
            report.diagnostics.push(Diagnostic::error(
                "locks.io",
                &file.display().to_string(),
                format!("failed to read source: {e}"),
            ));
        }
    }
    report.edges.sort();
    report.edges.dedup();
    if let Some(cycle) = find_cycle(&report.edges) {
        report.diagnostics.push(Diagnostic::error(
            "locks.cycle",
            "lock graph",
            format!("acquisition cycle: {}", cycle.join(" -> ")),
        ));
    }
    let seen: BTreeSet<&str> = report.sites.iter().map(|s| s.name.as_str()).collect();
    for declared in lockcheck::RANKS {
        if !seen.contains(declared.name) {
            report.diagnostics.push(Diagnostic::error(
                "locks.unused-rank",
                declared.name,
                format!(
                    "rank {} is declared but no source site acquires it",
                    declared.rank
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
    }

    #[test]
    fn workspace_lock_graph_is_clean() {
        let report = analyze_locks(&repo_root());
        let errors: Vec<String> =
            report.diagnostics.iter().filter(|d| d.severity == Severity::Error).map(|d| d.render()).collect();
        assert!(errors.is_empty(), "lock-order errors:\n{}", errors.join("\n"));
        assert!(!report.sites.is_empty(), "expected annotated lock sites");
    }

    #[test]
    fn every_declared_rank_is_used() {
        let report = analyze_locks(&repo_root());
        let unused: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "locks.unused-rank")
            .collect();
        assert!(unused.is_empty(), "unused ranks: {:?}", unused);
    }

    #[test]
    fn acquire_name_extraction() {
        assert_eq!(
            acquire_name("let _o = astro_telemetry::lockcheck::acquire(\"telemetry.sink\");"),
            Some("telemetry.sink")
        );
        assert_eq!(
            acquire_name(
                "let (_o, g) = crate::lockcheck::lock_ranked(\"gateway.queue\", &self.inner);"
            ),
            Some("gateway.queue")
        );
        assert_eq!(
            acquire_name(
                "let (_order, mut inner) = sync::lock_ranked(\"gateway.queue\", &self.inner);"
            ),
            Some("gateway.queue")
        );
        assert_eq!(
            acquire_name(
                "let (_t, g) = crate::sync::lock_ranked(\"telemetry.trace.ring\", ring());"
            ),
            Some("telemetry.trace.ring")
        );
        assert_eq!(acquire_name("let x = foo();"), None);
    }

    #[test]
    fn detects_inverted_order_in_synthetic_source() {
        let dir = std::env::temp_dir().join(format!("astro-audit-locks-{}", std::process::id()));
        let src = dir.join("crates/serve/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(dir.join("crates/telemetry/src")).unwrap();
        std::fs::write(
            src.join("bad.rs"),
            r#"fn bad() {
    let _a = lockcheck::acquire("telemetry.sink");
    let _g1 = SINK.lock().expect("x");
    let _b = lockcheck::acquire("serve.prefix_cache");
    let _g2 = CACHE.lock().expect("x");
}
"#,
        )
        .unwrap();
        let report = analyze_locks(&dir);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == "locks.order"),
            "expected locks.order error, got: {:?}",
            report.diagnostics
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detects_unannotated_lock_site() {
        let dir = std::env::temp_dir().join(format!("astro-audit-unann-{}", std::process::id()));
        let src = dir.join("crates/telemetry/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("raw.rs"), "fn raw() {\n    let _g = M.lock().unwrap();\n}\n")
            .unwrap();
        let report = analyze_locks(&dir);
        assert!(report.diagnostics.iter().any(|d| d.rule == "locks.unannotated"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detects_synthetic_cycle() {
        let edges = vec![
            ("a".to_string(), "b".to_string()),
            ("b".to_string(), "c".to_string()),
            ("c".to_string(), "a".to_string()),
        ];
        let cycle = find_cycle(&edges).expect("cycle expected");
        assert!(cycle.len() >= 3);
        assert!(find_cycle(&[("a".to_string(), "b".to_string())]).is_none());
    }
}
