//! Static source analysis for the AstroMLab 2 reproduction: enforce the
//! concurrency protocols and repo hygiene machine-readably.
//!
//! Config validation is not here: a bad `ModelConfig` / `StudyConfig` is
//! refused by their `validate()` methods, which `Study::prepare` and every
//! model entry point run before any compute is spent. This crate provides
//! three source scanners, exposed through the `astro-audit` binary and
//! callable as a library:
//!
//! * [`lockorder`] — extraction of the **lock-acquisition graph** of the
//!   crates under [`CONCURRENCY_ROOTS`] from source, cycle detection, and
//!   a cross-check against the ranks declared to the runtime
//!   `astro_telemetry::lockcheck` instrumentation.
//! * [`waits`] — a **wait/notify protocol audit** over the same crates:
//!   every condvar belongs to a declared protocol (`waits.*` rule ids),
//!   waits sit in predicate re-check loops, guarded-predicate mutations
//!   notify in the same function, and mpsc channels have a draining
//!   receiver. This is the static complement of the `astro-check`
//!   bounded model checker: the checker explores the protocols the table
//!   declares; this pass guarantees the table is the whole story.
//! * [`lint`] — a zero-dep, line/token-level **source linter** enforcing
//!   repo rules clippy cannot (no `unwrap()` in library crates outside
//!   tests, no `println!` outside `bin/`, `#[must_use]` on builder-style
//!   constructors, doc comments on `pub` items, telemetry-span coverage on
//!   pipeline entry points), with a shrink-only allowlist.
//!
//! [`report`] serialises everything into `audit_report.json` using the
//! same JSON subset the in-repo parser (`astro_eval::json`) reads back.

pub mod lint;
pub mod lockorder;
pub mod report;
pub mod waits;

pub use lint::{lint_workspace, LintConfig, LintReport};
pub use lockorder::{analyze_locks, LockReport};
pub use waits::{analyze_waits, WaitReport};

use std::path::{Path, PathBuf};

/// Source roots, relative to the repository root, of the crates in which
/// threads meet: what the [`lockorder`] and [`waits`] passes scan. A crate
/// leaves this list with its last lock or wait, the way a rank or a
/// protocol row leaves its table.
pub const CONCURRENCY_ROOTS: &[&str] = &[
    "crates/serve/src",
    "crates/resilience/src",
    "crates/telemetry/src",
    "crates/gateway/src",
    "crates/router/src",
];

/// Recursively collect `.rs` files under `dir` (sorted for determinism).
pub(crate) fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
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

/// The `.rs` files under [`CONCURRENCY_ROOTS`] of the repository at `root`,
/// or the pass's `no-sources` error (rule id `rule`) when there are none.
pub(crate) fn concurrency_sources(root: &Path, rule: &str) -> Result<Vec<PathBuf>, Diagnostic> {
    let mut files = Vec::new();
    for dir in CONCURRENCY_ROOTS {
        rust_files(&root.join(dir), &mut files);
    }
    if files.is_empty() {
        let message = format!("no Rust sources found under {}", CONCURRENCY_ROOTS.join(", "));
        return Err(Diagnostic::error(rule, &root.display().to_string(), message));
    }
    Ok(files)
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A broken rule; the audit exits non-zero.
    Error,
    /// Suspicious but survivable (e.g. a condvar wait while holding
    /// another ranked lock); reported, does not reject.
    Warning,
}

impl Severity {
    /// Machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding from any pass.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule identifier (`locks.order`, `lint.no-unwrap`, ...).
    pub rule: String,
    /// What the finding is about (a config label, `file:line`, a lock
    /// name).
    pub subject: String,
    /// Human-readable, pointed message.
    pub message: String,
    /// Error or warning.
    pub severity: Severity,
}

impl Diagnostic {
    /// Build an error diagnostic.
    pub fn error(rule: &str, subject: &str, message: String) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            subject: subject.to_string(),
            message,
            severity: Severity::Error,
        }
    }

    /// Build a warning diagnostic.
    pub fn warning(rule: &str, subject: &str, message: String) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            subject: subject.to_string(),
            message,
            severity: Severity::Warning,
        }
    }

    /// Render as a one-line `severity rule subject: message` string.
    pub fn render(&self) -> String {
        format!(
            "{} [{}] {}: {}",
            self.severity.label(),
            self.rule,
            self.subject,
            self.message
        )
    }
}

/// Count errors in a diagnostic list.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_all_parts() {
        let d = Diagnostic::error("locks.order", "queue.rs:96", "rank 20 after 30".to_string());
        let s = d.render();
        assert!(s.contains("error") && s.contains("locks.order") && s.contains("96"));
    }

    #[test]
    fn error_count_ignores_warnings() {
        let ds = vec![
            Diagnostic::error("a", "s", "m".into()),
            Diagnostic::warning("b", "s", "m".into()),
        ];
        assert_eq!(error_count(&ds), 1);
    }
}
