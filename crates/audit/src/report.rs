//! Machine-readable audit report (`audit_report.json`).
//!
//! The workspace bans external dependencies, so this module contains its
//! own minimal JSON writer (string escaping + structural helpers). The
//! emitted document parses with the repo's own JSON-subset parser
//! (`astro_eval::json`), which doubles as a self-test: the report round-
//! trips through the same parser the eval pipeline trusts.

use crate::lint::LintReport;
use crate::lockorder::LockReport;
use crate::waits::WaitReport;
use crate::{Diagnostic, Severity};

/// Escape a string for JSON output.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn diag_json(d: &Diagnostic) -> String {
    format!(
        "{{\"rule\":\"{}\",\"subject\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"}}",
        esc(&d.rule),
        esc(&d.subject),
        d.severity.label(),
        esc(&d.message)
    )
}

fn diags_json(ds: &[Diagnostic]) -> String {
    let items: Vec<String> = ds.iter().map(diag_json).collect();
    format!("[{}]", items.join(","))
}

/// The full audit report: whichever passes ran this invocation.
#[derive(Default)]
pub struct AuditReport {
    /// Lock-order analysis, if the pass ran.
    pub locks: Option<LockReport>,
    /// Wait/notify protocol analysis, if the pass ran.
    pub waits: Option<WaitReport>,
    /// Lint results, if the pass ran.
    pub lint: Option<LintReport>,
}

impl AuditReport {
    /// Total error-severity diagnostics across all passes.
    pub fn error_count(&self) -> usize {
        self.all_diagnostics().filter(|d| d.severity == Severity::Error).count()
    }

    /// Total warning-severity diagnostics across all passes.
    pub fn warning_count(&self) -> usize {
        self.all_diagnostics().filter(|d| d.severity == Severity::Warning).count()
    }

    fn all_diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.locks
            .iter()
            .flat_map(|l| l.diagnostics.iter())
            .chain(self.waits.iter().flat_map(|w| w.diagnostics.iter()))
            .chain(self.lint.iter().flat_map(|l| l.diagnostics.iter()))
    }

    /// Serialise the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1");

        if let Some(locks) = &self.locks {
            let sites: Vec<String> = locks
                .sites
                .iter()
                .map(|s| format!("{{\"name\":\"{}\",\"at\":\"{}\"}}", esc(&s.name), esc(&s.at)))
                .collect();
            let edges: Vec<String> = locks
                .edges
                .iter()
                .map(|(a, b)| format!("[\"{}\",\"{}\"]", esc(a), esc(b)))
                .collect();
            out.push_str(&format!(
                ",\"locks\":{{\"ok\":{},\"sites\":[{}],\"edges\":[{}],\"diagnostics\":{}}}",
                locks.ok(),
                sites.join(","),
                edges.join(","),
                diags_json(&locks.diagnostics)
            ));
        }

        if let Some(waits) = &self.waits {
            let sites: Vec<String> = waits
                .sites
                .iter()
                .map(|s| {
                    format!(
                        "{{\"condvar\":\"{}\",\"at\":\"{}\",\"in_loop\":{}}}",
                        esc(&s.condvar),
                        esc(&s.at),
                        s.in_loop
                    )
                })
                .collect();
            out.push_str(&format!(
                ",\"waits\":{{\"ok\":{},\"protocols\":{},\"sites\":[{}],\"diagnostics\":{}}}",
                waits.ok(),
                waits.protocols,
                sites.join(","),
                diags_json(&waits.diagnostics)
            ));
        }

        if let Some(lint) = &self.lint {
            out.push_str(&format!(
                ",\"lint\":{{\"ok\":{},\"files_scanned\":{},\"suppressed\":{},\
                 \"diagnostics\":{}}}",
                lint.ok(),
                lint.files_scanned,
                lint.suppressed,
                diags_json(&lint.diagnostics)
            ));
        }

        out.push_str(&format!(
            ",\"summary\":{{\"errors\":{},\"warnings\":{}}}}}",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_section_round_trips() {
        let mut waits = crate::waits::WaitReport {
            protocols: 2,
            ..crate::waits::WaitReport::default()
        };
        waits.sites.push(crate::waits::WaitSite {
            condvar: "cv".to_string(),
            at: "crates/gateway/src/queue.rs:108".to_string(),
            in_loop: true,
        });
        let report = AuditReport { waits: Some(waits), ..AuditReport::default() };
        let json = report.to_json();
        let value = astro_eval::json::Json::parse(&json).expect("report must parse");
        let w = value.get("waits").expect("waits section");
        assert!(matches!(w.get("protocols"), Some(astro_eval::json::Json::Number(n)) if *n == 2.0));
        assert!(value.get("summary").is_some());
        assert!(matches!(value.get("version"), Some(astro_eval::json::Json::Number(n)) if *n == 1.0));
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
