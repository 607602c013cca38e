//! `astro-audit` — lock-order analysis, wait/notify analysis and lint gate.
//!
//! ```text
//! astro-audit locks                       # static lock-order analysis
//! astro-audit waits                       # wait/notify protocol analysis
//! astro-audit lint                        # workspace lint gate (allowlisted)
//! astro-audit lint --write-allowlist      # regenerate the allowlist in place
//! astro-audit all                         # every pass + audit_report.json
//! ```
//!
//! Exit status is non-zero when any error-severity diagnostic survives
//! filtering, so CI can gate on it directly. Every invocation (except
//! `--write-allowlist`) writes `audit_report.json` at the workspace root;
//! pass `--report PATH` to redirect it.

use astro_audit::lint::{lint_workspace, render_allowlist, LintConfig, ALLOWLIST_FILE};
use astro_audit::lockorder::analyze_locks;
use astro_audit::report::AuditReport;
use astro_audit::waits::analyze_waits;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Locate the workspace root: walk up from the current directory looking
/// for a `Cargo.toml` next to a `crates/` directory; fall back to the
/// compile-time manifest location.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            break;
        }
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn print_diags<'a, I: IntoIterator<Item = &'a astro_audit::Diagnostic>>(diags: I) {
    for d in diags {
        println!("  {}", d.render());
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: astro-audit <locks | waits | lint [--write-allowlist] | all> [--report PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    let root = find_root();

    let mut report_path = root.join("audit_report.json");
    if let Some(pos) = args.iter().position(|a| a == "--report") {
        match args.get(pos + 1) {
            Some(p) => report_path = PathBuf::from(p),
            None => return usage(),
        }
    }

    let mut report = AuditReport::default();
    match cmd.as_str() {
        "locks" => {
            let locks = analyze_locks(&root);
            println!(
                "locks: {} annotated sites, {} edges, {} diagnostics",
                locks.sites.len(),
                locks.edges.len(),
                locks.diagnostics.len()
            );
            print_diags(&locks.diagnostics);
            report.locks = Some(locks);
        }
        "waits" => {
            let waits = analyze_waits(&root);
            println!(
                "waits: {} protocols, {} wait sites, {} diagnostics",
                waits.protocols,
                waits.sites.len(),
                waits.diagnostics.len()
            );
            print_diags(&waits.diagnostics);
            report.waits = Some(waits);
        }
        "lint" => {
            if args.iter().any(|a| a == "--write-allowlist") {
                let (findings, scanned) = astro_audit::lint::collect_findings(&root);
                let path = root.join(ALLOWLIST_FILE);
                let body = render_allowlist(&findings);
                if let Err(e) = std::fs::write(&path, body) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote {} entries ({} files scanned) to {}",
                    findings.len(),
                    scanned,
                    path.display()
                );
                return ExitCode::SUCCESS;
            }
            let lint = lint_workspace(&LintConfig::new(&root));
            println!(
                "lint: {} files scanned, {} suppressed by allowlist, {} diagnostics",
                lint.files_scanned,
                lint.suppressed,
                lint.diagnostics.len()
            );
            print_diags(&lint.diagnostics);
            report.lint = Some(lint);
        }
        "all" => {
            let locks = analyze_locks(&root);
            println!("locks: {} sites, {} diagnostics", locks.sites.len(), locks.diagnostics.len());
            print_diags(&locks.diagnostics);
            report.locks = Some(locks);
            let waits = analyze_waits(&root);
            println!(
                "waits: {} protocols, {} sites, {} diagnostics",
                waits.protocols,
                waits.sites.len(),
                waits.diagnostics.len()
            );
            print_diags(&waits.diagnostics);
            report.waits = Some(waits);
            let lint = lint_workspace(&LintConfig::new(&root));
            println!(
                "lint: {} files, {} suppressed, {} diagnostics",
                lint.files_scanned,
                lint.suppressed,
                lint.diagnostics.len()
            );
            print_diags(&lint.diagnostics);
            report.lint = Some(lint);
        }
        _ => return usage(),
    }

    let errors = report.error_count();
    let warnings = report.warning_count();
    if let Err(e) = std::fs::write(&report_path, report.to_json()) {
        eprintln!("failed to write {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "audit: {errors} errors, {warnings} warnings -> {}",
        report_path.display()
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
