//! `astro-audit` — the workspace source lint gate.
//!
//! ```text
//! astro-audit lint                        # lint every crate (allowlisted)
//! astro-audit lint --write-allowlist      # regenerate the allowlist in place
//! ```
//!
//! Exit status is non-zero when any diagnostic survives allowlist
//! filtering, so CI can gate on it directly.

use astro_audit::lint::{collect_findings, lint_workspace, render_allowlist, LintConfig, ALLOWLIST_FILE};
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["lint"] => false,
        ["lint", "--write-allowlist"] => true,
        _ => {
            eprintln!("usage: astro-audit lint [--write-allowlist]");
            return ExitCode::from(2);
        }
    };
    let root = find_root();
    if write {
        let (findings, scanned) = collect_findings(&root);
        let path = root.join(ALLOWLIST_FILE);
        if let Err(e) = std::fs::write(&path, render_allowlist(&findings)) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} entries ({scanned} files scanned) to {}", findings.len(), path.display());
        return ExitCode::SUCCESS;
    }
    let lint = lint_workspace(&LintConfig::new(&root));
    for d in &lint.diagnostics {
        println!("  {}", d.render());
    }
    println!(
        "lint: {} files scanned, {} suppressed by allowlist, {} errors",
        lint.files_scanned,
        lint.suppressed,
        lint.diagnostics.len()
    );
    if lint.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
