//! Static source analysis for the AstroMLab 2 reproduction: enforce the
//! concurrency discipline and repo hygiene machine-readably.
//!
//! Config validation is not here: a bad `ModelConfig` / `StudyConfig` is
//! refused by their `validate()` methods, which `Study::prepare` and every
//! model entry point run before any compute is spent. This crate is one
//! source scanner, [`lint`], exposed through the `astro-audit` binary and
//! callable as a library: a zero-dep, line/token-level linter over every
//! crate's `src/` enforcing repo rules clippy cannot — library hygiene
//! (no `unwrap()` or `println!` outside tests and binaries, `#[must_use]`
//! builders, documented `pub` items, telemetry spans on pipeline entry
//! points) and the lock/wait discipline the runtime `lockcheck` ranks and
//! the `astro-check` harnesses rely on — with a shrink-only allowlist.

pub mod lint;

pub use lint::{lint_workspace, LintConfig, LintReport};
