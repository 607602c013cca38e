//! Golden score regression: benchmark numbers may never drift unnoticed.
//!
//! The serving-engine rewrite (astro-serve) promises bit-identical
//! scores; this suite pins that promise to checked-in artifacts:
//!
//! * `goldens/figure1_fast_scores.golden` — the score CSV of the
//!   recorded `fast 42` run (the committed `figure1_fast.txt` /
//!   `table1_fast.txt` analysis in EXPERIMENTS.md). A tier-1 test keeps
//!   the committed artifact and the golden in lockstep; an `#[ignore]`d
//!   test recomputes the whole fast preset through the pooled engine
//!   (~1 h) for release validation.
//! * `goldens/figure1_smoke_seed11.golden` — recomputed from scratch on
//!   every tier-1 run through the engine-backed eval path, by a
//!   `run_study` killed mid-pipeline and resumed — the crash-safe path
//!   `astro-bench table1` runs — then diffed **exactly** (string
//!   equality, which for the `%.2f` CSV means the underlying scores are
//!   identical).
//!
//! Regenerate after an *intentional* scoring change with:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --release --test golden_scores
//! ```
//!
//! and justify the diff in the PR description.
//!
//! The mid-run kill is a fault plan the smoke test enters for itself
//! (`Faults::enter`); only the study's threads see it, so the tests here
//! run in parallel.

use astro_telemetry::fault::{FaultPlan, Faults};
use astromlab::{Study, StudyConfig, StudyError};
use std::path::PathBuf;

const SMOKE_GOLDEN: &str = "goldens/figure1_smoke_seed11.golden";
const FAST_GOLDEN: &str = "goldens/figure1_fast_scores.golden";

fn repo_path(rel: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_path(rel))
        .unwrap_or_else(|e| panic!("missing {rel} ({e}); see module docs for regeneration"))
}

/// Diff two score CSVs line by line so a drift names the exact rows.
fn assert_scores_match(golden: &str, got: &str, label: &str) {
    if golden == got {
        return;
    }
    let mut drift = Vec::new();
    let (g_lines, n_lines): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), got.lines().collect());
    for i in 0..g_lines.len().max(n_lines.len()) {
        let want = g_lines.get(i).copied().unwrap_or("<missing>");
        let have = n_lines.get(i).copied().unwrap_or("<missing>");
        if want != have {
            drift.push(format!("  line {}: golden `{want}` vs got `{have}`", i + 1));
        }
    }
    panic!(
        "{label}: benchmark scores drifted from the golden file.\n\
         If the change is intentional, regenerate with GOLDEN_REGEN=1 and\n\
         explain the drift in the PR. Differing lines:\n{}",
        drift.join("\n")
    );
}

#[test]
fn figure1_fast_artifact_matches_golden() {
    // The recorded artifact and the golden must never diverge: the golden
    // is the score section of the artifact, so editing one without the
    // other means the regression baseline no longer describes the
    // recorded run. The artifact itself is regenerated output (untracked
    // since the resilience PR), so a checkout without a local `table1
    // fast` run has nothing to cross-check — skip rather than fail; the
    // golden stays guarded by the recompute tests either way.
    let Ok(artifact) = std::fs::read_to_string(repo_path("figure1_fast.txt")) else {
        eprintln!("figure1_fast.txt not present (regenerated output); skipping artifact cross-check");
        return;
    };
    let csv_start = artifact
        .find("model,method,score_percent")
        .expect("figure1_fast.txt lost its CSV section");
    assert_scores_match(
        &read(FAST_GOLDEN),
        &artifact[csv_start..],
        "figure1_fast.txt vs goldens/figure1_fast_scores.golden",
    );
}

#[test]
fn smoke_scores_recomputed_through_engine_match_golden() {
    // Full pipeline at smoke scale — train all models, evaluate through
    // the pooled prefix-cached engine (the smoke preset's default), and
    // require the rendered scores to be *exactly* the checked-in golden.
    // The run is killed at its 15th of 37 stage boundaries (inside the
    // 8B-class series) and resumed, so the golden also holds resume to
    // the uninterrupted scores.
    let study = Study::prepare(StudyConfig::smoke(11)).expect("prepare");
    assert!(
        !study.config.eval_engine.is_serial_uncached(),
        "smoke preset must default to the pooled engine for this test \
         to guard the parallel path"
    );
    let dir = fresh_dir("smoke");
    let faults = Faults::default().enter();
    faults.install(FaultPlan::single("study.stage_boundary", 15));
    let outcome = study.run_study(&dir);
    faults.clear();
    assert!(
        matches!(outcome, Err(StudyError::Interrupted { .. })),
        "the mid-run kill should interrupt the smoke run"
    );
    let result = study.run_study(&dir).expect("resume");
    let _ = std::fs::remove_dir_all(&dir);
    let got = &result.figure1_csv;
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(repo_path(SMOKE_GOLDEN), got).expect("write golden");
        return;
    }
    assert_scores_match(&read(SMOKE_GOLDEN), got, "smoke(11) figure1 CSV");
}

/// Release validation: recompute the recorded `fast 42` run through the
/// pooled engine and diff against the committed scores. Takes about an
/// hour single-threaded; run manually with `cargo test --release --test
/// golden_scores -- --ignored`.
#[test]
#[ignore = "fast preset takes ~1h; tier-1 covers smoke scale"]
fn fast_scores_recomputed_through_engine_match_recorded_artifact() {
    let study = Study::prepare(StudyConfig::fast(42)).expect("prepare");
    let result = study.run_study(&fresh_dir("fast")).expect("run_study");
    assert_scores_match(&read(FAST_GOLDEN), &result.figure1_csv, "fast(42) figure1 CSV");
}
