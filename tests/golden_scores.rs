//! Golden score regression: benchmark answers may never drift unnoticed.
//!
//! A golden is a run's answers: the `"kind":"score"` lines of a run
//! ledger (`runs/<preset>-<seed>/ledger.jsonl`), one per Table I cell,
//! each holding that cell's per-question outcomes (`Score::ledger_line`).
//! A run matches its golden when every stage holds the same outcome for
//! every question. A mismatch names the stage and the indices of the
//! questions that flipped; a stage missing from either side fails too.
//! The recipe digest each line ends with is not compared.
//!
//! * `goldens/smoke-11.golden` — recomputed on every tier-1 run through
//!   the engine-backed eval path, by a `run_study` killed mid-pipeline
//!   and resumed — the crash-safe path `astro-bench table1` runs.
//! * `goldens/fast-42.golden` — recomputed by an `#[ignore]`d test for
//!   release validation (one fresh `fast 42` run).
//!
//! Regenerate after an *intentional* scoring change, from the repository
//! root, with the same command and a `grep` of its ledger:
//!
//! ```sh
//! cargo build --release -p astro-bench
//! repo=$PWD; cd "$(mktemp -d)"
//! $repo/target/release/astro-bench table1 smoke 11 &&
//!     grep '"kind":"score"' runs/smoke-11/ledger.jsonl > $repo/goldens/smoke-11.golden
//! $repo/target/release/astro-bench table1 fast 42 &&
//!     grep '"kind":"score"' runs/fast-42/ledger.jsonl > $repo/goldens/fast-42.golden
//! ```
//!
//! and justify the diff where the change is described.
//!
//! The mid-run kill is a fault plan the smoke test enters for itself
//! (`Faults::enter`); only the study's threads see it, so the tests here
//! run in parallel.

use astro_telemetry::fault::{FaultPlan, Faults};
use astromlab::eval::json::Json;
use astromlab::eval::Score;
use astromlab::{Study, StudyConfig, StudyError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SMOKE_GOLDEN: &str = "goldens/smoke-11.golden";
const FAST_GOLDEN: &str = "goldens/fast-42.golden";

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); see module docs for regeneration",
            path.display()
        )
    })
}

fn golden(rel: &str) -> BTreeMap<String, Score> {
    scores_by_stage(&read(&Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)), rel)
}

/// Stage → score of every `"kind":"score"` line of a ledger's text; a
/// later line for a stage replaces an earlier one, as on replay.
fn scores_by_stage(ledger: &str, label: &str) -> BTreeMap<String, Score> {
    let mut scores = BTreeMap::new();
    for line in ledger.lines() {
        let entry = Json::parse(line).unwrap_or_else(|e| panic!("{label}: `{line}`: {e}"));
        if entry.get("kind").and_then(Json::as_str) != Some("score") {
            continue;
        }
        let stage = entry.get("stage").and_then(Json::as_str);
        let stage = stage.unwrap_or_else(|| panic!("{label}: `{line}` names no stage"));
        let score = Score::from_ledger(&entry);
        let score = score.unwrap_or_else(|| panic!("{label}: `{line}` holds no outcomes"));
        scores.insert(stage.to_string(), score);
    }
    scores
}

/// Panic unless `got` holds exactly the golden's stages, each with the
/// same outcome for every question. The message lists each stage that
/// differs, with the indices of its questions that flipped.
fn assert_outcomes_match(
    golden: &BTreeMap<String, Score>,
    got: &BTreeMap<String, Score>,
    label: &str,
) {
    let mut drift = Vec::new();
    for (stage, want) in golden {
        let Some(have) = got.get(stage) else {
            drift.push(format!("  {stage}: missing from the run"));
            continue;
        };
        let flipped: Vec<usize> = (0..want.total().max(have.total()))
            .filter(|&i| want.outcomes.get(i) != have.outcomes.get(i))
            .collect();
        if !flipped.is_empty() {
            drift.push(format!(
                "  {stage}: questions {flipped:?} flipped ({:.2}% golden, {:.2}% now)",
                want.percent(),
                have.percent()
            ));
        }
    }
    for stage in got.keys().filter(|s| !golden.contains_key(*s)) {
        drift.push(format!("  {stage}: not in the golden"));
    }
    assert!(
        drift.is_empty(),
        "{label}: scored answers drifted from the golden.\n\
         If the change is intentional, regenerate the golden (see the module\n\
         docs) and explain the drift. Differing stages:\n{}",
        drift.join("\n")
    );
}

/// The scores ledgered in the run directory `dir`.
fn ledgered(dir: &Path, label: &str) -> BTreeMap<String, Score> {
    scores_by_stage(&read(&dir.join("ledger.jsonl")), label)
}

#[test]
fn smoke_scores_recomputed_through_engine_match_golden() {
    // Full pipeline at smoke scale — train all models, evaluate through
    // the pooled prefix-cached engine (the smoke preset's default), and
    // require every ledgered answer to be the golden's. The run is killed
    // at its 15th of 37 stage boundaries (inside the 8B-class series) and
    // resumed, so the golden also holds resume to the uninterrupted
    // answers.
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
    study.run_study(&dir).expect("resume");
    let got = ledgered(&dir, "smoke(11) ledger");
    let _ = std::fs::remove_dir_all(&dir);
    assert_outcomes_match(&golden(SMOKE_GOLDEN), &got, "smoke(11) scores");
}

#[test]
#[should_panic(expected = "eval-AstroLLaMA-3-8B-AIC--sim--token_base: questions [3] flipped")]
fn one_flipped_answer_fails_naming_its_stage_and_question() {
    let mut got = golden(SMOKE_GOLDEN);
    let stage = got.get_mut("eval-AstroLLaMA-3-8B-AIC--sim--token_base");
    let answer = &mut stage.expect("a golden stage").outcomes[3];
    answer.correct = !answer.correct;
    assert_outcomes_match(&golden(SMOKE_GOLDEN), &got, "flip");
}

#[test]
#[should_panic(expected = "eval-LLaMA-2-70B--sim--full_instruct: missing from the run")]
fn a_missing_stage_fails() {
    let mut got = golden(SMOKE_GOLDEN);
    got.remove("eval-LLaMA-2-70B--sim--full_instruct")
        .expect("a golden stage");
    assert_outcomes_match(&golden(SMOKE_GOLDEN), &got, "missing");
}

#[test]
#[should_panic(expected = "eval-extra-token_base: not in the golden")]
fn an_extra_stage_fails() {
    let mut got = golden(SMOKE_GOLDEN);
    let any = got.values().next().expect("a golden stage").clone();
    got.insert("eval-extra-token_base".to_string(), any);
    assert_outcomes_match(&golden(SMOKE_GOLDEN), &got, "extra");
}

/// Release validation: recompute the recorded `fast 42` run through the
/// pooled engine and compare every ledgered answer with the golden. Run
/// manually with `cargo test --release --test golden_scores -- --ignored`.
#[test]
#[ignore = "fast preset takes ~22 min on one core; tier-1 covers smoke scale"]
fn fast_scores_recomputed_through_engine_match_recorded_artifact() {
    let study = Study::prepare(StudyConfig::fast(42)).expect("prepare");
    let dir = fresh_dir("fast");
    study.run_study(&dir).expect("run_study");
    let got = ledgered(&dir, "fast(42) ledger");
    let _ = std::fs::remove_dir_all(&dir);
    assert_outcomes_match(&golden(FAST_GOLDEN), &got, "fast(42) scores");
}
