//! Chaos harness: deterministic fault injection against the resumable
//! study pipeline (`Study::run_study`, what `astro-bench table1` runs).
//!
//! What is proven here:
//!
//! * **Kill at every ledger boundary.** A `study.stage_boundary` fault
//!   aborts the run immediately after each stage becomes durable; the
//!   sweep kills a single run lineage at *every* boundary in turn and
//!   resumes each time, so each of the 37 micro-preset stages is
//!   crossed exactly once by a process that then "crashed". The final
//!   resumed result must be identical (every cell's per-question
//!   outcomes) to an uninterrupted run in a fresh directory. (`tests/golden_scores.rs` holds a killed-and-resumed
//!   smoke run to the checked-in golden.)
//! * **No fault escapes as a panic.** For every fault site in
//!   [`SITES`], a single injected fault either (a) is
//!   absorbed and the result is bitwise identical, or (b) surfaces as a
//!   typed [`StudyError`] after which a resume completes bitwise
//!   identically. `catch_unwind` asserts no panic crosses the API. Each
//!   site runs in a directory and under a plan of its own, so the sites
//!   spread over the cores.
//! * **Durability edge cases.** A torn ledger tail (crash mid-append)
//!   and a truncated checkpoint are both detected and rebuilt, never
//!   trusted; a ledger from another study or another build is refused.
//! * **The catalogue is the code.** The `should_fault("…")` literals in
//!   the sources, [`SITES`] and the site table of
//!   `docs/RESILIENCE.md` name the same sites: a row cannot outlive its
//!   hook, and a hook cannot go uncatalogued.
//!
//! A test arms a fault plan by entering a `Faults` handle of its own; the
//! study's threads inherit it and no other test sees it, so the tests run
//! in parallel. Every run directory is removed once its test's assertions
//! pass.

use astro_resilience::{fnv64, Journal};
use astro_telemetry::cores;
use astro_telemetry::fault::{FaultPlan, Faults, SITES};
use astromlab::eval::Score;
use astromlab::study::{StudyError, StudyResult};
use astromlab::{Study, StudyConfig};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astro-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn micro_study() -> Study {
    Study::prepare(StudyConfig::micro(11)).expect("micro prepare")
}

fn ledger_lines(dir: &Path) -> Vec<String> {
    Journal::at(&dir.join("ledger.jsonl")).lines().expect("readable ledger")
}

/// Every score whole: `==` on these compares each question's outcome,
/// strictly stronger than comparing the percentages' bits.
fn score_bits(r: &StudyResult) -> Vec<&[Option<Score>; 3]> {
    r.scores.iter().map(|(_, s)| s).collect()
}

/// The uninterrupted baseline for `micro(11)`, a `run_study` in a fresh
/// directory, computed once per process (callers have entered no fault
/// plan).
fn micro_baseline() -> &'static StudyResult {
    static BASELINE: OnceLock<StudyResult> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = fresh_dir("baseline");
        let base = micro_study().run_study(&dir).expect("baseline run_study");
        let _ = std::fs::remove_dir_all(&dir);
        base
    })
}

fn assert_bitwise_identical(got: &StudyResult, want: &StudyResult, context: &str) {
    assert_eq!(score_bits(got), score_bits(want), "{context}: score bits drifted");
}

#[test]
fn kill_at_every_ledger_boundary_then_resume_is_bitwise_identical() {
    let study = micro_study();
    let base = micro_baseline();
    let dir = fresh_dir("boundary-sweep");
    let faults = Faults::default().enter();

    // Each iteration resumes the same lineage with a fault armed to fire
    // at the FIRST fresh stage boundary: completed stages replay from
    // the ledger (no boundary crossing), the next stage runs, commits,
    // and the run "crashes". Every boundary is therefore killed at
    // exactly once across the sweep.
    let mut kills = 0usize;
    let result = loop {
        faults.install(FaultPlan::single("study.stage_boundary", 1));
        let outcome = study.run_study(&dir);
        faults.clear();
        match outcome {
            Err(StudyError::Interrupted { site, stage }) => {
                kills += 1;
                assert!(kills < 200, "boundary sweep did not converge");
                assert_eq!(site, "study.stage_boundary");
                // The interrupted stage was durable before the "crash":
                // fingerprint + one ledger line per killed boundary.
                let lines = ledger_lines(&dir);
                assert_eq!(
                    lines.len(),
                    kills + 1,
                    "after killing at stage {stage} the ledger should hold \
                     exactly the completed stages"
                );
            }
            Err(other) => panic!("boundary sweep hit an unexpected error: {other}"),
            // A full-replay pass crossed no fresh boundary: done.
            Ok(r) => break r,
        }
    };
    let stages = ledger_lines(&dir).len() - 1; // minus fingerprint line
    assert_eq!(kills, stages, "every ledger boundary must have been killed at once");
    assert!(stages > 30, "micro preset should exercise all pipeline stages, got {stages}");
    assert_bitwise_identical(&result, base, "boundary sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_single_injected_fault_is_typed_or_absorbed_never_a_panic() {
    let study = micro_study();
    let base = micro_baseline();
    // One deterministic hit count per site, spread so faults land in
    // different pipeline phases (early training, mid-run, deep eval).
    // The gateway.* sites (including gateway.queue_poison) have no hook
    // in the study pipeline, so their plans must simply never fire — the
    // sweep proves installing them is harmless to a run that does not
    // cross them. serve.admit_stall and pool.worker_panic fire in the
    // iteration scheduler's step loop, which is what runs every eval
    // batch: a stalled admission is absorbed, a panicked job is retried.
    // The replica.*/router.* sites only have hooks at the cluster
    // router's forward/probe boundary, so like the gateway sites their
    // plans must stay inert in the single-process study pipeline.
    let hits: &[u64] = &[3, 1, 5, 2, 7, 4, 1, 1, 1, 1, 1, 1, 1, 1];
    assert_eq!(hits.len(), SITES.len(), "one planned hit per fault site");
    let check = |site: &str, hit: u64| {
        let dir = fresh_dir(&format!("prop-{}", site.replace('.', "-")));
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single(site, hit));
        let outcome = catch_unwind(AssertUnwindSafe(|| study.run_study(&dir)));
        faults.clear();
        let outcome =
            outcome.unwrap_or_else(|_| panic!("fault {site}@{hit} escaped as a panic"));
        match outcome {
            // Absorbed (degraded pool, uncached retry, unfired trigger):
            // the result must not have been perturbed.
            Ok(r) => assert_bitwise_identical(&r, base, &format!("absorbed fault {site}@{hit}")),
            // Surfaced: must be typed (it is, by construction) and the
            // ledger must support a clean, identical resume.
            Err(err) => {
                let resumed = study.run_study(&dir).unwrap_or_else(|e| {
                    panic!("resume after fault {site}@{hit} ({err}) failed: {e}")
                });
                assert_bitwise_identical(
                    &resumed,
                    base,
                    &format!("resume after fault {site}@{hit} ({err})"),
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    };
    // Each site's run has its own directory and its own plan, seen only by
    // that run's threads, so the sites spread over the cores: at most
    // `cores::available()` runs at a time.
    let sites = SITES.iter().zip(hits).map(|(site, &hit)| (1, (*site, hit))).collect();
    let queues = cores::pack(cores::available(), sites);
    let runs = cores::run("chaos-sites", queues, |queue: Vec<(&str, u64)>| {
        queue.into_iter().for_each(|(site, hit)| check(site, hit))
    });
    if let Some(panic) = runs.into_iter().find_map(Result::err) {
        resume_unwind(panic);
    }
}

/// Every `should_fault("…")` literal outside comments in the `.rs` files
/// under `dir`, recursively.
fn hooked_sites(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            hooked_sites(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            for line in text.lines().filter(|l| !l.trim_start().starts_with("//")) {
                for call in line.split("should_fault(\"").skip(1) {
                    out.extend(call.split_once('"').map(|(site, _)| site.to_string()));
                }
            }
        }
    }
}

#[test]
fn fault_catalogue_matches_the_hooks_in_the_code_and_the_doc_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hooked = BTreeSet::new();
    hooked_sites(&root.join("src"), &mut hooked);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir").flatten() {
        hooked_sites(&entry.path().join("src"), &mut hooked);
    }
    let catalogue: BTreeSet<String> = SITES.iter().map(|s| s.to_string()).collect();
    assert_eq!(catalogue.len(), SITES.len(), "SITES names a site twice");
    assert_eq!(hooked, catalogue, "should_fault literals in the sources vs fault::SITES");

    let doc = std::fs::read_to_string(root.join("docs/RESILIENCE.md")).expect("docs/RESILIENCE.md");
    let rows: BTreeSet<String> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once("` |"))
        .map(|(site, _)| site.to_string())
        .collect();
    assert_eq!(rows, catalogue, "site rows of docs/RESILIENCE.md vs fault::SITES");
}

#[test]
fn torn_ledger_tail_and_truncated_checkpoint_are_rebuilt() {
    let study = micro_study();
    let dir = fresh_dir("durability");
    let first = study.run_study(&dir).expect("first run");
    assert_bitwise_identical(&first, micro_baseline(), "uninterrupted run_study");

    // Crash mid-append: a torn (newline-less) trailing line must be
    // dropped on replay, not poison the ledger.
    let ledger = dir.join("ledger.jsonl");
    let mut bytes = std::fs::read(&ledger).expect("ledger bytes");
    bytes.extend_from_slice(br#"{"stage":"torn-"#);
    std::fs::write(&ledger, &bytes).expect("append torn tail");

    // Bit rot / partial write: a ledgered checkpoint that no longer
    // matches its recorded digest must be rebuilt, not loaded.
    let victim = dir.join("native-7B-class.ckpt");
    let ckpt = std::fs::read(&victim).expect("checkpoint bytes");
    std::fs::write(&victim, &ckpt[..ckpt.len() / 2]).expect("truncate checkpoint");

    let second = study.run_study(&dir).expect("re-run over damaged artifacts");
    assert_bitwise_identical(&second, &first, "re-run after torn tail + truncated checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ledger_of_a_different_study_is_rejected() {
    let dir = fresh_dir("foreign");
    // Populate the ledger cheaply: kill the first run at its first
    // stage boundary.
    let study = micro_study();
    let faults = Faults::default().enter();
    faults.install(FaultPlan::single("study.stage_boundary", 1));
    let outcome = study.run_study(&dir);
    faults.clear();
    assert!(matches!(outcome, Err(StudyError::Interrupted { .. })));

    let other = Study::prepare(StudyConfig::micro(12)).expect("prepare seed 12");
    assert_refused(other.run_study(&dir), "fingerprint");
    let _ = std::fs::remove_dir_all(&dir);

    // Same config and tokenizer, written by another build: its
    // checkpoints may come from training code this build no longer runs.
    let dir = fresh_dir("other-build");
    std::fs::create_dir_all(&dir).expect("run dir");
    Journal::at(&dir.join("ledger.jsonl"))
        .append(&format!(
            r#"{{"stage":"fingerprint","config":"{:016x}","tokenizer":"{:016x}","build":"1-1"}}"#,
            fnv64(format!("{:?}", study.config).as_bytes()),
            fnv64(&study.tokenizer.to_bytes())
        ))
        .expect("write ledger");
    assert_refused(study.run_study(&dir), "build fingerprint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `outcome` must be a `StudyError::Ledger` whose message contains `why`.
fn assert_refused(outcome: Result<StudyResult, StudyError>, why: &str) {
    match outcome {
        Err(StudyError::Ledger(msg)) => assert!(msg.contains(why), "unexpected message: {msg}"),
        Ok(_) => panic!("a foreign ledger must not be resumed"),
        Err(other) => panic!("expected a Ledger error, got {other}"),
    }
}
