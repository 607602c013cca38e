//! Fault injection against the iteration scheduler, which consults the
//! calling thread's plan (`Faults::enter`) on every step
//! (`serve.admit_stall`) and every admission (`serve.cache_full`,
//! `pool.worker_panic`). The tests serialise through `GATE` for the
//! process-global counters whose deltas they assert.
//!
//! * `serve.admit_stall` — one step's admission is suppressed (the stall
//!   is absorbed: nothing is dropped, results are bitwise unchanged, the
//!   stall is visible in the schedule log and the `serve.admit.stalls`
//!   counter).
//! * `serve.cache_full` — the job runs uncached (the lifecycle's one
//!   retry), which by the determinism contract cannot change its result;
//!   checked on a standalone scheduler's engine and on 1 and 2 shards.
//! * `pool.worker_panic` — the job panics in the step that admits it,
//!   inside the scheduler's per-sequence panic boundary: that job reports
//!   `WorkerPanic`, the rest of a mixed running batch retires with oracle
//!   results, the ledger releases the failed job's blocks. (The offline
//!   batch's view of the same site is `concurrent_engine.rs`.)

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, SchedulerConfig, ScoreJob, ScoreReadout, SeqOutcome,
    ServeError,
};
use astro_telemetry::fault::{FaultPlan, Faults};
use std::sync::{Mutex, MutexGuard, PoisonError};

mod common;
use common::generate as reference;

/// Serialises the tests' reads of the process-global counters
/// (`serve.cache_full.retries`, `serve.job_panics`).
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn setup() -> Params {
    Params::init(ModelConfig::tiny(24), &mut Rng::seed_from(5))
}

fn jobs(n: u32) -> Vec<GenerateJob> {
    (0..n)
        .map(|i| GenerateJob {
            prompt: vec![9, 8, i + 1],
            group: None,
            max_new: 5,
            sampler: SamplerConfig::greedy(),
            rng: Rng::seed_from(i as u64),
            stop: vec![],
            trace: None,
        })
        .collect()
}

#[test]
fn admit_stall_is_absorbed_without_dropping_or_corrupting_work() {
    let _g = gate();
    let params = setup();
    let work = jobs(4);
    let refs: Vec<Vec<u32>> = work.iter().map(|j| reference(&params, j)).collect();
    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(SchedulerConfig {
        max_active: 2,
        prefill_chunk: 2,
        ..SchedulerConfig::default()
    });
    let ids: Vec<usize> = work
        .iter()
        .map(|j| sched.submit_generate(j.clone()).expect("submit"))
        .collect();
    let faults = Faults::default().enter();
    faults.install(FaultPlan::single("serve.admit_stall", 1));
    let mut results = Vec::new();
    while !sched.is_idle() {
        results.extend(sched.step());
    }
    faults.clear();
    // The stall hit the first step and is visible in the log...
    let log = sched.sched_log().expect("log");
    assert!(log.steps[0].stalled, "first step should have stalled");
    assert!(log.steps[0].admitted.is_empty());
    assert!(log.steps.iter().skip(1).all(|s| !s.stalled), "one-shot fault re-fired");
    // ...and nothing was lost or changed.
    assert_eq!(results.len(), ids.len());
    results.sort_by_key(|(id, _)| *id);
    for ((id, r), (want_id, want)) in results.iter().zip(ids.iter().zip(refs.iter())) {
        assert_eq!(id, want_id);
        match r {
            Ok(SeqOutcome::Tokens(t)) => assert_eq!(t, want, "job {id} tokens changed"),
            other => panic!("job {id}: {other:?}"),
        }
    }
}

/// One injected `serve.cache_full` costs the job it lands on exactly one
/// uncached retry — on one shard and on two — and changes nobody's tokens.
#[test]
fn injected_cache_pressure_degrades_to_uncached_bitwise_identically() {
    let _g = gate();
    let params = setup();
    let work = jobs(3);
    let refs: Vec<Vec<u32>> = work.iter().map(|j| reference(&params, j)).collect();
    let faults = Faults::default().enter();
    for cfg in [
        EngineConfig::pooled_with(1),
        EngineConfig::pooled_with(2),
        EngineConfig::iteration(),
    ] {
        let engine = EvalEngine::new(cfg, &params);
        let retries0 = astro_telemetry::counter("serve.cache_full.retries").get();
        // Fire on the second job started: it runs uncached while its
        // batchmates keep the cache.
        faults.install(FaultPlan::single("serve.cache_full", 2));
        let results = engine.generate_batch(work.clone());
        assert!(faults.fired("serve.cache_full"), "{cfg:?}: plan never fired");
        faults.clear();
        let retries = astro_telemetry::counter("serve.cache_full.retries").get() - retries0;
        assert_eq!(retries, 1, "{cfg:?}");
        assert_eq!(results.len(), refs.len());
        for (i, (r, want)) in results.iter().zip(refs.iter()).enumerate() {
            assert_eq!(
                r.as_ref().ok(),
                Some(want),
                "{cfg:?}: job {i} diverged under injected pressure"
            );
        }
    }
}

/// The site a gateway request can now reach: with two generate jobs
/// already decoding, a score job and a third generate job are submitted
/// and the plan fires on the second of them. That job alone reports
/// `WorkerPanic`; the running decodes and the score job are untouched.
#[test]
fn injected_job_panic_fails_one_job_of_a_mixed_running_batch() {
    let _g = gate();
    let params = setup();
    let work = jobs(3);
    let refs: Vec<Vec<u32>> = work.iter().map(|j| reference(&params, j)).collect();
    let score = ScoreJob {
        prompt: vec![9, 8, 7, 6, 5],
        group: None,
        readout: ScoreReadout::ContinuationGroups(vec![vec![vec![1, 2]], vec![vec![3]]]),
        trace: None,
    };
    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(SchedulerConfig {
        max_active: 4,
        prefill_chunk: 2,
        ..SchedulerConfig::default()
    });
    let running: Vec<usize> =
        work[..2].iter().map(|j| sched.submit_generate(j.clone()).expect("submit")).collect();
    // Two prefill steps (3 tokens, chunk 2), then the first decode step.
    let mut results = Vec::new();
    for _ in 0..3 {
        results.extend(sched.step());
    }
    assert!(results.is_empty() && sched.active_len() == 2, "the first two jobs are mid-decode");

    let panics0 = astro_telemetry::counter("serve.job_panics").get();
    let faults = Faults::default().enter();
    faults.install(FaultPlan::single("pool.worker_panic", 2));
    let score_id = sched.submit_score(score.clone()).expect("submit");
    let victim = sched.submit_generate(work[2].clone()).expect("submit");
    results.extend(sched.run_to_completion());
    assert!(faults.fired("pool.worker_panic"), "plan never fired");
    faults.clear();

    assert_eq!(results.len(), 4, "every job retires exactly once");
    for (id, r) in &results {
        match r {
            Ok(SeqOutcome::Tokens(t)) => {
                let i = running.iter().position(|r| r == id).expect("a running generate");
                assert_eq!(*t, refs[i], "running job {id} tokens changed");
            }
            Ok(SeqOutcome::Scores(s)) => {
                assert_eq!(*id, score_id);
                let bits: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, common::score_bits(&params, &score), "score job changed");
            }
            Err(e) => assert_eq!((*id, *e), (victim, ServeError::WorkerPanic)),
        }
    }
    assert_eq!(astro_telemetry::counter("serve.job_panics").get() - panics0, 1);
    assert_eq!(sched.ledger().active_blocks(), 0, "the failed job's blocks were not released");
    assert_eq!(sched.ledger().active_sequences(), 0);
}
