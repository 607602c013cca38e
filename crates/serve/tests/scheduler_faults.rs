//! Fault injection against the iteration scheduler.
//!
//! Its own test binary: the fault registry is process-global, and the
//! scheduler consults it on every step (`serve.admit_stall`) and every
//! admission (`serve.cache_full`), so these tests must not share a
//! process with other scheduler tests. Tests here still serialise with
//! each other through `GATE`.
//!
//! * `serve.admit_stall` — one step's admission is suppressed (the stall
//!   is absorbed: nothing is dropped, results are bitwise unchanged, the
//!   stall is visible in the schedule log and the `serve.admit.stalls`
//!   counter).
//! * `serve.cache_full` — the job runs uncached (the lifecycle's one
//!   retry), which by the determinism contract cannot change its result;
//!   checked on both drivers of the lifecycle.

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_resilience::fault::{self, FaultPlan};
use astro_serve::{EngineConfig, EvalEngine, GenerateJob, SchedulerConfig, SeqOutcome};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

mod common;
use common::generate as reference;

fn gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
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
    fault::clear();
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
    fault::install(FaultPlan::single("serve.admit_stall", 1));
    let mut results = Vec::new();
    while !sched.is_idle() {
        results.extend(sched.step());
    }
    fault::clear();
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

/// Both drivers of the job lifecycle: one injected `serve.cache_full`
/// costs the job it lands on exactly one uncached retry — on a pool worker
/// and in the iteration scheduler alike — and changes nobody's tokens.
#[test]
fn injected_cache_pressure_degrades_to_uncached_bitwise_identically() {
    let _g = gate();
    fault::clear();
    let params = setup();
    let work = jobs(3);
    let refs: Vec<Vec<u32>> = work.iter().map(|j| reference(&params, j)).collect();
    for cfg in [
        EngineConfig::pooled_with(1),
        EngineConfig::pooled_with(2),
        EngineConfig::iteration(),
    ] {
        let engine = EvalEngine::new(cfg, &params);
        let retries0 = astro_telemetry::counter("serve.cache_full.retries").get();
        // Fire on the second job started: it runs uncached while its
        // batchmates keep the cache.
        fault::install(FaultPlan::single("serve.cache_full", 2));
        let results = engine.generate_batch(work.clone());
        assert!(fault::fired("serve.cache_full"), "{cfg:?}: plan never fired");
        fault::clear();
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
