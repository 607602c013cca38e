//! Speculative decoding through the serving engine.
//!
//! The contract under test: enabling speculation (`EngineConfig::spec_k`
//! plus [`EvalEngine::with_draft`]) changes **throughput only**. Greedy
//! generation must be bitwise-identical to plain decoding in a fresh
//! session (the `common` oracle — no engine code) on every execution mode
//! (serial, pooled, iteration scheduler), for f32 and int8 targets, under
//! draft-capacity degradation and under a permanent
//! `quant.spec_reject_storm` fault.

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_resilience::fault::{self, FaultPlan};
use astro_serve::{EngineConfig, EvalEngine, GenerateJob};
use std::sync::{Mutex, MutexGuard};

mod common;

// Fault plans and telemetry counters are process-global; serialise the
// tests in this binary that touch either.
static GATE: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn target() -> Params {
    Params::init(ModelConfig::tiny(24), &mut Rng::seed_from(11))
}

/// A draft with the same vocabulary but different weights — realistic
/// speculation, where the draft agrees often but not always.
fn draft() -> Params {
    Params::init(ModelConfig::tiny(24), &mut Rng::seed_from(7))
}

/// Greedy generation jobs with a shared preamble and per-article groups.
fn jobs() -> Vec<GenerateJob> {
    let prompts: Vec<Vec<u32>> = vec![
        vec![9, 8, 7, 1, 1, 2],
        vec![9, 8, 7, 1, 5],
        vec![9, 8, 7, 2, 3, 4],
        vec![9, 8, 7, 2, 3, 6],
    ];
    prompts
        .into_iter()
        .enumerate()
        .map(|(i, prompt)| GenerateJob {
            group: Some(prompt[3] as u64),
            prompt,
            max_new: 10,
            sampler: SamplerConfig::greedy(),
            rng: Rng::seed_from(100 + i as u64),
            stop: vec![0],
            trace: None,
        })
        .collect()
}

fn run(engine: &EvalEngine) -> Vec<Vec<u32>> {
    engine
        .generate_batch(jobs())
        .into_iter()
        .map(|r| r.expect("generation job failed"))
        .collect()
}

/// What every engine must produce for [`jobs`]: plain decoding, each job
/// alone in a fresh session.
fn plain(params: &Params) -> Vec<Vec<u32>> {
    jobs().iter().map(|j| common::generate(params, j)).collect()
}

/// Every execution mode worth covering, with a spread of draft lengths.
fn spec_configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig::serial().with_spec_k(1),
        EngineConfig::serial().with_spec_k(4),
        EngineConfig::pooled_with(2).with_spec_k(2),
        EngineConfig::iteration().with_spec_k(3),
    ]
}

#[test]
fn greedy_spec_matches_plain_engine_bitwise_f32() {
    let _g = locked();
    let (tp, dp) = (target(), draft());
    let expect = plain(&tp);
    for cfg in spec_configs() {
        let engine = EvalEngine::new(cfg, &tp).with_draft(&dp);
        assert!(engine.speculation_enabled());
        assert_eq!(run(&engine), expect, "config {cfg:?}");
    }
}

#[test]
fn greedy_spec_matches_plain_engine_bitwise_int8() {
    let _g = locked();
    let tp = target().quantized();
    let dp = draft();
    let expect = plain(&tp);
    for cfg in spec_configs() {
        let engine = EvalEngine::new(cfg, &tp).with_draft(&dp);
        assert_eq!(run(&engine), expect, "config {cfg:?}");
    }
}

#[test]
fn spec_without_draft_or_with_k_zero_is_plain_decoding() {
    let _g = locked();
    let (tp, dp) = (target(), draft());
    let expect = plain(&tp);
    // spec_k set but no draft installed: the knob is inert.
    let no_draft = EvalEngine::new(EngineConfig::serial().with_spec_k(4), &tp);
    assert!(!no_draft.speculation_enabled());
    assert_eq!(run(&no_draft), expect);
    // Draft installed but spec_k == 0: also inert.
    let k_zero = EvalEngine::new(EngineConfig::serial(), &tp).with_draft(&dp);
    assert!(!k_zero.speculation_enabled());
    assert_eq!(run(&k_zero), expect);
}

#[test]
fn self_draft_accepts_every_token() {
    let _g = locked();
    let tp = target();
    let drafted0 = astro_telemetry::counter("serve.spec.drafted").get();
    let accepted0 = astro_telemetry::counter("serve.spec.accepted").get();
    let engine = EvalEngine::new(EngineConfig::serial().with_spec_k(4), &tp).with_draft(&tp);
    let expect = plain(&tp);
    assert_eq!(run(&engine), expect);
    let drafted = astro_telemetry::counter("serve.spec.drafted").get() - drafted0;
    let accepted = astro_telemetry::counter("serve.spec.accepted").get() - accepted0;
    assert!(drafted > 0, "speculation never drafted");
    assert_eq!(
        accepted, drafted,
        "a greedy self-draft must be accepted in full"
    );
}

#[test]
fn draft_too_small_for_prompt_falls_back_to_plain_decoding() {
    let _g = locked();
    let tp = target();
    // A draft whose whole context is shorter than every prompt: the
    // engine must fall back per job, with identical greedy output.
    let mut dcfg = ModelConfig::tiny(24);
    dcfg.max_seq = 4;
    let dp = Params::init(dcfg, &mut Rng::seed_from(7));
    let expect = plain(&tp);
    let overflow0 = astro_telemetry::counter("serve.spec.draft_overflow").get();
    for cfg in [
        EngineConfig::serial().with_spec_k(2),
        EngineConfig::pooled_with(2).with_spec_k(2),
        EngineConfig::iteration().with_spec_k(2),
    ] {
        let engine = EvalEngine::new(cfg, &tp).with_draft(&dp);
        assert_eq!(run(&engine), expect, "config {cfg:?}");
    }
    let overflows = astro_telemetry::counter("serve.spec.draft_overflow").get() - overflow0;
    assert!(overflows >= 8, "expected one overflow per job per config, saw {overflows}");
}

#[test]
fn permanent_reject_storm_degrades_without_changing_output() {
    let _g = locked();
    let (tp, dp) = (target(), draft());
    let expect = plain(&tp);
    // Fire the storm fault on *every* hit: each trigger is one-shot, so
    // arm far more than the engine can consume in this test.
    let storm = (1..=4096u64).fold(FaultPlan::new(), |p, hit| {
        p.and("quant.spec_reject_storm", hit)
    });
    for cfg in [
        EngineConfig::serial().with_spec_k(4),
        EngineConfig::iteration().with_spec_k(4),
    ] {
        fault::install(storm.clone());
        let degraded0 = astro_telemetry::counter("serve.spec.storm_degraded").get();
        let engine = EvalEngine::new(cfg, &tp).with_draft(&dp);
        let got = run(&engine);
        fault::clear();
        let degraded =
            astro_telemetry::counter("serve.spec.storm_degraded").get() - degraded0;
        assert_eq!(got, expect, "config {cfg:?}");
        assert!(degraded > 0, "storm never degraded a round ({cfg:?})");
    }
}

#[test]
fn stochastic_spec_is_deterministic_and_in_vocab() {
    let _g = locked();
    let (tp, dp) = (target(), draft());
    let sampled_jobs = || -> Vec<GenerateJob> {
        jobs()
            .into_iter()
            .map(|mut j| {
                j.sampler = SamplerConfig { temperature: 0.9, top_k: 8 };
                j
            })
            .collect()
    };
    let engine = EvalEngine::new(EngineConfig::serial().with_spec_k(3), &tp).with_draft(&dp);
    let a: Vec<Vec<u32>> = engine
        .generate_batch(sampled_jobs())
        .into_iter()
        .map(|r| r.expect("generation job failed"))
        .collect();
    let b: Vec<Vec<u32>> = engine
        .generate_batch(sampled_jobs())
        .into_iter()
        .map(|r| r.expect("generation job failed"))
        .collect();
    assert_eq!(a, b, "same pre-split RNG streams must reproduce bitwise");
    for toks in &a {
        assert!(toks.len() <= 10);
        for &t in toks {
            assert!(t != 0 && (t as usize) < 24, "token {t} out of range");
        }
    }
}
