//! Differential parity: the astro-serve batched engine must be
//! **bit-identical** to the serial reference path.
//!
//! A performance rewrite of the scoring path can silently change
//! benchmark scores; this suite is the contract that it cannot. For the
//! CI-sized preset it asserts, against the serial uncached path:
//!
//! * token-method per-question predictions AND per-option scores
//!   (`f32`-exact, compared as bits) for both [`AnswerReadout`] variants,
//! * full-instruct raw generations, extraction stages and predictions,
//!
//! across prefix caching on/off, pool sizes 1/2/3/4 and the
//! iteration-level scheduler. The determinism argument the suite checks
//! empirically is spelled out in docs/SERVING.md.

use astromlab::eval::{
    instruct_method, token_method_outcomes, AnswerReadout, EvalModel, InstructEvalConfig,
    TokenEvalConfig, TokenOutcome,
};
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::serve::{EngineConfig, EvalEngine, ScoreJob, ScoreReadout};
use astromlab::{Study, StudyConfig};

/// Every engine configuration the parity contract covers: prefix cache
/// off/on at pool sizes 1, 2, 3 and 4, plus the iteration scheduler.
fn engine_matrix() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for parallelism in [1usize, 2, 3, 4] {
        for prefix_cache in [false, true] {
            out.push(EngineConfig {
                parallelism,
                prefix_cache,
                max_cache_bytes: 0,
            });
        }
    }
    // Iteration-level continuous batching rides the same contract: a
    // different schedule over the same per-sequence arithmetic.
    out.push(EngineConfig::iteration());
    out
}

/// Bitwise comparison for per-option scores (`==` on f32 would also
/// accept -0.0 vs 0.0 and reject NaN; scores must match *exactly*).
fn bits(scores: &[f32; 4]) -> [u32; 4] {
    [
        scores[0].to_bits(),
        scores[1].to_bits(),
        scores[2].to_bits(),
        scores[3].to_bits(),
    ]
}

fn assert_token_parity(reference: &[TokenOutcome], got: &[TokenOutcome], label: &str) {
    assert_eq!(reference.len(), got.len(), "{label}: length");
    for (i, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
        assert_eq!(r.prediction, g.prediction, "{label}: q{i} prediction");
        assert_eq!(bits(&r.scores), bits(&g.scores), "{label}: q{i} scores {:?} vs {:?}", r.scores, g.scores);
        assert!(g.error.is_none(), "{label}: q{i} unexpected error {:?}", g.error);
    }
}

#[test]
fn token_method_engine_matches_serial_bitwise_both_readouts() {
    // The CI-sized preset; an untrained model exercises the identical
    // arithmetic (training state does not change the execution path).
    let study = Study::prepare(StudyConfig::smoke(11)).expect("prepare");
    let params = Params::init(study.model_config(Tier::S7b), &mut Rng::seed_from(1));
    let model = EvalModel {
        params: &params,
        tokenizer: &study.tokenizer,
    };
    let questions = study.eval_questions();
    for readout in [AnswerReadout::OptionValue, AnswerReadout::Letter] {
        let serial = TokenEvalConfig {
            readout,
            engine: EngineConfig::serial(),
            ..Default::default()
        };
        let reference = token_method_outcomes(&model, &questions, &study.mcq.exemplars, &serial);
        assert_eq!(reference.len(), questions.len());
        for cfg in engine_matrix() {
            let engined = TokenEvalConfig {
                readout,
                engine: cfg,
                ..Default::default()
            };
            let got = token_method_outcomes(&model, &questions, &study.mcq.exemplars, &engined);
            assert_token_parity(&reference, &got, &format!("{readout:?} {cfg:?}"));
        }
    }
}

#[test]
fn token_method_parity_holds_without_variant_detection_and_zero_shot() {
    let study = Study::prepare(StudyConfig::smoke(12)).expect("prepare");
    let params = Params::init(study.model_config(Tier::S8b), &mut Rng::seed_from(2));
    let model = EvalModel {
        params: &params,
        tokenizer: &study.tokenizer,
    };
    let questions = study.eval_questions();
    for (shots, detect) in [(0usize, false), (0, true), (2, false)] {
        let serial = TokenEvalConfig {
            shots,
            detect_variants: detect,
            engine: EngineConfig::serial(),
            ..Default::default()
        };
        let reference = token_method_outcomes(&model, &questions, &study.mcq.exemplars, &serial);
        for cfg in [EngineConfig::pooled_with(2), EngineConfig::pooled_with(4)] {
            let engined = TokenEvalConfig {
                shots,
                detect_variants: detect,
                engine: cfg,
                ..Default::default()
            };
            let got = token_method_outcomes(&model, &questions, &study.mcq.exemplars, &engined);
            assert_token_parity(&reference, &got, &format!("shots={shots} detect={detect} {cfg:?}"));
        }
    }
}

#[test]
fn instruct_method_engine_matches_serial_exactly() {
    let study = Study::prepare(StudyConfig::smoke(13)).expect("prepare");
    let params = Params::init(study.model_config(Tier::S7b), &mut Rng::seed_from(3));
    let model = EvalModel {
        params: &params,
        tokenizer: &study.tokenizer,
    };
    let questions = study.eval_questions();
    let serial_cfg = InstructEvalConfig {
        engine: EngineConfig::serial(),
        ..Default::default()
    };
    let mut rng = Rng::seed_from(77);
    let reference = instruct_method(&model, &questions, &serial_cfg, &mut rng);
    for cfg in engine_matrix() {
        let engined = InstructEvalConfig {
            engine: cfg,
            ..Default::default()
        };
        // The per-question substreams derive from the same root: parity
        // must hold with a fresh rng seeded identically.
        let mut rng = Rng::seed_from(77);
        let got = instruct_method(&model, &questions, &engined, &mut rng);
        assert_eq!(reference.len(), got.len());
        for (i, (r, g)) in reference.iter().zip(got.iter()).enumerate() {
            assert_eq!(r.raw, g.raw, "{cfg:?}: q{i} raw generation");
            assert_eq!(r.prediction, g.prediction, "{cfg:?}: q{i} prediction");
            assert_eq!(r.stage, g.stage, "{cfg:?}: q{i} extraction stage");
        }
    }
}

/// The grouped smoke workload (5 questions per article sharing a two-shot
/// preamble) as raw engine score jobs.
fn grouped_jobs(study: &Study, model: &EvalModel, params: &Params) -> Vec<ScoreJob> {
    let questions = study.eval_questions();
    let cfg = TokenEvalConfig::default();
    questions
        .iter()
        .map(|q| {
            let prompt_text =
                astromlab::mcq::prompts::token_method_prompt(q, &study.mcq.exemplars, cfg.shots);
            let mut tokens = model.tokenizer.encode_with_bounds(&prompt_text, false);
            let cap = params.cfg.max_seq.saturating_sub(12).max(1);
            if tokens.len() > cap {
                tokens.drain(0..tokens.len() - cap);
            }
            ScoreJob {
                prompt: tokens,
                group: Some(q.article as u64),
                readout: ScoreReadout::LogitGroups(vec![vec![0]]),
                trace: None,
            }
        })
        .collect()
}

#[test]
fn prefix_cache_actually_fires_on_the_grouped_workload() {
    // Parity alone could be trivially satisfied by a cache that never
    // hits; assert the smoke workload (5 questions per article sharing a
    // two-shot preamble) produces real reuse.
    let study = Study::prepare(StudyConfig::smoke(11)).expect("prepare");
    let params = Params::init(study.model_config(Tier::S7b), &mut Rng::seed_from(1));
    let model = EvalModel {
        params: &params,
        tokenizer: &study.tokenizer,
    };
    let engine = EvalEngine::new(EngineConfig::pooled_with(2), &params);
    let jobs = grouped_jobs(&study, &model, &params);
    let n = jobs.len();
    let results = engine.score_batch(jobs);
    assert_eq!(results.len(), n);
    let stats = engine.cache_stats();
    assert!(stats.hits > 0, "no prefix-cache hits on a grouped workload: {stats:?}");
    assert!(stats.tokens_reused > 0, "{stats:?}");
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn iteration_scheduler_matches_coalescing_cache_hit_rate() {
    // The iteration scheduler must not trade away prefix reuse for its
    // admission freedom: on the grouped smoke workload every sequence
    // forks the pinned batch anchor in both modes, so hits, misses and
    // hit rate agree exactly (tokens_reused may legitimately differ —
    // admission order changes *which* anchor a fork lands on, not
    // whether it hits).
    let study = Study::prepare(StudyConfig::smoke(11)).expect("prepare");
    let params = Params::init(study.model_config(Tier::S7b), &mut Rng::seed_from(1));
    let model = EvalModel {
        params: &params,
        tokenizer: &study.tokenizer,
    };
    let jobs = grouped_jobs(&study, &model, &params);

    let coalescing = EvalEngine::new(
        EngineConfig { parallelism: 1, prefix_cache: true, max_cache_bytes: 0 },
        &params,
    );
    let iteration = EvalEngine::new(EngineConfig::iteration(), &params);
    let a = coalescing.score_batch(jobs.clone());
    let b = iteration.score_batch(jobs);
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let x = x.as_ref().expect("coalescing job failed");
        let y = y.as_ref().expect("iteration job failed");
        let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "job {i} scores diverge between schedulers");
    }
    let sa = coalescing.cache_stats();
    let sb = iteration.cache_stats();
    assert!(sa.hits > 0, "workload produced no reuse: {sa:?}");
    assert_eq!(sa.hits, sb.hits, "hit parity: {sa:?} vs {sb:?}");
    assert_eq!(sa.misses, sb.misses, "miss parity: {sa:?} vs {sb:?}");
    assert_eq!(
        sa.hit_rate().to_bits(),
        sb.hit_rate().to_bits(),
        "hit-rate parity: {} vs {}",
        sa.hit_rate(),
        sb.hit_rate()
    );
}

#[test]
fn overlong_prompt_fails_one_question_and_the_sweep_completes() {
    // The bugfix contract: a prompt that overflows the KV cache surfaces
    // as that job's SessionError::CacheFull; every other question in the
    // sweep still scores.
    let study = Study::prepare(StudyConfig::smoke(14)).expect("prepare");
    let params = Params::init(study.model_config(Tier::S7b), &mut Rng::seed_from(4));
    let engine = EvalEngine::new(EngineConfig::pooled_with(2), &params);
    let good = ScoreJob {
        prompt: vec![3, 1, 4, 1, 5],
        group: None,
        readout: ScoreReadout::LogitGroups(vec![vec![1], vec![2], vec![3], vec![4]]),
        trace: None,
    };
    let bad = ScoreJob {
        prompt: vec![7; params.cfg.max_seq + 10],
        group: None,
        readout: ScoreReadout::LogitGroups(vec![vec![1], vec![2], vec![3], vec![4]]),
        trace: None,
    };
    let results = engine.score_batch(vec![good.clone(), bad, good]);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert!(results[2].is_ok(), "{:?}", results[2]);
    let err = results[1].as_ref().expect_err("overlong prompt must fail");
    assert!(format!("{err}").contains("KV cache full"), "{err}");
    // The two identical good jobs must agree bitwise with each other.
    assert_eq!(results[0].as_ref().ok(), results[2].as_ref().ok());
}
