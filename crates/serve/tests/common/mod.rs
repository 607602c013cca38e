//! The oracle the serve suites compare against: each job alone, in fresh
//! sessions, written directly against `astro-model`.
//!
//! Deliberately **not** `EvalEngine::new(EngineConfig::serial(), ..)`:
//! every engine configuration runs the job lifecycle in
//! `crates/serve/src/seq.rs`, so using one as "expected" would compare
//! that code to itself. Nothing here touches the prefix cache, session
//! reuse (`assign_from` / `reset`) or chunked prefill.
#![allow(dead_code)] // each suite uses the half it needs

use astro_model::{continuation_loglik, InferenceSession, Params, StepDecoder};
use astro_serve::{GenerateJob, ScoreJob, ScoreReadout};

fn fed(params: &Params, prompt: &[u32]) -> InferenceSession {
    let mut sess = InferenceSession::new(params.cfg);
    for &t in prompt {
        sess.feed(params, t);
    }
    sess
}

/// Per-option scores of one score job: max over an option's variants
/// (continuations) or candidate ids (raw logits); `-inf` for an empty one.
pub fn score(params: &Params, job: &ScoreJob) -> Vec<f32> {
    fn max(it: impl Iterator<Item = f32>) -> f32 {
        it.fold(f32::NEG_INFINITY, f32::max)
    }
    let sess = fed(params, &job.prompt);
    match &job.readout {
        ScoreReadout::LogitGroups(groups) => groups
            .iter()
            .map(|ids| max(ids.iter().map(|&id| sess.last_logits()[id as usize])))
            .collect(),
        ScoreReadout::ContinuationGroups(groups) => groups
            .iter()
            .map(|variants| max(variants.iter().map(|c| continuation_loglik(params, &sess, c))))
            .collect(),
    }
}

/// [`score`], as bit patterns (what the suites compare).
pub fn score_bits(params: &Params, job: &ScoreJob) -> Vec<u32> {
    score(params, job).iter().map(|v| v.to_bits()).collect()
}

/// The tokens of one generate job: one plain decoder, run to exhaustion.
pub fn generate(params: &Params, job: &GenerateJob) -> Vec<u32> {
    let mut sess = fed(params, &job.prompt);
    let mut dec = StepDecoder::new(job.sampler, job.rng.clone(), job.stop.clone(), job.max_new);
    while dec.step(params, &mut sess).is_some() {}
    dec.into_tokens()
}
