//! Step-wise decoding: advance one session by one token per call.
//!
//! `astro-serve`'s scheduler interleaves *many* generate jobs, one token
//! each per engine step, so the decode loop's state (sampler, RNG stream,
//! stop set, emitted budget) has to live outside the loop. [`StepDecoder`]
//! is that state, and a step has two halves:
//!
//! * [`StepDecoder::sample`] — check capacity, sample from the session's
//!   last logits, stop-token check, budget. It only *reads* the session,
//!   so the scheduler can sample every decoding sequence first and then
//!   feed all the sampled tokens through **one** stacked forward
//!   ([`InferenceSession::try_feed_lanes`]) — and not feed at all the
//!   token after which nothing more will be sampled.
//! * the feed of the sampled token.
//!
//! [`StepDecoder::step`] is their composition on one session. One `step`
//! call is bit-identical to one iteration of the whole-loop reference (the
//! serial oracle, `astro-eval`'s `instruct_method_answer`); driving `step`
//! to exhaustion therefore reproduces the oracle's output token-for-token,
//! and it is what the differential scheduler suite (`crates/serve/tests/`)
//! holds the stacked step to.
//!
//! [`continuation_loglik`] is the scoring oracle beside it: one answer
//! continuation's length-normalised log-likelihood, one `feed` per token.
//! `astro-eval`'s serial token method scores with it, and the `astro-serve`
//! suites hold the stacked score readout to it bit for bit.

use crate::sample::{sample_logits, SamplerConfig};
use crate::{InferenceSession, Params};
use astro_prng::Rng;

/// Resumable single-sequence decode state. Construct once after the
/// prompt is fed, then call [`StepDecoder::step`] — or
/// [`StepDecoder::sample`] and feed the token yourself — once per engine
/// step until it reports completion.
#[derive(Clone, Debug)]
pub struct StepDecoder {
    sampler: SamplerConfig,
    rng: Rng,
    stop: Vec<u32>,
    max_new: usize,
    emitted: Vec<u32>,
    finished: bool,
}

impl StepDecoder {
    /// Decode state for one sequence. `rng` must be the job's pre-split
    /// stream so results are independent of scheduling order.
    pub fn new(sampler: SamplerConfig, rng: Rng, stop: Vec<u32>, max_new: usize) -> Self {
        StepDecoder {
            sampler,
            rng,
            stop,
            max_new,
            emitted: Vec::with_capacity(max_new),
            finished: max_new == 0,
        }
    }

    /// The sampling half of a step: the next token off
    /// `sess.last_logits()`, or `None` once the sequence is finished
    /// (budget exhausted, stop token sampled, or KV cache full). The
    /// returned token is emitted but **not fed**: unless
    /// [`Self::is_finished`] now holds, the caller must feed it to `sess`
    /// before the next call. `sess` must already contain the fed prompt;
    /// its logits must be those of the last fed token.
    pub fn sample(&mut self, sess: &InferenceSession) -> Option<u32> {
        if self.finished {
            return None;
        }
        if sess.remaining() == 0 {
            self.finished = true;
            return None;
        }
        let next = sample_logits(sess.last_logits(), &self.sampler, &mut self.rng) as u32;
        if self.stop.contains(&next) {
            self.finished = true;
            return None;
        }
        self.emitted.push(next);
        if self.emitted.len() >= self.max_new {
            self.finished = true;
        }
        Some(next)
    }

    /// Advance the sequence by one token: [`Self::sample`], then feed the
    /// sampled token (the budget's last one included). Returns the emitted
    /// token, or `None` once the sequence is finished.
    pub fn step(&mut self, params: &Params, sess: &mut InferenceSession) -> Option<u32> {
        let next = self.sample(sess)?;
        sess.feed(params, next);
        Some(next)
    }

    /// True once no further token will be emitted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Tokens emitted so far (stop token excluded), in order.
    pub fn tokens(&self) -> &[u32] {
        &self.emitted
    }

    /// Consume the decoder, returning the emitted tokens.
    pub fn into_tokens(self) -> Vec<u32> {
        self.emitted
    }
}

/// Length-normalised log-likelihood of `continuation` from a fork
/// (`clone`) of `sess`, whose last logits are the distribution of the
/// first continuation token: the f64 sum of the counted tokens'
/// log-probabilities over their count. Counting stops where the cache is
/// full, so `min(len, remaining)` tokens count; `-inf` when none does or
/// the continuation is empty.
pub fn continuation_loglik(params: &Params, sess: &InferenceSession, continuation: &[u32]) -> f32 {
    if continuation.is_empty() {
        return f32::NEG_INFINITY;
    }
    let mut fork = sess.clone();
    let mut ll = 0.0f64;
    let mut counted = 0usize;
    for (i, &tok) in continuation.iter().enumerate() {
        if fork.remaining() == 0 {
            break;
        }
        let logits = fork.last_logits();
        let lse = astro_tensor::ops::log_sum_exp(logits);
        ll += (logits[tok as usize] - lse) as f64;
        counted += 1;
        // The logits after the last token are never read.
        if i + 1 < continuation.len() {
            fork.feed(params, tok);
        }
    }
    if counted == 0 {
        return f32::NEG_INFINITY;
    }
    (ll / counted as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    fn setup() -> Params {
        Params::init(ModelConfig::tiny(16), &mut Rng::seed_from(5))
    }

    /// The whole-loop reference, inlined.
    fn reference(
        params: &Params,
        prompt: &[u32],
        max_new: usize,
        stop: &[u32],
        sampler: SamplerConfig,
        mut rng: Rng,
    ) -> Vec<u32> {
        let mut sess = InferenceSession::new(params.cfg);
        let mut logits = Vec::new();
        for &t in prompt {
            logits = sess.feed(params, t).to_vec();
        }
        let mut out = Vec::new();
        for _ in 0..max_new {
            if sess.remaining() == 0 {
                break;
            }
            let next = sample_logits(&logits, &sampler, &mut rng) as u32;
            if stop.contains(&next) {
                break;
            }
            out.push(next);
            logits = sess.feed(params, next).to_vec();
        }
        out
    }

    fn run_stepwise(
        params: &Params,
        prompt: &[u32],
        max_new: usize,
        stop: &[u32],
        sampler: SamplerConfig,
        rng: Rng,
    ) -> Vec<u32> {
        let mut sess = InferenceSession::new(params.cfg);
        for &t in prompt {
            sess.feed(params, t);
        }
        let mut dec = StepDecoder::new(sampler, rng, stop.to_vec(), max_new);
        while dec.step(params, &mut sess).is_some() {}
        assert!(dec.is_finished());
        dec.into_tokens()
    }

    #[test]
    fn stepwise_matches_whole_loop_greedy_and_sampled() {
        let params = setup();
        for (sampler, seed) in [
            (SamplerConfig::greedy(), 1u64),
            (SamplerConfig { temperature: 0.9, top_k: 4 }, 2),
            (SamplerConfig { temperature: 1.3, top_k: 0 }, 3),
        ] {
            let expect =
                reference(&params, &[1, 2, 3], 8, &[0], sampler, Rng::seed_from(seed));
            let got =
                run_stepwise(&params, &[1, 2, 3], 8, &[0], sampler, Rng::seed_from(seed));
            assert_eq!(got, expect, "sampler {sampler:?}");
        }
    }

    #[test]
    fn sample_then_feed_is_step_and_the_last_token_needs_no_feed() {
        let params = setup();
        let sampler = SamplerConfig { temperature: 0.9, top_k: 4 };
        let expect = run_stepwise(&params, &[1, 2, 3], 6, &[0], sampler, Rng::seed_from(2));
        let mut sess = InferenceSession::new(params.cfg);
        sess.feed_prompt(&params, &[1, 2, 3]);
        let mut dec = StepDecoder::new(sampler, Rng::seed_from(2), vec![0], 6);
        let mut fed = 0;
        while let Some(next) = dec.sample(&sess) {
            if !dec.is_finished() {
                sess.feed(&params, next);
                fed += 1;
            }
        }
        assert_eq!(dec.tokens(), expect);
        // A run that ends on its budget fed every token but the last; one
        // that ends on a stop token fed all it emitted.
        assert_eq!(fed, expect.len() - usize::from(expect.len() == 6));
    }

    #[test]
    fn zero_budget_finishes_immediately() {
        let params = setup();
        let mut sess = InferenceSession::new(params.cfg);
        sess.feed(&params, 1);
        let mut dec = StepDecoder::new(SamplerConfig::greedy(), Rng::seed_from(1), vec![], 0);
        assert!(dec.is_finished());
        assert_eq!(dec.step(&params, &mut sess), None);
        assert!(dec.tokens().is_empty());
    }

    #[test]
    fn stops_at_capacity_without_panicking() {
        let params = setup();
        let cap = params.cfg.max_seq;
        let got = run_stepwise(
            &params,
            &[1, 2],
            cap * 2,
            &[],
            SamplerConfig::greedy(),
            Rng::seed_from(4),
        );
        assert!(got.len() <= cap - 2, "emitted {} of cap {cap}", got.len());
    }
}
