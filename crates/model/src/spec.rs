//! Speculative decoding: draft with a small model, verify with the big
//! one.
//!
//! One [`SpecDecoder::round`] drafts up to `k` tokens from the draft
//! model (one cheap step each), then verifies the whole chunk with the
//! target model in a *single* chunked-prefill step
//! ([`InferenceSession::try_feed_chunk`]), which amortises the target's
//! weight traffic across the chunk. Accepted tokens cost one target
//! chunk row instead of one full target step; mismatches roll both
//! sessions back with [`InferenceSession::truncate`] and emit the
//! target's own correction token, so a round always makes progress.
//!
//! Correctness is exact, not approximate:
//!
//! * **Greedy** (`temperature == 0`): a drafted token is accepted iff it
//!   equals the target's argmax at that position, and the chunk logits
//!   are bitwise-identical to sequential feeds — so the emitted sequence
//!   is bitwise-identical to [`StepDecoder`](crate::StepDecoder) on the
//!   target alone, token for token, including stop / budget / capacity
//!   edges. The test suite asserts this for every path.
//! * **Stochastic** (`temperature > 0`): drafted tokens go through the
//!   accept-or-resample rule of `astro_quant::reject`, which provably
//!   preserves the target's sampling distribution at every position
//!   (`crates/quant/tests/reject_exact.rs`).
//!
//! Any speedup comes from pairing speculation with the int8 target path:
//! verification reuses the blocked int8 chunk matmul, whose per-token
//! cost is below a single-token step (`model.chunk4_tokens_per_s.s70b_int8`
//! against `model.decode_tokens_per_s.s70b_int8` in `bench/`).

use crate::sample::{argmax, sample_logits, SamplerConfig};
use crate::{InferenceSession, Params};
use astro_prng::Rng;
use astro_quant::{accept_or_resample, pmf, SpecOutcome};

/// Resumable speculative decode state for one sequence.
///
/// Mirrors [`StepDecoder`](crate::StepDecoder)'s contract — construct
/// after the prompt has been fed to *both* sessions (same tokens, same
/// tokenizer), then call [`SpecDecoder::round`] until
/// [`SpecDecoder::is_finished`]. The target and draft sessions must
/// start at the same position.
#[derive(Clone, Debug)]
pub struct SpecDecoder {
    sampler: SamplerConfig,
    rng: Rng,
    stop: Vec<u32>,
    max_new: usize,
    k: usize,
    emitted: Vec<u32>,
    finished: bool,
    /// Set once the draft session runs out of KV capacity; later rounds
    /// degrade to plain single-token target steps.
    draft_dead: bool,
    drafted: usize,
    accepted: usize,
    rounds: usize,
}

impl SpecDecoder {
    /// Decode state for one sequence; `k` is the draft length per round.
    /// `rng` must be the job's pre-split stream so results are
    /// independent of scheduling order.
    pub fn new(sampler: SamplerConfig, rng: Rng, stop: Vec<u32>, max_new: usize, k: usize) -> Self {
        assert!(k >= 1, "draft length k must be at least 1");
        SpecDecoder {
            sampler,
            rng,
            stop,
            max_new,
            k,
            emitted: Vec::with_capacity(max_new),
            finished: max_new == 0,
            draft_dead: false,
            drafted: 0,
            accepted: 0,
            rounds: 0,
        }
    }

    /// One speculative round: draft up to `k` tokens with `(dp, dsess)`,
    /// verify them in one chunked target step on `(tp, tsess)`, emit
    /// every accepted token plus either the correction or the bonus
    /// token. Returns how many tokens were emitted this round (0 when
    /// the sequence finished).
    pub fn round(
        &mut self,
        tp: &Params,
        tsess: &mut InferenceSession,
        dp: &Params,
        dsess: &mut InferenceSession,
    ) -> usize {
        if self.finished {
            return 0;
        }
        self.rounds += 1;
        if tsess.remaining() == 0 {
            self.finished = true;
            return 0;
        }
        if self.draft_dead || dsess.remaining() == 0 {
            self.draft_dead = true;
            return self.step_one(tp, tsess, None);
        }
        assert_eq!(
            tsess.position(),
            dsess.position(),
            "draft/target sessions out of sync"
        );
        let budget = self.max_new - self.emitted.len();
        let k_eff = self
            .k
            .min(budget)
            .min(tsess.remaining())
            .min(dsess.remaining());
        // budget ≥ 1 (else `finished`), both remainings ≥ 1 → k_eff ≥ 1.
        let p0 = tsess.position();
        let d0 = dsess.position();

        // Draft k_eff tokens, remembering the draft logits *before* each
        // feed — the distribution each draft was sampled from, needed
        // both for stochastic rejection and for session rollback.
        let mut drafts: Vec<u32> = Vec::with_capacity(k_eff);
        let mut dlogits: Vec<Vec<f32>> = Vec::with_capacity(k_eff);
        for _ in 0..k_eff {
            let dl = dsess.last_logits().to_vec();
            let cand = sample_logits(&dl, &self.sampler, &mut self.rng) as u32;
            dlogits.push(dl);
            drafts.push(cand);
            // Drafted stop tokens are fed too: positions past a drafted
            // stop are never consulted (the stop is either accepted —
            // finishing the sequence — or rejected, breaking the chain),
            // and truncating the draft here would bias the stochastic
            // acceptance rule away from the exact draft distribution.
            dsess.feed(dp, cand);
        }
        let m = drafts.len();
        self.drafted += m;

        // Verify the whole chunk in one target step.
        let entry_logits = tsess.last_logits().to_vec();
        let v = tsess.config().vocab_size;
        let rows = match tsess.try_feed_chunk(tp, &drafts) {
            Ok(rows) => rows,
            // Unreachable by construction (k_eff ≤ remaining); treat a
            // capacity surprise as end-of-sequence rather than panicking.
            Err(_) => {
                self.finished = true;
                return 0;
            }
        };
        // Target logits after consuming i drafted tokens.
        let tlogit = |i: usize| -> &[f32] {
            if i == 0 {
                &entry_logits
            } else {
                &rows[(i - 1) * v..i * v]
            }
        };

        let mut emitted_now = 0usize;
        for i in 0..m {
            // What the target would emit at this position: the argmax
            // under greedy, or the accept-or-resample outcome (which is
            // exactly target-distributed) under temperature sampling.
            let next = if self.sampler.temperature <= 0.0 {
                argmax(tlogit(i)) as u32
            } else {
                let pt = pmf(tlogit(i), self.sampler.temperature, self.sampler.top_k);
                let qd = pmf(&dlogits[i], self.sampler.temperature, self.sampler.top_k);
                match accept_or_resample(&pt, &qd, drafts[i] as usize, &mut self.rng) {
                    SpecOutcome::Accepted => drafts[i],
                    SpecOutcome::Resampled(tok) => tok as u32,
                }
            };
            if self.stop.contains(&next) {
                self.finished = true;
                tsess.truncate(p0 + i, tlogit(i));
                dsess.truncate(d0 + i, &dlogits[i]);
                return emitted_now;
            }
            if next == drafts[i] {
                // Accepted: the draft matches the target's own choice.
                self.accepted += 1;
                self.emitted.push(next);
                emitted_now += 1;
                if self.emitted.len() >= self.max_new {
                    self.finished = true;
                    if i + 1 < m {
                        tsess.truncate(p0 + i + 1, tlogit(i + 1));
                        dsess.truncate(d0 + i + 1, &dlogits[i + 1]);
                    }
                    return emitted_now;
                }
                continue;
            }
            // Rejected: emit the target's correction and roll both
            // sessions back to the accepted prefix.
            self.emitted.push(next);
            emitted_now += 1;
            tsess.truncate(p0 + i, tlogit(i));
            tsess.feed(tp, next);
            dsess.truncate(d0 + i, &dlogits[i]);
            dsess.feed(dp, next);
            if self.emitted.len() >= self.max_new {
                self.finished = true;
            }
            return emitted_now;
        }
        // Every draft accepted: the final chunk row is a free extra
        // distribution — sample the bonus token from it, mirroring the
        // plain decoder's capacity check first.
        if tsess.remaining() == 0 {
            self.finished = true;
            return emitted_now;
        }
        let bonus = sample_logits(tlogit(m), &self.sampler, &mut self.rng) as u32;
        if self.stop.contains(&bonus) {
            self.finished = true;
            return emitted_now;
        }
        self.emitted.push(bonus);
        emitted_now += 1;
        tsess.feed(tp, bonus);
        if dsess.remaining() == 0 {
            self.draft_dead = true;
        } else {
            dsess.feed(dp, bonus);
        }
        if self.emitted.len() >= self.max_new {
            self.finished = true;
        }
        emitted_now
    }

    /// Degraded round: one plain target step with no drafting, keeping
    /// the draft session in sync. The serving engine switches to this
    /// under the `quant.spec_reject_storm` fault — output is unchanged
    /// (it is exactly one `StepDecoder` step), only throughput drops.
    pub fn single_round(
        &mut self,
        tp: &Params,
        tsess: &mut InferenceSession,
        dp: &Params,
        dsess: &mut InferenceSession,
    ) -> usize {
        if self.finished {
            return 0;
        }
        self.rounds += 1;
        if self.draft_dead {
            return self.step_one(tp, tsess, None);
        }
        self.step_one(tp, tsess, Some((dp, dsess)))
    }

    /// One `StepDecoder`-equivalent step on the target, optionally
    /// feeding the emitted token to the draft session to keep it in
    /// lockstep.
    fn step_one(
        &mut self,
        tp: &Params,
        tsess: &mut InferenceSession,
        draft: Option<(&Params, &mut InferenceSession)>,
    ) -> usize {
        if tsess.remaining() == 0 {
            self.finished = true;
            return 0;
        }
        let next = sample_logits(tsess.last_logits(), &self.sampler, &mut self.rng) as u32;
        if self.stop.contains(&next) {
            self.finished = true;
            return 0;
        }
        self.emitted.push(next);
        tsess.feed(tp, next);
        if let Some((dp, dsess)) = draft {
            if dsess.remaining() == 0 {
                self.draft_dead = true;
            } else {
                dsess.feed(dp, next);
            }
        }
        if self.emitted.len() >= self.max_new {
            self.finished = true;
        }
        1
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

    /// Total drafted tokens across all rounds.
    pub fn drafted(&self) -> usize {
        self.drafted
    }

    /// Drafted tokens the target accepted.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Acceptance rate over all drafted tokens (0 when nothing was
    /// drafted yet).
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }

    /// Rounds run so far (speculative and degraded).
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, StepDecoder, WeightPrecision};

    fn reference_decode(
        tp: &Params,
        prompt: &[u32],
        max_new: usize,
        stop: &[u32],
        sampler: SamplerConfig,
        rng: Rng,
    ) -> Vec<u32> {
        let mut sess = InferenceSession::new(tp.cfg);
        for &t in prompt {
            sess.feed(tp, t);
        }
        let mut dec = StepDecoder::new(sampler, rng, stop.to_vec(), max_new);
        while dec.step(tp, &mut sess).is_some() {}
        dec.into_tokens()
    }

    #[allow(clippy::too_many_arguments)]
    fn spec_decode(
        tp: &Params,
        dp: &Params,
        prompt: &[u32],
        max_new: usize,
        stop: &[u32],
        sampler: SamplerConfig,
        rng: Rng,
        k: usize,
    ) -> SpecDecoder {
        let mut tsess = InferenceSession::new(tp.cfg);
        let mut dsess = InferenceSession::new(dp.cfg);
        for &t in prompt {
            tsess.feed(tp, t);
            if dsess.remaining() > 0 {
                dsess.feed(dp, t);
            }
        }
        let mut dec = SpecDecoder::new(sampler, rng, stop.to_vec(), max_new, k);
        while !dec.is_finished() {
            dec.round(tp, &mut tsess, dp, &mut dsess);
        }
        dec
    }

    #[test]
    fn greedy_spec_equals_step_decoder_bitwise() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(21));
        // A *different* model as draft: plenty of rejections exercise the
        // correction/rollback path.
        let dp = Params::init(cfg, &mut Rng::seed_from(99));
        let want = reference_decode(
            &tp,
            &[1, 2, 3],
            12,
            &[0],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
        );
        for k in [1usize, 2, 4] {
            let dec = spec_decode(
                &tp,
                &dp,
                &[1, 2, 3],
                12,
                &[0],
                SamplerConfig::greedy(),
                Rng::seed_from(1),
                k,
            );
            assert_eq!(dec.tokens(), &want[..], "k={k}");
        }
    }

    #[test]
    fn greedy_spec_equals_step_decoder_at_capacity_edge() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(22));
        let dp = Params::init(cfg, &mut Rng::seed_from(23));
        // Budget far beyond capacity: the decode must stop exactly where
        // the plain decoder stops.
        let want = reference_decode(
            &tp,
            &[1, 2],
            cfg.max_seq * 2,
            &[],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
        );
        for k in [1usize, 3, 4] {
            let dec = spec_decode(
                &tp,
                &dp,
                &[1, 2],
                cfg.max_seq * 2,
                &[],
                SamplerConfig::greedy(),
                Rng::seed_from(1),
                k,
            );
            assert_eq!(dec.tokens(), &want[..], "k={k}");
        }
    }

    #[test]
    fn self_draft_accepts_everything() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(24));
        let want = reference_decode(
            &tp,
            &[3, 1],
            10,
            &[],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
        );
        // Drafting with the target itself: every draft must be accepted,
        // and each round advances k accepted + 1 bonus tokens.
        let dec = spec_decode(
            &tp,
            &tp,
            &[3, 1],
            10,
            &[],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
            4,
        );
        assert_eq!(dec.tokens(), &want[..]);
        assert_eq!(dec.accepted(), dec.drafted(), "self-draft must fully accept");
        assert!(dec.acceptance_rate() > 0.99);
        assert!(
            dec.rounds() <= want.len().div_ceil(5) + 1,
            "{} rounds for {} tokens",
            dec.rounds(),
            want.len()
        );
    }

    #[test]
    fn greedy_spec_equals_step_decoder_on_int8_target() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(25)).quantized();
        assert_eq!(tp.cfg.precision, WeightPrecision::Int8);
        let dp = Params::init(ModelConfig::tiny(16), &mut Rng::seed_from(26));
        let want = reference_decode(
            &tp,
            &[1, 2, 3],
            12,
            &[0],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
        );
        let dec = spec_decode(
            &tp,
            &dp,
            &[1, 2, 3],
            12,
            &[0],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
            3,
        );
        assert_eq!(dec.tokens(), &want[..]);
    }

    #[test]
    fn degraded_single_rounds_equal_step_decoder() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(27));
        let dp = Params::init(cfg, &mut Rng::seed_from(28));
        let want = reference_decode(
            &tp,
            &[2, 4],
            8,
            &[0],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
        );
        let mut tsess = InferenceSession::new(cfg);
        let mut dsess = InferenceSession::new(cfg);
        for &t in &[2u32, 4] {
            tsess.feed(&tp, t);
            dsess.feed(&dp, t);
        }
        // Permanent reject-storm: every round degraded.
        let mut dec = SpecDecoder::new(SamplerConfig::greedy(), Rng::seed_from(1), vec![0], 8, 4);
        while !dec.is_finished() {
            dec.single_round(&tp, &mut tsess, &dp, &mut dsess);
        }
        assert_eq!(dec.tokens(), &want[..]);
        assert_eq!(dec.drafted(), 0, "degraded rounds must not draft");
    }

    #[test]
    fn draft_capacity_exhaustion_degrades_not_breaks() {
        // The draft session is much smaller than the target; once it
        // fills up, rounds degrade to plain steps and the output still
        // matches the plain decoder exactly.
        let tcfg = ModelConfig::tiny(16);
        let dcfg = ModelConfig {
            max_seq: 6,
            ..ModelConfig::tiny(16)
        };
        let tp = Params::init(tcfg, &mut Rng::seed_from(29));
        let dp = Params::init(dcfg, &mut Rng::seed_from(30));
        let want = reference_decode(
            &tp,
            &[1, 2],
            20,
            &[],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
        );
        let dec = spec_decode(
            &tp,
            &dp,
            &[1, 2],
            20,
            &[],
            SamplerConfig::greedy(),
            Rng::seed_from(1),
            3,
        );
        assert_eq!(dec.tokens(), &want[..]);
    }

    #[test]
    fn stochastic_spec_is_deterministic_and_bounded() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(31));
        let dp = Params::init(cfg, &mut Rng::seed_from(32));
        let sampler = SamplerConfig {
            temperature: 0.9,
            top_k: 4,
        };
        let a = spec_decode(&tp, &dp, &[1, 2], 10, &[0], sampler, Rng::seed_from(7), 3);
        let b = spec_decode(&tp, &dp, &[1, 2], 10, &[0], sampler, Rng::seed_from(7), 3);
        assert_eq!(a.tokens(), b.tokens(), "same seed must reproduce");
        assert!(a.tokens().len() <= 10);
        assert!(a.tokens().iter().all(|&t| (t as usize) < 16));
        assert!(!a.tokens().contains(&0), "stop token must not be emitted");
    }

    #[test]
    fn zero_budget_finishes_immediately() {
        let cfg = ModelConfig::tiny(16);
        let tp = Params::init(cfg, &mut Rng::seed_from(33));
        let mut tsess = InferenceSession::new(cfg);
        let mut dsess = InferenceSession::new(cfg);
        tsess.feed(&tp, 1);
        dsess.feed(&tp, 1);
        let mut dec = SpecDecoder::new(SamplerConfig::greedy(), Rng::seed_from(1), vec![], 0, 2);
        assert!(dec.is_finished());
        assert_eq!(dec.round(&tp, &mut tsess, &tp, &mut dsess), 0);
        assert!(dec.tokens().is_empty());
    }
}
