//! The job lifecycle: one state machine, driven two ways.
//!
//! A [`Sequence`] takes one job — score or generate — from a prompt to its
//! [`SeqOutcome`]:
//!
//! 1. [`Sequence::start`] — consult the `serve.cache_full` fault hook, fork
//!    the deepest cached ancestor of the prompt into the sequence's session
//!    (or reset it), record the `cache_lookup` trace phase.
//! 2. [`Sequence::advance`], prefill — feed up to `prefill_chunk` prompt
//!    tokens, snapshotting the job's group anchor into the prefix cache on
//!    the way past. A [`astro_model::SessionError::CacheFull`] restarts the
//!    sequence **once**, from position 0 and without the prefix cache
//!    (`serve.cache_full.retries`); the second one is the job's error. By
//!    the crate's determinism contract an uncached run is bit-identical to
//!    a cached one, so degradation never changes a result.
//! 3. `advance`, the call that completes prefill (also when a full-depth
//!    cache fork left nothing to feed) — record the `prefill` phase, then
//!    either apply the score readout and finish, or install the job's
//!    [`StepDecoder`].
//! 4. `advance`, decode — one token ([`StepDecoder::step`]) per call; the
//!    last one records the `decode` phase and returns the tokens.
//!
//! The two drivers differ only in how they call it. A pool worker
//! ([`crate::engine`]) owns one `Sequence` for its lifetime and runs each
//! job to completion with an unbounded prefill chunk; the iteration
//! scheduler ([`crate::scheduler`]) keeps a free list of them and calls
//! `advance` once per active sequence per step. Each driver owns its
//! waiting phase (`exec_wait` / `admit`), its span, its panic boundary and
//! the fork scratch session it lends to the readout.

use crate::engine::{lock_cache, Job, ScoreReadout, SeqOutcome, ServeError};
use crate::trie::PrefixCache;
use astro_model::{InferenceSession, ModelConfig, Params, StepDecoder};
use astro_resilience::fault;
use astro_telemetry::sync::Mutex;
use astro_telemetry::trace;
use std::collections::HashMap;
use std::sync::Arc;

/// What a driver holds for the machine and lends it on every call: the
/// model, the shared prefix cache (`None` = caching off) and the
/// group-anchor targets.
pub(crate) struct SeqEnv {
    pub(crate) params: Arc<Params>,
    pub(crate) cache: Option<Arc<Mutex<PrefixCache>>>,
    pub(crate) anchors: HashMap<u64, Vec<u32>>,
}

/// One job in flight, plus the session it runs in. The session outlives
/// the job: `start` re-arms the same `Sequence` for the next one, so
/// neither driver allocates a session per job.
pub(crate) struct Sequence {
    sess: InferenceSession,
    fed: usize,
    forked: usize,
    uncached: bool,
    /// The generate job's decoder once its prefill is complete; `None`
    /// before that, for score jobs and after the job finished.
    decode: Option<StepDecoder>,
}

impl Sequence {
    /// An idle sequence with a fresh session.
    pub(crate) fn new(cfg: ModelConfig) -> Self {
        Sequence {
            sess: InferenceSession::new(cfg),
            fed: 0,
            forked: 0,
            uncached: false,
            decode: None,
        }
    }

    /// Begin `job`: position the session at the deepest cached prefix of
    /// its prompt. Injected cache pressure behaves exactly like a
    /// first-attempt `CacheFull` — the sequence runs uncached.
    pub(crate) fn start(&mut self, env: &SeqEnv, job: &Job) {
        let ctx = job.trace();
        self.decode = None;
        self.uncached = false;
        if fault::should_fault("serve.cache_full") {
            if let Some(c) = ctx {
                trace::mark_fault(c.trace, "serve.cache_full");
            }
            self.restart_uncached();
        } else {
            let depth = match &env.cache {
                Some(c) => {
                    let (_token, mut guard) = lock_cache(c);
                    guard.fork_into(&mut self.sess, job.prompt())
                }
                None => {
                    self.sess.reset();
                    0
                }
            };
            self.fed = depth;
            self.forked = depth;
        }
        if let Some(c) = ctx {
            trace::phase_since_last(c.trace, "cache_lookup");
            trace::annotate(c.trace, "cache", if self.forked > 0 { "hit" } else { "miss" });
            trace::record_num(c.trace, "cached_tokens", self.forked as f64);
        }
    }

    /// The one uncached retry: back to position 0, no forks, no inserts.
    fn restart_uncached(&mut self) {
        astro_telemetry::counter("serve.cache_full.retries").inc();
        self.sess.reset();
        self.fed = 0;
        self.forked = 0;
        self.uncached = true;
    }

    /// Move the job forward one unit of work (see the module docs).
    /// Returns `Some(result)` when the job finishes in this call. `fork`
    /// is scratch for the score readout's continuation forks.
    pub(crate) fn advance(
        &mut self,
        env: &SeqEnv,
        job: &Job,
        fork: &mut InferenceSession,
        prefill_chunk: usize,
    ) -> Option<Result<SeqOutcome, ServeError>> {
        let prompt = job.prompt();
        assert!(!prompt.is_empty(), "engine jobs require a non-empty prompt");
        let ctx = job.trace();

        if self.fed < prompt.len() {
            let anchor = job
                .group()
                .and_then(|g| env.anchors.get(&g))
                .filter(|a| prompt.starts_with(a));
            // The anchor is snapshotted for the rest of the group, unless
            // this run is the uncached retry.
            let snapshot = match (&env.cache, self.uncached) {
                (Some(c), false) => anchor.map(|a| (c, a)),
                _ => None,
            };
            let target = self.fed.saturating_add(prefill_chunk).min(prompt.len());
            while self.fed < target {
                // A stretch that would cross the anchor ends exactly on
                // it: the snapshot is of the anchor and nothing more.
                let end = match snapshot {
                    Some((_, a)) if self.fed < a.len() => target.min(a.len()),
                    _ => target,
                };
                if let Err(e) = self.sess.try_feed_prompt(&env.params, &prompt[self.fed..end]) {
                    if self.uncached {
                        return Some(Err(ServeError::Session(e)));
                    }
                    self.restart_uncached();
                    return None;
                }
                self.fed = end;
                // Raced and replayed inserts are idempotent (`insert`
                // refuses duplicates).
                if let Some((c, a)) = snapshot {
                    if self.fed == a.len() {
                        let (_token, mut guard) = lock_cache(c);
                        if !guard.has_snapshot(a) {
                            guard.insert(a, &self.sess, false);
                        }
                    }
                }
            }
            if self.fed < prompt.len() {
                return None;
            }
            astro_telemetry::counter("serve.tokens.encoded").add((prompt.len() - self.forked) as u64);
        }

        let Some(dec) = &mut self.decode else {
            if let Some(c) = ctx {
                trace::phase_since_last(c.trace, "prefill");
                trace::record_num(c.trace, "prompt_tokens", prompt.len() as f64);
            }
            let j = match job {
                // Score readouts are short (a handful of continuation
                // tokens per option): run the whole readout in the call
                // that completes the prefill rather than splitting it.
                Job::Score(j) => {
                    let scores = score_readout(&env.params, &self.sess, fork, &j.readout);
                    if let Some(c) = ctx {
                        trace::phase_since_last(c.trace, "decode");
                    }
                    return Some(Ok(SeqOutcome::Scores(scores)));
                }
                Job::Generate(j) => j,
            };
            self.decode = Some(StepDecoder::new(j.sampler, j.rng.clone(), j.stop.clone(), j.max_new));
            return None;
        };

        // Every step makes progress (emits a token or finishes), so a
        // generate job ends within `max_new + 1` calls.
        if dec.step(&env.params, &mut self.sess).is_some() {
            return None;
        }
        let tokens = self.decode.take().map(StepDecoder::into_tokens).unwrap_or_default();
        if let Some(c) = ctx {
            trace::phase_since_last(c.trace, "decode");
            trace::record_num(c.trace, "generated_tokens", tokens.len() as f64);
        }
        Some(Ok(SeqOutcome::Tokens(tokens)))
    }
}

/// Apply a score readout after the prompt, producing the per-option score
/// vector.
fn score_readout(
    params: &Params,
    sess: &InferenceSession,
    fork: &mut InferenceSession,
    readout: &ScoreReadout,
) -> Vec<f32> {
    match readout {
        ScoreReadout::ContinuationGroups(groups) => groups
            .iter()
            .map(|variants| {
                let mut s = f32::NEG_INFINITY;
                for cont in variants {
                    s = s.max(continuation_loglik(params, sess, fork, cont));
                }
                s
            })
            .collect(),
        ScoreReadout::LogitGroups(groups) => {
            let logits = sess.last_logits();
            groups
                .iter()
                .map(|ids| {
                    ids.iter()
                        .fold(f32::NEG_INFINITY, |acc, &id| acc.max(logits[id as usize]))
                })
                .collect()
        }
    }
}

/// Length-normalised log-likelihood of `continuation` from a fork of
/// `sess`, written into the reusable `fork` scratch session. Replicates
/// the serial reference (`astro-eval`'s `continuation_loglik`) operation
/// for operation: same f64 accumulation, same early-stop on a full cache,
/// same `-inf` conventions — the parity suite diffs the two bitwise.
pub(crate) fn continuation_loglik(
    params: &Params,
    sess: &InferenceSession,
    fork: &mut InferenceSession,
    continuation: &[u32],
) -> f32 {
    if continuation.is_empty() {
        return f32::NEG_INFINITY;
    }
    fork.assign_from(sess);
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
