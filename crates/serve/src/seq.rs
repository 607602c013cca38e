//! The job lifecycle: one state machine, one driver.
//!
//! A [`Sequence`] takes one job — score or generate — from a prompt to its
//! [`SeqOutcome`]:
//!
//! 1. [`Sequence::start`] — consult the `serve.cache_full` fault hook, fork
//!    the deepest cached ancestor of the prompt into the sequence's session
//!    (or reset it), record the `cache_lookup` trace phase.
//! 2. [`Sequence::advance`], prefill — feed up to `prefill_chunk` prompt
//!    tokens, snapshotting the job's group anchor on the way past (the
//!    scheduler inserts the snapshot into the prefix cache after the step,
//!    [`Sequence::take_snapshot`]). A
//!    [`astro_model::SessionError::CacheFull`] restarts the sequence
//!    **once**, from position 0 and without the prefix cache
//!    (`serve.cache_full.retries`); the second one is the job's error. By
//!    the crate's determinism contract an uncached run is bit-identical to
//!    a cached one, so degradation never changes a result.
//! 3. `advance`, the call that completes prefill (also when a full-depth
//!    cache fork left nothing to feed) — record the `prefill` phase, then
//!    either apply the score readout and finish, or install the job's
//!    [`StepDecoder`].
//! 4. `advance`, decode — *sample* one token ([`StepDecoder::sample`]) and
//!    hand it back as [`Advance::Feed`]; the driver feeds the tokens of all
//!    its decoding sequences through one stacked forward
//!    ([`feed_sampled`]) before it calls again. The call after which
//!    nothing more would be sampled (budget spent, stop token, cache full)
//!    feeds nothing: it records the `decode` phase and returns the tokens.
//!
//! The one driver is the iteration scheduler ([`crate::scheduler`]): it
//! keeps a free list of sequences, calls `advance` once per active
//! sequence per step — on the stepping thread or on a step worker, each
//! with a [`ForkPool`] of its own to lend the readout and the feed — owns
//! the panic boundaries (one per sequence, one around the stacked feed),
//! inserts the step's anchor snapshots and records traced jobs' `admit`
//! phase. An offline batch runs on several of them at once
//! ([`crate::engine`]'s shards).

use crate::engine::{lock_cache, Job, ScoreReadout, SeqOutcome, ServeError};
use crate::trie::PrefixCache;
use astro_model::{InferenceSession, Lane, ModelConfig, Params, SessionError, StepDecoder};
use astro_telemetry::fault;
use astro_telemetry::sync::Mutex;
use astro_telemetry::{trace, TraceId};
use astro_tensor::ops::log_sum_exp;
use std::collections::HashMap;
use std::sync::Arc;

/// What the driver holds for the machine and lends it on every call: the
/// model, the shared prefix cache (`None` = caching off) and the
/// group-anchor targets.
pub(crate) struct SeqEnv {
    pub(crate) params: Arc<Params>,
    pub(crate) cache: Option<Arc<Mutex<PrefixCache>>>,
    pub(crate) anchors: HashMap<u64, Vec<u32>>,
}

/// One job in flight, plus the session it runs in. The session outlives
/// the job: `start` re-arms the same `Sequence` for the next one, so
/// the driver allocates no session per job.
pub(crate) struct Sequence {
    sess: InferenceSession,
    fed: usize,
    forked: usize,
    uncached: bool,
    /// The generate job's decoder once its prefill is complete; `None`
    /// before that, for score jobs and after the job finished.
    decode: Option<StepDecoder>,
    /// The group anchor's snapshot, taken on the way past and waiting for
    /// the scheduler to insert it into the prefix cache.
    snapshot: Option<Box<InferenceSession>>,
}

/// What one [`Sequence::advance`] call did.
pub(crate) enum Advance {
    /// Moved forward; nothing for the driver to do before the next call.
    Pending,
    /// Decoding: this token was sampled and is not yet in the session —
    /// the driver feeds it ([`feed_sampled`]) before the next call.
    Feed(u32),
    /// The job finished in this call.
    Done(Result<SeqOutcome, ServeError>),
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
            snapshot: None,
        }
    }

    /// True once the job's decoder is installed: its next `advance`
    /// samples a token instead of feeding its prompt.
    pub(crate) fn is_decoding(&self) -> bool {
        self.decode.is_some()
    }

    /// The forward rows the next `advance` of `job` runs before it
    /// decodes, as the scheduler estimates them to balance a step: the next
    /// prompt chunk, plus the readout's continuation rows when that chunk
    /// completes a score job's prompt.
    pub(crate) fn step_rows(&self, job: &Job, prefill_chunk: usize) -> usize {
        let left = job.prompt().len().saturating_sub(self.fed);
        let readout = match job {
            Job::Score(j) if left <= prefill_chunk => match &j.readout {
                ScoreReadout::ContinuationGroups(groups) => {
                    groups.iter().flatten().map(|cont| cont.len().saturating_sub(1)).sum()
                }
                ScoreReadout::LogitGroups(_) => 0,
            },
            _ => 0,
        };
        left.min(prefill_chunk) + readout
    }

    /// The anchor snapshot the last `advance` took, if any: the scheduler
    /// inserts it at `job.prompt()[..snapshot.position()]`.
    pub(crate) fn take_snapshot(&mut self) -> Option<Box<InferenceSession>> {
        self.snapshot.take()
    }

    /// Begin `job`: position the session at the deepest cached prefix of
    /// its prompt. Injected cache pressure behaves exactly like a
    /// first-attempt `CacheFull` — the sequence runs uncached.
    pub(crate) fn start(&mut self, env: &SeqEnv, job: &Job) {
        let ctx = job.trace();
        self.decode = None;
        self.uncached = false;
        if fault::should_fault("serve.cache_full") {
            if let Some(t) = ctx {
                trace::mark_fault(t, "serve.cache_full");
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
        if let Some(t) = ctx {
            trace::phase_since_last(t, "cache_lookup");
            trace::annotate(t, "cache", if self.forked > 0 { "hit" } else { "miss" });
            trace::record_num(t, "cached_tokens", self.forked as f64);
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
    /// `forks` is scratch for the score readout's continuation forks.
    pub(crate) fn advance(
        &mut self,
        env: &SeqEnv,
        job: &Job,
        forks: &mut ForkPool,
        prefill_chunk: usize,
    ) -> Advance {
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
                        return Advance::Done(Err(ServeError::Session(e)));
                    }
                    self.restart_uncached();
                    return Advance::Pending;
                }
                self.fed = end;
                // The scheduler inserts the snapshot after the step, in batch
                // order, so the cache's recency order does not depend on
                // which worker advanced which sequence first.
                if let Some((c, a)) = snapshot.filter(|(_, a)| self.fed == a.len()) {
                    let cached = {
                        let (_token, guard) = lock_cache(c);
                        guard.has_snapshot(a)
                    };
                    if !cached {
                        self.snapshot = Some(Box::new(self.sess.clone()));
                    }
                }
            }
            if self.fed < prompt.len() {
                return Advance::Pending;
            }
            astro_telemetry::counter("serve.tokens.encoded").add((prompt.len() - self.forked) as u64);
        }

        let Some(dec) = &mut self.decode else {
            if let Some(t) = ctx {
                trace::phase_since_last(t, "prefill");
                trace::record_num(t, "prompt_tokens", prompt.len() as f64);
            }
            let j = match job {
                // Score readouts are short (a handful of continuation
                // tokens per option): run the whole readout in the call
                // that completes the prefill rather than splitting it.
                Job::Score(j) => {
                    let scores = score_readout(&env.params, &self.sess, forks, &j.readout, ctx);
                    if let Some(t) = ctx {
                        trace::phase_since_last(t, "decode");
                    }
                    let scores = scores.map(SeqOutcome::Scores).map_err(ServeError::Session);
                    return Advance::Done(scores);
                }
                Job::Generate(j) => j,
            };
            self.decode = Some(StepDecoder::new(j.sampler, j.rng.clone(), j.stop.clone(), j.max_new));
            return Advance::Pending;
        };

        // A sampled token is fed only when another will be sampled after
        // it: the logits after the budget's last token are never read.
        // Every call emits a token or finishes, so a generate job ends
        // within `max_new` decode calls (one, when `max_new` is 0).
        if let Some(next) = dec.sample(&self.sess) {
            if !dec.is_finished() {
                return Advance::Feed(next);
            }
        }
        let tokens = self.decode.take().map(StepDecoder::into_tokens).unwrap_or_default();
        if let Some(t) = ctx {
            trace::phase_since_last(t, "decode");
            trace::record_num(t, "generated_tokens", tokens.len() as f64);
        }
        Advance::Done(Ok(SeqOutcome::Tokens(tokens)))
    }
}

/// The feeding half of a decode step, for all of a step's decoding
/// sequences at once: advance each session by the token its `advance`
/// sampled ([`Advance::Feed`]) through **one** stacked forward
/// ([`InferenceSession::try_feed_lanes`], one lane per sequence, each at
/// its own position), so every weight matrix is streamed once per step
/// instead of once per sequence. Each session ends bit for bit where
/// feeding it alone would have left it. The logit rows land in the pool's
/// scratch; every lane's own row is also its session's `last_logits`,
/// which is where the next `advance` samples from. A step with no
/// decoding sequence runs no forward.
pub(crate) fn feed_sampled<'a>(
    params: &Params,
    decoding: impl Iterator<Item = (&'a mut Sequence, &'a u32)>,
    pool: &mut ForkPool,
) -> Result<(), SessionError> {
    let mut lanes: Vec<Lane<'_>> = decoding
        .map(|(seq, tok)| Lane { session: &mut seq.sess, tokens: std::slice::from_ref(tok) })
        .collect();
    if lanes.is_empty() {
        return Ok(());
    }
    pool.rows.resize(lanes.len() * params.cfg.vocab_size, 0.0);
    // Cannot fail: `sample` hands back no token for a full session.
    InferenceSession::try_feed_lanes(params, &mut lanes, &mut pool.rows)?;
    astro_telemetry::counter("serve.decode.rows").add(lanes.len() as u64);
    astro_telemetry::counter("serve.decode.forwards").inc();
    Ok(())
}

/// What the driver lends the score readout and the decode feed for its
/// lifetime: the sessions a job's continuation variants are forked into
/// and the logit rows of a stacked forward (the readout's, or a step's
/// decode feed — never both at once). Both grow to the widest use seen and
/// are reused from then on.
#[derive(Default)]
pub(crate) struct ForkPool {
    forks: Vec<InferenceSession>,
    rows: Vec<f32>,
}

/// Apply a score readout after the prompt, producing the per-option score
/// vector.
fn score_readout(
    params: &Params,
    sess: &InferenceSession,
    pool: &mut ForkPool,
    readout: &ScoreReadout,
    ctx: Option<TraceId>,
) -> Result<Vec<f32>, SessionError> {
    match readout {
        ScoreReadout::ContinuationGroups(groups) => {
            let (scores, rows) = continuation_scores(params, sess, pool, groups)?;
            if let Some(t) = ctx {
                trace::record_num(t, "readout_rows", rows as f64);
            }
            Ok(scores)
        }
        ScoreReadout::LogitGroups(groups) => {
            let logits = sess.last_logits();
            let max_logit = |ids: &Vec<u32>| {
                ids.iter().fold(f32::NEG_INFINITY, |acc, &id| acc.max(logits[id as usize]))
            };
            Ok(groups.iter().map(max_logit).collect())
        }
    }
}

/// Per option, the max over its variants of the length-normalised
/// continuation log-likelihood after `sess` — and the number of rows fed
/// to get them. A variant's first token is read off the parent's last
/// logits; every variant with more countable tokens is forked
/// (`assign_from`) into the pool and all their remaining rows go through
/// **one** stacked forward ([`InferenceSession::try_feed_lanes`]), so the
/// weights are streamed once per job instead of once per continuation
/// token. A job of one-token variants forks and feeds nothing.
///
/// Replicates the serial reference (`astro_model::continuation_loglik`)
/// operation for operation: the same logits by the stacked forward's
/// contract, the same f64 accumulation, the same early stop on a full
/// cache — `counted = min(len, remaining)` tokens — and the same `-inf`
/// conventions; the suites diff the two bitwise.
fn continuation_scores(
    params: &Params,
    sess: &InferenceSession,
    pool: &mut ForkPool,
    groups: &[Vec<Vec<u32>>],
) -> Result<(Vec<f32>, usize), SessionError> {
    let vocab = params.cfg.vocab_size;
    let room = sess.remaining();
    // Tokens of `cont` that get a log-probability, and the rows that must
    // be fed for them: the logits after the last counted token are never
    // read.
    let counted = |cont: &[u32]| cont.len().min(room);
    let fed = |cont: &[u32]| counted(cont).saturating_sub(1);
    let stacked = || groups.iter().flatten().filter(|cont| fed(cont) > 0);
    let n_rows: usize = stacked().map(|cont| fed(cont)).sum();
    if n_rows > 0 {
        let n_lanes = stacked().count();
        // A lent pool may last have served another model.
        pool.forks.retain(|f| f.config() == &params.cfg);
        while pool.forks.len() < n_lanes {
            pool.forks.push(InferenceSession::new(params.cfg));
        }
        pool.rows.resize(n_rows * vocab, 0.0);
        let mut lanes: Vec<Lane<'_>> = pool
            .forks
            .iter_mut()
            .zip(stacked())
            .map(|(session, cont)| {
                session.assign_from(sess);
                Lane { session, tokens: &cont[..fed(cont)] }
            })
            .collect();
        // Cannot fail: every lane was cut to the parent's `remaining()`.
        InferenceSession::try_feed_lanes(params, &mut lanes, &mut pool.rows)?;
        astro_telemetry::counter("serve.readout.rows").add(n_rows as u64);
        astro_telemetry::counter("serve.readout.forwards").inc();
    }

    let log_prob = |logits: &[f32], lse: f32, tok: u32| (logits[tok as usize] - lse) as f64;
    let first = sess.last_logits();
    let first_lse = log_sum_exp(first);
    let mut row = 0;
    let scores = groups
        .iter()
        .map(|variants| {
            let mut s = f32::NEG_INFINITY;
            for cont in variants {
                let counted = counted(cont);
                let mut loglik = f32::NEG_INFINITY;
                if counted > 0 {
                    let mut ll = 0.0f64;
                    ll += log_prob(first, first_lse, cont[0]);
                    for &tok in &cont[1..counted] {
                        let logits = &pool.rows[row * vocab..(row + 1) * vocab];
                        ll += log_prob(logits, log_sum_exp(logits), tok);
                        row += 1;
                    }
                    loglik = (ll / counted as f64) as f32;
                }
                s = s.max(loglik);
            }
            s
        })
        .collect();
    Ok((scores, n_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_model::{continuation_loglik, WeightPrecision};
    use astro_prng::Rng;

    const VOCAB: usize = 24;

    impl Sequence {
        /// Swap in a foreign session — how the scheduler's tests make a
        /// stacked feed panic (`forward_rows` asserts that its lanes share
        /// one `ModelConfig`) without a fault site.
        pub(crate) fn plant_session(&mut self, sess: InferenceSession) {
            self.sess = sess;
        }
    }

    fn params(precision: WeightPrecision) -> Params {
        let p = Params::init(ModelConfig::tiny(VOCAB), &mut Rng::seed_from(31));
        match precision {
            WeightPrecision::F32 => p,
            WeightPrecision::Int8 => p.quantized(),
        }
    }

    /// A session `prompt_len` tokens deep.
    fn parent(p: &Params, prompt_len: usize) -> InferenceSession {
        let mut sess = InferenceSession::new(p.cfg);
        let prompt: Vec<u32> = (0..prompt_len).map(|i| (i * 7 % VOCAB) as u32).collect();
        sess.try_feed_prompt(p, &prompt).unwrap();
        sess
    }

    /// The serial oracle, one `feed` per continuation token.
    fn serial_bits(p: &Params, sess: &InferenceSession, groups: &[Vec<Vec<u32>>]) -> Vec<u32> {
        groups
            .iter()
            .map(|variants| {
                let mut s = f32::NEG_INFINITY;
                for cont in variants {
                    s = s.max(continuation_loglik(p, sess, cont));
                }
                s.to_bits()
            })
            .collect()
    }

    /// The stacked readout through a pool that has already served a job of
    /// another shape; returns the score bits and the rows it fed.
    fn stacked_bits(
        p: &Params,
        sess: &InferenceSession,
        pool: &mut ForkPool,
        groups: &[Vec<Vec<u32>>],
    ) -> (Vec<u32>, usize) {
        let (scores, rows) = continuation_scores(p, sess, pool, groups).unwrap();
        (scores.iter().map(|s| s.to_bits()).collect(), rows)
    }

    #[test]
    fn stacked_readout_is_bitwise_the_serial_oracle_on_every_edge() {
        for precision in [WeightPrecision::F32, WeightPrecision::Int8] {
            let p = params(precision);
            let max_seq = p.cfg.max_seq;
            let mut pool = ForkPool::default();
            let neg_inf = f32::NEG_INFINITY.to_bits();

            // No groups; groups without variants or with only empty ones;
            // one-token variants only: nothing is forked or fed.
            let sess = parent(&p, 9);
            let one_token: Vec<Vec<Vec<u32>>> =
                vec![vec![], vec![vec![]], vec![vec![3]], vec![vec![5], vec![], vec![7]]];
            for groups in [Vec::new(), one_token] {
                let (got, rows) = stacked_bits(&p, &sess, &mut pool, &groups);
                assert_eq!(got, serial_bits(&p, &sess, &groups), "{precision:?} {groups:?}");
                assert_eq!((rows, pool.forks.len()), (0, 0), "{precision:?}: forked for {groups:?}");
            }
            assert_eq!(stacked_bits(&p, &sess, &mut pool, &[vec![], vec![vec![]]]).0, [neg_inf; 2]);

            // 1–12 variants of mixed length (0–6 tokens) at assorted
            // depths, through one pool: it grows, then serves narrower jobs.
            for case in 0..48u64 {
                let mut rng = Rng::seed_from(0x5c0e ^ case);
                let sess = parent(&p, rng.range(1, max_seq - 6));
                let mut variants = rng.range(1, 13);
                let mut groups: Vec<Vec<Vec<u32>>> = Vec::new();
                while variants > 0 {
                    let n = rng.range(0, variants + 1).min(3);
                    let group = (0..n)
                        .map(|_| (0..rng.range(0, 7)).map(|_| rng.index(VOCAB) as u32).collect())
                        .collect();
                    groups.push(group);
                    variants -= n.max(1);
                }
                let (got, rows) = stacked_bits(&p, &sess, &mut pool, &groups);
                assert_eq!(got, serial_bits(&p, &sess, &groups), "{precision:?} case {case}: {groups:?}");
                let want_rows: usize =
                    groups.iter().flatten().map(|cont| cont.len().saturating_sub(1)).sum();
                assert_eq!(rows, want_rows, "{precision:?} case {case}");
            }

            // Variants that run into `max_seq` mid-continuation: with room
            // for r tokens a longer variant counts r of them and feeds r − 1.
            let long: Vec<Vec<Vec<u32>>> =
                vec![vec![vec![1, 2, 3, 4, 5], vec![6]], vec![vec![7, 8], vec![9, 10, 11]]];
            for room in [3, 2, 1] {
                let sess = parent(&p, max_seq - room);
                let (got, rows) = stacked_bits(&p, &sess, &mut pool, &long);
                assert_eq!(got, serial_bits(&p, &sess, &long), "{precision:?} room {room}");
                let want_rows: usize =
                    long.iter().flatten().map(|cont| cont.len().min(room) - 1).sum();
                assert_eq!(rows, want_rows, "{precision:?} room {room}");
            }

            // A full parent: nothing can be counted, every option is -inf.
            let sess = parent(&p, max_seq);
            let (got, rows) = stacked_bits(&p, &sess, &mut pool, &long);
            assert_eq!(got, serial_bits(&p, &sess, &long));
            assert_eq!((got, rows), (vec![neg_inf; 2], 0), "{precision:?} full parent");
        }
    }
}
