//! The batched evaluation engine.
//!
//! [`EvalEngine`] executes a batch of independent jobs — continuation /
//! logit **scoring** ([`ScoreJob`]) or free **generation** ([`GenerateJob`])
//! — on scheduler *shards* over one shared prefix cache:
//!
//! 1. Before dispatch, the longest common token prefix of the whole batch
//!    (in practice: the two-shot preamble) is encoded once and **pinned**
//!    in the prefix cache. Per-group common prefixes (questions about the
//!    same article) are recorded as anchor targets.
//! 2. Each shard — a queue of the process's one runner
//!    (`astro_telemetry::cores::run`), the caller being the first — steps its
//!    own [`IterScheduler`] over the engine's shared parameters, trie and
//!    anchors, and claims jobs off the batch's shared atomic cursor: **at
//!    most one per step, while it has a free slot**. Every job runs the
//!    job lifecycle ([`crate::seq`]): fork the deepest cached snapshot,
//!    encode only the unshared tail, snapshot the group anchor on the way
//!    past so later same-group jobs skip it too, then read out or decode —
//!    and a shard's decoding jobs share one stacked forward per step.
//! 3. A prompt that exceeds the KV cache is retried once without the
//!    prefix cache, then surfaces as that job's
//!    `Err(ServeError::Session(SessionError::CacheFull))`; a panicking job
//!    surfaces as `Err(ServeError::WorkerPanic)`. The rest of the batch is
//!    unaffected either way.
//! 4. When the batch returns, the batch anchor's pin is released: the
//!    snapshot stays cached but is evictable again, so a long-lived engine
//!    holds at most its budget of snapshots however many batches it serves.
//!
//! Results are returned in job order regardless of completion order, and
//! are bit-identical to running each job in a fresh session (see the
//! crate-level determinism contract).

use crate::scheduler::{IterScheduler, SchedulerConfig};
use crate::seq::SeqEnv;
use crate::trie::{CacheStats, PrefixCache};
use crate::EngineConfig;
use astro_model::{InferenceSession, ModelConfig, Params, SamplerConfig, SessionError};
use astro_prng::Rng;
use astro_telemetry::sync::{self, Mutex, MutexGuard};
use astro_telemetry::{cores, lockcheck, TraceId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A per-job engine failure. The batch is unaffected: every other job
/// still completes and returns its own result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The job's inference session failed (KV-cache overflow). Already
    /// retried once without the prefix cache before being surfaced — see
    /// [`EvalEngine::score_batch`].
    Session(SessionError),
    /// The job's closure panicked; the panic was isolated to this job.
    WorkerPanic,
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Session(e) => e.fmt(f),
            ServeError::WorkerPanic => write!(f, "job panicked inside the eval engine"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a [`ScoreJob`]'s per-option scores are read out of the model.
#[derive(Clone, Debug)]
pub enum ScoreReadout {
    /// Per option: a set of tokenised continuation variants. The option's
    /// score is the **max** over variants of the length-normalised
    /// continuation log-likelihood (the token method's `OptionValue`
    /// readout). An option with no variants, or only empty ones, scores
    /// `-inf`.
    ContinuationGroups(Vec<Vec<Vec<u32>>>),
    /// Per option: a set of candidate token ids. The option's score is the
    /// **max raw logit** over its candidates after the prompt (the token
    /// method's `Letter` readout). An empty group scores `-inf`.
    LogitGroups(Vec<Vec<u32>>),
}

/// One prompt to score. `prompt` must be non-empty and already truncated
/// to fit the model's context by the caller (the engine reports overflow,
/// it does not silently truncate).
#[derive(Clone, Debug)]
pub struct ScoreJob {
    /// Prompt tokens (encoded, truncated).
    pub prompt: Vec<u32>,
    /// Prefix-sharing hint: jobs with the same group id (e.g. the same
    /// source article) get a shared mid-trie anchor. `None` opts out.
    pub group: Option<u64>,
    /// The readout to apply after the prompt.
    pub readout: ScoreReadout,
    /// Request trace the scheduler records its `admit`, `cache_lookup`,
    /// `prefill` and `decode` phases against, if any (set by the gateway;
    /// `None` costs nothing).
    pub trace: Option<TraceId>,
}

/// One prompt to generate from. Like [`ScoreJob`], the prompt must be
/// non-empty and pre-truncated with generation headroom.
#[derive(Clone, Debug)]
pub struct GenerateJob {
    /// Prompt tokens (encoded, truncated).
    pub prompt: Vec<u32>,
    /// Prefix-sharing hint (see [`ScoreJob::group`]).
    pub group: Option<u64>,
    /// Maximum tokens to generate.
    pub max_new: usize,
    /// Sampling settings.
    pub sampler: SamplerConfig,
    /// Per-job random stream (pre-split by the caller so results do not
    /// depend on scheduling order).
    pub rng: Rng,
    /// Token ids that end generation without being emitted.
    pub stop: Vec<u32>,
    /// Request trace to attribute engine phases to, if any (see
    /// [`ScoreJob::trace`]).
    pub trace: Option<TraceId>,
}

/// Internal job representation so scoring and generation share one
/// dispatch path and one admission backlog.
#[derive(Clone)]
pub(crate) enum Job {
    /// A scoring job.
    Score(ScoreJob),
    /// A generation job.
    Generate(GenerateJob),
}

impl Job {
    /// The job's prompt tokens.
    pub(crate) fn prompt(&self) -> &[u32] {
        match self {
            Job::Score(j) => &j.prompt,
            Job::Generate(j) => &j.prompt,
        }
    }

    /// The job's prefix-sharing group hint.
    pub(crate) fn group(&self) -> Option<u64> {
        match self {
            Job::Score(j) => j.group,
            Job::Generate(j) => j.group,
        }
    }

    /// The job's attached request trace, if any.
    pub(crate) fn trace(&self) -> Option<TraceId> {
        match self {
            Job::Score(j) => j.trace,
            Job::Generate(j) => j.trace,
        }
    }
}

/// A finished job's payload; the variant matches the job kind.
#[derive(Clone, Debug, PartialEq)]
pub enum SeqOutcome {
    /// Per-option scores from a [`ScoreJob`].
    Scores(Vec<f32>),
    /// Generated tokens (stop token excluded) from a [`GenerateJob`].
    Tokens(Vec<u32>),
}

/// The batched evaluation engine. Construction clones the parameters once
/// (an [`IterScheduler`] outlives the call that built it, so it shares
/// them by `Arc`); per-batch cost is dominated by the model math, not the
/// engine.
pub struct EvalEngine {
    cfg: EngineConfig,
    model_cfg: ModelConfig,
    params: Arc<Params>,
    cache: Arc<Mutex<PrefixCache>>,
}

/// Lock the prefix cache under its declared lock rank, recovering from
/// poisoning (the cache holds no invariants a panicked job could have
/// half-applied: every mutation completes or the trie is unchanged).
/// Routed through `astro_telemetry::sync` so cache acquisition is a
/// scheduling point under `--cfg astro_check` (see `tests/check_cache.rs`).
pub(crate) fn lock_cache(
    cache: &Mutex<PrefixCache>,
) -> (lockcheck::LockToken, MutexGuard<'_, PrefixCache>) {
    sync::lock_ranked("serve.prefix_cache", cache)
}

/// Longest common prefix of two token slices.
fn lcp_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

impl EvalEngine {
    /// Build an engine for `params` with the given execution settings. The
    /// engine serves its own frozen copy ([`Params::frozen`]: f32 weights
    /// get their panel copy on an AVX-512 CPU), which nothing writes
    /// afterwards.
    pub fn new(cfg: EngineConfig, params: &Params) -> Self {
        let model_cfg = params.cfg;
        let cache = PrefixCache::new(&model_cfg, cfg.max_cache_bytes);
        EvalEngine {
            cfg,
            model_cfg,
            params: Arc::new(params.clone().frozen()),
            cache: Arc::new(Mutex::new(cache)),
        }
    }

    /// What a scheduler lends the job lifecycle: this engine's model, its
    /// prefix cache when caching is on and the batch's group anchors.
    fn seq_env(&self, anchors: HashMap<u64, Vec<u32>>) -> SeqEnv {
        SeqEnv {
            params: Arc::clone(&self.params),
            cache: self.cfg.prefix_cache.then(|| Arc::clone(&self.cache)),
            anchors,
        }
    }

    /// The engine's execution settings.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Snapshot of the prefix cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        let (_token, guard) = lock_cache(&self.cache);
        guard.stats()
    }

    /// Score a batch of prompts; results come back in job order. Each
    /// element is the per-option score vector, or that job's
    /// [`ServeError`] when its prompt overflowed the KV cache (after one
    /// uncached retry) or its closure panicked.
    pub fn score_batch(&self, jobs: Vec<ScoreJob>) -> Vec<Result<Vec<f32>, ServeError>> {
        let _span = astro_telemetry::span!("serve.score_batch", jobs = jobs.len());
        let outcomes = self.run_batch(jobs.into_iter().map(Job::Score).collect());
        outcomes
            .into_iter()
            .map(|r| {
                r.map(|o| match o {
                    SeqOutcome::Scores(s) => s,
                    SeqOutcome::Tokens(_) => Vec::new(),
                })
            })
            .collect()
    }

    /// Generate from a batch of prompts; results come back in job order.
    /// Each element is the generated token sequence (stop token excluded),
    /// or that job's [`ServeError`].
    pub fn generate_batch(&self, jobs: Vec<GenerateJob>) -> Vec<Result<Vec<u32>, ServeError>> {
        let _span = astro_telemetry::span!("serve.generate_batch", jobs = jobs.len());
        let outcomes = self.run_batch(jobs.into_iter().map(Job::Generate).collect());
        outcomes
            .into_iter()
            .map(|r| {
                r.map(|o| match o {
                    SeqOutcome::Tokens(t) => t,
                    SeqOutcome::Scores(_) => Vec::new(),
                })
            })
            .collect()
    }

    /// A standalone iteration scheduler sharing this engine's parameters
    /// and prefix cache. The gateway's serving loop drives one of these
    /// directly; [`EvalEngine::score_batch`] / [`EvalEngine::generate_batch`]
    /// build one per shard per batch.
    pub fn iter_scheduler(&self, cfg: SchedulerConfig) -> IterScheduler {
        IterScheduler::new(cfg, self.seq_env(HashMap::new()))
    }

    /// Shared dispatch: prime anchors, run the batch on
    /// [`EngineConfig::resolved_parallelism`] scheduler shards claiming
    /// jobs off one shared cursor, and return results in job order. The
    /// shards go through the process's one runner ([`cores::run`]): the
    /// calling thread is the first, so one shard spawns nothing, and a
    /// shard whose thread is refused runs on the caller afterwards. Each
    /// shard's scheduler *holds* a core of the ledger while it steps, the
    /// way a gateway loop does; it never borrows one. Each scheduler
    /// publishes the cache's metrics after every step, priming's share
    /// with the first.
    fn run_batch(&self, jobs: Vec<Job>) -> Vec<Result<SeqOutcome, ServeError>> {
        // `_pin` holds the batch anchor in the cache until this returns.
        let (anchors, _pin) = if self.cfg.prefix_cache {
            self.prime_anchors(&jobs)
        } else {
            (HashMap::new(), None)
        };
        let shards = self.cfg.resolved_parallelism().min(jobs.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let reported = cores::run("astro-serve", vec![(); shards], |()| {
            self.run_shard(&jobs, &cursor, &anchors)
        });
        // Every index below `jobs.len()` is claimed exactly once, so one
        // left at `WorkerPanic` was claimed by a shard that died outside
        // the scheduler's panic boundaries, losing what it had finished.
        let mut results = vec![Err(ServeError::WorkerPanic); jobs.len()];
        for (i, r) in reported.into_iter().flat_map(Result::unwrap_or_default) {
            results[i] = r;
        }
        results
    }

    /// One shard: step an [`IterScheduler`] of the default shape until the
    /// cursor is exhausted and its own sequences have retired; returns
    /// `(job index, result)` for every job it claimed.
    ///
    /// The claim rule is **at most one job per step, while a slot is
    /// free** — a measured rule, not a setting. Generate jobs live for
    /// dozens of steps, so all eight slots still fill within eight steps
    /// and their decode rows share one forward; a score job retires in the
    /// step that admits it, so a score batch keeps one session per shard
    /// cache-hot instead of cycling eight (filling every free slot cost
    /// `token_shared` 8 % — `docs/SERVING.md`).
    fn run_shard(
        &self,
        jobs: &[Job],
        cursor: &AtomicUsize,
        anchors: &HashMap<u64, Vec<u32>>,
    ) -> Vec<(usize, Result<SeqOutcome, ServeError>)> {
        let cfg = SchedulerConfig { record_log: false, ..SchedulerConfig::default() };
        let mut sched = IterScheduler::new(cfg, self.seq_env(anchors.clone()));
        let mut claimed: HashMap<usize, usize> = HashMap::new(); // sequence id -> job index
        let mut reported = Vec::new();
        loop {
            if sched.active_len() + sched.backlog() < cfg.max_active {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if let Some(id) = jobs.get(i).and_then(|job| sched.submit_job(job.clone()).ok()) {
                    claimed.insert(id, i);
                }
            }
            if sched.is_idle() {
                return reported;
            }
            for (id, result) in sched.step() {
                reported.extend(claimed.remove(&id).map(|i| (i, result)));
            }
        }
    }

    /// Encode and pin the batch-wide common prefix, and compute per-group
    /// anchor prefixes worth snapshotting mid-feed (strictly deeper than
    /// the batch anchor, shared by at least two jobs). The pin is scoped
    /// to the returned guard.
    fn prime_anchors(&self, jobs: &[Job]) -> (HashMap<u64, Vec<u32>>, Option<AnchorPin<'_>>) {
        // Batch anchor: LCP over every prompt.
        let mut batch_len = jobs.first().map(|j| j.prompt().len()).unwrap_or(0);
        for j in jobs {
            batch_len = batch_len.min(lcp_len(jobs[0].prompt(), j.prompt()));
        }
        let mut pin = None;
        if batch_len > 0 && jobs.len() >= 2 {
            let anchor = &jobs[0].prompt()[..batch_len];
            let need = {
                let (_token, guard) = lock_cache(&self.cache);
                !guard.has_snapshot(anchor)
            };
            let encoded = need
                .then(|| {
                    let mut sess = InferenceSession::new(self.model_cfg);
                    let fits = sess.try_feed_prompt(&self.params, anchor).is_ok();
                    fits.then_some(sess)
                })
                .flatten();
            let (_token, mut guard) = lock_cache(&self.cache);
            if let Some(sess) = &encoded {
                guard.insert(anchor, sess, false);
            }
            if guard.pin(anchor) {
                pin = Some(AnchorPin { cache: &self.cache, anchor: anchor.to_vec() });
            }
        }

        // Group anchors: LCP within each group, where deeper than the
        // batch anchor and shared by 2+ jobs.
        let mut groups: HashMap<u64, (usize, usize)> = HashMap::new(); // id -> (first job, lcp)
        for (i, j) in jobs.iter().enumerate() {
            let Some(g) = j.group() else { continue };
            match groups.get_mut(&g) {
                None => {
                    groups.insert(g, (i, j.prompt().len()));
                }
                Some((first, len)) => {
                    *len = (*len).min(lcp_len(jobs[*first].prompt(), j.prompt()));
                }
            }
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for j in jobs {
            if let Some(g) = j.group() {
                *counts.entry(g).or_insert(0) += 1;
            }
        }
        let anchors = groups
            .into_iter()
            .filter(|(g, (_, len))| *len > batch_len && counts.get(g).copied().unwrap_or(0) >= 2)
            .map(|(g, (first, len))| (g, jobs[first].prompt()[..len].to_vec()))
            .collect();
        (anchors, pin)
    }
}

/// A batch's hold on its anchor snapshot, released on drop — so the pin
/// lasts exactly as long as `run_batch`, also when it unwinds. Without the
/// release every batch with a new common prefix would leave one more
/// unevictable snapshot behind.
struct AnchorPin<'a> {
    cache: &'a Mutex<PrefixCache>,
    anchor: Vec<u32>,
}

impl Drop for AnchorPin<'_> {
    fn drop(&mut self) {
        let (_token, mut guard) = lock_cache(self.cache);
        guard.unpin(&self.anchor);
    }
}

/// Record the cache's activity since its last publication in the global
/// metrics registry. Called by the scheduler after every step.
pub(crate) fn publish_cache_metrics(cache: &Mutex<PrefixCache>) {
    let new = {
        let (_token, mut guard) = lock_cache(cache);
        guard.take_unpublished()
    };
    astro_telemetry::counter("serve.prefix.hits").add(new.hits);
    astro_telemetry::counter("serve.prefix.misses").add(new.misses);
    astro_telemetry::counter("serve.tokens.saved").add(new.tokens_reused);
    astro_telemetry::counter("serve.cache.evictions").add(new.evictions);
    astro_telemetry::gauge("serve.cache.resident_bytes").set(new.resident_bytes as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_model::{continuation_loglik, sample_logits, ModelConfig};

    fn setup() -> (ModelConfig, Params) {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(11));
        (cfg, p)
    }

    /// Serial reference for one ContinuationGroups job, fresh sessions
    /// everywhere.
    fn reference_scores(cfg: ModelConfig, p: &Params, prompt: &[u32], groups: &[Vec<Vec<u32>>]) -> Vec<f32> {
        let mut sess = InferenceSession::new(cfg);
        for &t in prompt {
            sess.feed(p, t);
        }
        groups
            .iter()
            .map(|variants| {
                let mut s = f32::NEG_INFINITY;
                for cont in variants {
                    s = s.max(continuation_loglik(p, &sess, cont));
                }
                s
            })
            .collect()
    }

    fn jobs_for(prompts: &[&[u32]], groups: &[Vec<Vec<u32>>]) -> Vec<ScoreJob> {
        prompts
            .iter()
            .map(|p| ScoreJob {
                prompt: p.to_vec(),
                group: Some(p[0] as u64),
                readout: ScoreReadout::ContinuationGroups(groups.to_vec()),
                trace: None,
            })
            .collect()
    }

    #[test]
    fn pooled_cached_matches_serial_uncached_bitwise() {
        let (cfg, p) = setup();
        let groups: Vec<Vec<Vec<u32>>> =
            vec![vec![vec![1, 2], vec![3]], vec![vec![4]], vec![vec![]], vec![vec![5, 6, 7]]];
        // Shared preamble [9, 8, 7], then article-ish middles, then tails.
        let prompts: Vec<Vec<u32>> = vec![
            vec![9, 8, 7, 1, 1, 2],
            vec![9, 8, 7, 1, 1, 3],
            vec![9, 8, 7, 2, 5, 5],
            vec![9, 8, 7, 2, 5, 6],
            vec![9, 8, 7, 3, 0],
        ];
        let prompt_refs: Vec<&[u32]> = prompts.iter().map(|p| p.as_slice()).collect();
        let expected: Vec<Vec<f32>> = prompts
            .iter()
            .map(|pr| reference_scores(cfg, &p, pr, &groups))
            .collect();
        for engine_cfg in [
            EngineConfig::serial(),
            EngineConfig::pooled_with(1),
            EngineConfig::pooled_with(2),
            EngineConfig::pooled_with(4),
        ] {
            let engine = EvalEngine::new(engine_cfg, &p);
            let got = engine.score_batch(jobs_for(&prompt_refs, &groups));
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.as_ref().ok(), Some(e), "config {engine_cfg:?}");
            }
        }
    }

    #[test]
    fn prefix_cache_records_hits_and_saved_tokens() {
        let (_cfg, p) = setup();
        let groups: Vec<Vec<Vec<u32>>> = vec![vec![vec![1]]];
        let prompts: Vec<Vec<u32>> = (0..6).map(|i| vec![9, 8, 7, 6, i as u32]).collect();
        let prompt_refs: Vec<&[u32]> = prompts.iter().map(|p| p.as_slice()).collect();
        let engine = EvalEngine::new(EngineConfig::pooled_with(1), &p);
        let _ = engine.score_batch(jobs_for(&prompt_refs, &groups));
        let stats = engine.cache_stats();
        assert!(stats.hits >= 5, "hits {}", stats.hits);
        assert!(stats.tokens_reused >= 5 * 4, "reused {}", stats.tokens_reused);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn overlong_prompt_fails_that_job_only() {
        let (cfg, p) = setup();
        // One token over the cache and several: the second is where the
        // prompt entry drops more than one token after filling the cache.
        let overlong = |extra: usize| ScoreJob {
            prompt: vec![1u32; cfg.max_seq + extra],
            group: None,
            readout: ScoreReadout::LogitGroups(vec![vec![1]]),
            trace: None,
        };
        let jobs = vec![
            ScoreJob {
                prompt: vec![9, 8, 7],
                group: None,
                readout: ScoreReadout::LogitGroups(vec![vec![1], vec![2], vec![3], vec![]]),
                trace: None,
            },
            overlong(1),
            overlong(4),
        ];
        // A real overflow is retried once uncached, then surfaces as that
        // job's error — the error of the first token that did not fit,
        // however the prompt was cut into chunks and row blocks.
        for engine_cfg in [EngineConfig::pooled_with(2), EngineConfig::pooled_with(1)] {
            let retries0 = astro_telemetry::counter("serve.cache_full.retries").get();
            let engine = EvalEngine::new(engine_cfg, &p);
            let got = engine.score_batch(jobs.clone());
            assert!(got[0].is_ok());
            let full = SessionError::CacheFull { pos: cfg.max_seq, max_seq: cfg.max_seq };
            for over in &got[1..] {
                assert_eq!(*over, Err(ServeError::Session(full)), "{engine_cfg:?}");
            }
            assert!(astro_telemetry::counter("serve.cache_full.retries").get() > retries0);
            // Empty logit group scores -inf.
            let ok = got[0].as_ref().ok().cloned().unwrap_or_default();
            assert_eq!(ok[3], f32::NEG_INFINITY);
        }
    }

    #[test]
    fn generation_matches_fresh_session_greedy() {
        let (cfg, p) = setup();
        let prompt = vec![3u32, 1, 4, 1, 5];
        // Fresh-session reference.
        let mut sess = InferenceSession::new(cfg);
        let mut logits = Vec::new();
        for &t in &prompt {
            logits = sess.feed(&p, t).to_vec();
        }
        let mut rng = Rng::seed_from(2);
        let mut expect = Vec::new();
        for _ in 0..6 {
            if sess.remaining() == 0 {
                break;
            }
            let next = sample_logits(&logits, &SamplerConfig::greedy(), &mut rng) as u32;
            if next == 0 {
                break;
            }
            expect.push(next);
            logits = sess.feed(&p, next).to_vec();
        }
        // Engine, pooled + cached, duplicated jobs (one hits the cache).
        let job = GenerateJob {
            prompt: prompt.clone(),
            group: Some(1),
            max_new: 6,
            sampler: SamplerConfig::greedy(),
            rng: Rng::seed_from(2),
            stop: vec![0],
            trace: None,
        };
        let engine = EvalEngine::new(EngineConfig::pooled_with(2), &p);
        let got = engine.generate_batch(vec![job.clone(), job]);
        for r in got {
            assert_eq!(r.ok().as_deref(), Some(expect.as_slice()));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (_cfg, p) = setup();
        let engine = EvalEngine::new(EngineConfig::pooled(), &p);
        assert!(engine.score_batch(Vec::new()).is_empty());
        assert!(engine.generate_batch(Vec::new()).is_empty());
        assert_eq!(engine.cache_stats().hits, 0);
        assert!(engine.config().prefix_cache);
    }
}
