//! Iteration-level continuous batching: per-step admission, chunked
//! prefill, one stacked decode forward, individual retirement.
//!
//! [`IterScheduler`] is the one driver of the job lifecycle
//! ([`crate::seq`]): the gateway's serving loop owns one, and an offline
//! batch ([`crate::engine`]) runs on one per shard. Dispatching whole jobs
//! to workers would hold a slot for its *longest* member — one long
//! generate cascade head-of-line blocks every cheap score behind it — and
//! would stream the weights once per decoding sequence; the scheduler
//! instead advances the whole mix one unit of work per
//! [`IterScheduler::step`]:
//!
//! 1. **Admit** — pending submissions join the running batch in FIFO
//!    order (one `VecDeque`, owned by the scheduler: submission and
//!    stepping are both `&mut self`), each reserving its worst-case
//!    KV footprint in the [`KvLedger`] first. The ledger's block budget is
//!    unified with the prefix cache's residency: cached snapshots are
//!    charged against the same budget, and admission may evict unpinned
//!    LRU snapshots (never a running sequence — running sequences own
//!    their `InferenceSession`s outright) to make room. The FIFO head
//!    blocks the tail — no skip-ahead — which is what makes the
//!    admission-wait bound below hold.
//! 2. **Advance** — every active sequence moves one unit of the job
//!    lifecycle, each under its own `catch_unwind`: prefilling sequences
//!    feed up to `prefill_chunk` prompt tokens (snapshotting group anchors
//!    on the way past); decoding sequences *sample* one token.
//! 3. **Feed** — the step's sampled tokens, one lane per decoding
//!    sequence at its own position, go through **one** stacked forward
//!    (`seq::feed_sampled`, `serve.decode.rows` / `serve.decode.forwards`)
//!    under a `catch_unwind` of its own: every linear streams its weights
//!    once per step, not once per sequence, and a failure there is the
//!    error of exactly the lanes in it.
//! 4. **Retire** — the step's anchor snapshots go into the prefix cache in
//!    batch order; finished sequences return their result, release their
//!    ledger blocks and hand their sessions back to the free list, without
//!    waiting for the rest of the batch. A generate job retires in the
//!    step that samples its last token, which is never fed.
//!
//! # Cores
//!
//! Advance and feed run on every core nothing else holds. The process's
//! one ledger of idle cores ([`astro_telemetry::cores`]) is shared by every
//! scheduler, offline shard and training run: a scheduler *holds* one core
//! from its first step until a step leaves it idle (or it drops), and a
//! step *borrows* idle cores for its own duration only. The step's work
//! splits into units — each sequence that prefills or reads out, and all
//! decoding sequences together as one unit, so the stacked feed stays one
//! forward — that the ledger's packer deals longest-first by estimated
//! rows to `1 + borrowed` workers of its runner: the stepping thread with
//! the scheduler's own [`ForkPool`], and scoped threads with the pools
//! lent along with the cores (parked here between loans, so a process
//! never has more lent pools than cores). With nothing borrowed the same
//! code runs inline. A loan is not recalled: a scheduler that turns busy
//! while another step holds a loan shares its core with that step's worker
//! until the step ends. Admission, the fault hooks, the snapshot inserts,
//! retirement and the [`SchedLog`] stay on the stepping thread, so the
//! split is invisible in results, logs and cache state
//! (`serve.step.workers` shows it).
//!
//! # Determinism
//!
//! Scheduling decisions depend only on logical step counts and submission
//! order — never on wall-clock time. Each sequence owns its session and
//! its pre-split RNG stream, a forked snapshot replays identical
//! arithmetic and a row of a stacked forward is bit for bit the row fed
//! alone (the crate-level determinism contract), so *any* interleaving of
//! score/generate jobs is bitwise-identical to running each job alone in a
//! fresh session. `tests/scheduler_differential.rs`
//! proves this across 100+ seeded mixed workloads, and the recorded
//! [`SchedLog`] makes every run replayable: identical submissions produce
//! identical per-step batch compositions.
//!
//! # Fairness bound
//!
//! With `m = max_active` slots, FIFO admission and a block budget that
//! admits `m` concurrent sequences, a job at queue position `k` (0-based)
//! waits at most `ceil((k + 1) / m) * L + 1` steps for admission, where
//! `L` is the longest possible sequence lifetime in steps
//! (`ceil(prompt / prefill_chunk) + max_new + 2`).
//! `tests/scheduler_props.rs` asserts this bound under adversarial
//! long-decode load.

use crate::engine::{
    lock_cache, publish_cache_metrics, GenerateJob, Job, ScoreJob, SeqOutcome, ServeError,
};
use crate::seq::{feed_sampled, Advance, ForkPool, SeqEnv, Sequence};
use astro_model::ModelConfig;
use astro_telemetry::cores::{self, Cores, Loan};
use astro_telemetry::fault;
use astro_telemetry::lockcheck;
use astro_telemetry::metrics::Gauge;
use astro_telemetry::sync::{self, Mutex, MutexGuard};
use astro_telemetry::trace;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

/// Iteration-scheduler tuning. All zero/degenerate values are normalized
/// at construction ([`crate::EvalEngine::iter_scheduler`]); `validate`
/// rejects values a config file should not contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum concurrently active sequences (batch slots).
    pub max_active: usize,
    /// Prompt tokens a prefilling sequence feeds per step, so long
    /// prefills interleave with running decodes instead of stalling them.
    pub prefill_chunk: usize,
    /// Tokens per KV block in the ledger's accounting.
    pub block_tokens: usize,
    /// Total block budget shared by active sequences and cached
    /// snapshots; `0` derives a budget that admits `max_active` sequences
    /// plus the prefix cache's full residency.
    pub budget_blocks: usize,
    /// Most submissions that may wait for admission at once; one more is
    /// refused with [`SubmitError::Backlog`].
    pub admit_capacity: usize,
    /// Record a [`SchedLog`] of per-step batch compositions.
    pub record_log: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_active: 8,
            prefill_chunk: 32,
            block_tokens: 16,
            budget_blocks: 0,
            admit_capacity: 1024,
            record_log: true,
        }
    }
}

impl SchedulerConfig {
    /// Structural validation for config surfaces (the constructor
    /// normalizes instead of rejecting).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_active == 0 {
            return Err("scheduler max_active must be >= 1".to_string());
        }
        if self.prefill_chunk == 0 {
            return Err("scheduler prefill_chunk must be >= 1".to_string());
        }
        if self.block_tokens == 0 {
            return Err("scheduler block_tokens must be >= 1".to_string());
        }
        if self.admit_capacity == 0 {
            return Err("scheduler admit_capacity must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// `admit_capacity` submissions are already waiting for admission;
    /// try again after stepping.
    Backlog,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backlog => write!(f, "scheduler admission backlog is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// KV-block accounting shared by running sequences and cached snapshots.
///
/// Every admitted sequence reserves its **worst-case** footprint up front
/// (prompt plus full decode budget, capped at the context), so a running
/// sequence can never be evicted or starved mid-flight — the only
/// reclaimable blocks are unpinned cache snapshots. Invariants (enforced
/// by [`KvLedger::check`] and `tests/scheduler_props.rs`):
///
/// * reserved blocks are released exactly once, at retirement — no leaks;
/// * `active + cached <= budget` whenever a reservation succeeds;
/// * eviction only ever reduces `cached`, never a running reservation.
#[derive(Clone, Debug)]
pub struct KvLedger {
    block_tokens: usize,
    budget_blocks: usize,
    active: HashMap<usize, usize>,
    active_blocks: usize,
    cached_blocks: usize,
}

impl KvLedger {
    /// A ledger of `budget_blocks` blocks of `block_tokens` tokens each.
    pub fn new(block_tokens: usize, budget_blocks: usize) -> Self {
        KvLedger {
            block_tokens: block_tokens.max(1),
            budget_blocks,
            active: HashMap::new(),
            active_blocks: 0,
            cached_blocks: 0,
        }
    }

    /// Blocks needed to hold `tokens` KV rows (at least one).
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens).max(1)
    }

    /// Reserve the blocks for `tokens` against sequence `id`. Fails (and
    /// reserves nothing) when the budget cannot hold it alongside the
    /// current active set and cached snapshots, or when `id` already
    /// holds a reservation.
    pub fn try_reserve(&mut self, id: usize, tokens: usize) -> bool {
        if self.active.contains_key(&id) {
            return false;
        }
        let blocks = self.blocks_for(tokens);
        if self.active_blocks + self.cached_blocks + blocks > self.budget_blocks {
            return false;
        }
        self.active.insert(id, blocks);
        self.active_blocks += blocks;
        true
    }

    /// Release sequence `id`'s reservation, returning the blocks freed
    /// (`0` when `id` held none).
    pub fn release(&mut self, id: usize) -> usize {
        match self.active.remove(&id) {
            Some(blocks) => {
                self.active_blocks -= blocks;
                blocks
            }
            None => 0,
        }
    }

    /// Record the prefix cache's current snapshot residency in blocks.
    pub fn set_cached_blocks(&mut self, blocks: usize) {
        self.cached_blocks = blocks;
    }

    /// Blocks reserved by running sequences.
    pub fn active_blocks(&self) -> usize {
        self.active_blocks
    }

    /// Blocks charged to cached snapshots at the last sync.
    pub fn cached_blocks(&self) -> usize {
        self.cached_blocks
    }

    /// The total block budget.
    pub fn budget_blocks(&self) -> usize {
        self.budget_blocks
    }

    /// Blocks in use: active reservations plus cached snapshots.
    pub fn in_use(&self) -> usize {
        self.active_blocks + self.cached_blocks
    }

    /// Number of sequences currently holding a reservation.
    pub fn active_sequences(&self) -> usize {
        self.active.len()
    }

    /// Internal-consistency check: the running total matches the per-id
    /// map and the budget is respected.
    pub fn check(&self) -> Result<(), String> {
        let sum: usize = self.active.values().sum();
        if sum != self.active_blocks {
            return Err(format!(
                "ledger drift: per-id sum {sum} != active_blocks {}",
                self.active_blocks
            ));
        }
        if self.in_use() > self.budget_blocks {
            return Err(format!(
                "budget exceeded: active {} + cached {} > budget {}",
                self.active_blocks, self.cached_blocks, self.budget_blocks
            ));
        }
        Ok(())
    }
}

/// One step's batch composition, for deterministic replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// 1-based step index.
    pub step: u64,
    /// Sequence ids admitted this step, in admission order.
    pub admitted: Vec<usize>,
    /// Sequence ids advanced this step, in batch order.
    pub batch: Vec<usize>,
    /// Sequence ids retired this step.
    pub retired: Vec<usize>,
    /// Whether the `serve.admit_stall` fault suppressed admission.
    pub stalled: bool,
}

/// The recorded admission schedule: one [`StepRecord`] per non-idle step.
/// Two runs with identical submissions produce identical logs — the
/// deterministic-replay property `tests/scheduler_props.rs` asserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedLog {
    /// Per-step records, in execution order.
    pub steps: Vec<StepRecord>,
}

impl SchedLog {
    /// Serialize as JSONL (one step per line) for failure artifacts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            let ids = |v: &[usize]| {
                v.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",")
            };
            out.push_str(&format!(
                "{{\"step\":{},\"admitted\":[{}],\"batch\":[{}],\"retired\":[{}],\"stalled\":{}}}\n",
                s.step,
                ids(&s.admitted),
                ids(&s.batch),
                ids(&s.retired),
                s.stalled
            ));
        }
        out
    }
}

/// The core ledger a scheduler holds and borrows from, and the scratch
/// [`ForkPool`]s of its cores out on loan, parked between loans: a loan
/// takes one per core it borrows and brings it back, so no more pools exist
/// than cores can be lent at once.
struct StepCores {
    ledger: &'static Cores,
    spare: Mutex<Vec<ForkPool>>,
}

impl StepCores {
    /// The process-wide ledger's.
    fn process() -> &'static StepCores {
        static STEP_CORES: OnceLock<StepCores> = OnceLock::new();
        STEP_CORES.get_or_init(|| StepCores { ledger: Cores::process(), spare: Mutex::default() })
    }

    /// Borrow up to `want` idle cores, each with a scratch pool.
    fn lend(&self, want: usize) -> Lent<'_> {
        let loan = self.ledger.borrow(want);
        let (_token, mut spare) = self.spares();
        let keep = spare.len().saturating_sub(loan.cores());
        let mut pools = spare.split_off(keep);
        pools.resize_with(loan.cores(), ForkPool::default);
        Lent { cores: self, pools, _loan: loan }
    }

    fn spares(&self) -> (lockcheck::LockToken, MutexGuard<'_, Vec<ForkPool>>) {
        sync::lock_ranked("serve.step_pools", &self.spare)
    }
}

/// Cores a step borrowed with a scratch pool each: the pools go back to
/// the spare list on drop — also when the step unwinds — and the cores
/// after them.
struct Lent<'a> {
    cores: &'a StepCores,
    pools: Vec<ForkPool>,
    _loan: Loan<'a>,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        self.cores.spares().1.append(&mut self.pools);
    }
}

/// One admitted job: its id, the [`Sequence`] running it, whether the
/// `pool.worker_panic` fault chose it at admission, and what this step's
/// `advance` left for the stepping thread — the token sampled for the
/// stacked feed (decoding sequences only) or the job's result.
struct Active {
    id: usize,
    job: Job,
    seq: Sequence,
    panics: bool,
    sampled: Option<u32>,
    done: Option<Result<SeqOutcome, ServeError>>,
}

impl Active {
    /// Move the job one unit of its lifecycle inside its own panic
    /// boundary.
    fn advance(&mut self, env: &SeqEnv, forks: &mut ForkPool, prefill_chunk: usize) {
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if self.panics {
                std::panic::panic_any(fault::FaultPanic("pool.worker_panic"));
            }
            self.seq.advance(env, &self.job, forks, prefill_chunk)
        }));
        self.sampled = None;
        match step {
            Err(_) => self.done = Some(Err(ServeError::WorkerPanic)),
            Ok(Advance::Done(result)) => self.done = Some(result),
            Ok(Advance::Feed(token)) => self.sampled = Some(token),
            Ok(Advance::Pending) => {}
        }
    }
}

/// One worker's share of a step.
enum Unit<'a> {
    /// A sequence that prefills, reads out or installs its decoder.
    Seq(&'a mut Active),
    /// Every decoding sequence: each samples, then one stacked forward
    /// feeds them all.
    Decode(Vec<&'a mut Active>),
}

/// Run `units` in order with `forks` as scratch; the error of a failed
/// stacked feed, if this worker ran it.
fn run_units<'a>(
    env: &SeqEnv,
    prefill_chunk: usize,
    forks: &mut ForkPool,
    units: impl IntoIterator<Item = Unit<'a>>,
) -> Option<ServeError> {
    let mut failed = None;
    for unit in units {
        match unit {
            Unit::Seq(a) => a.advance(env, forks, prefill_chunk),
            Unit::Decode(mut lanes) => {
                for a in lanes.iter_mut() {
                    a.advance(env, forks, prefill_chunk);
                }
                let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let decoding = lanes.iter_mut().filter_map(|a| {
                        let Active { seq, sampled, .. } = &mut **a;
                        sampled.as_ref().map(|token| (seq, token))
                    });
                    feed_sampled(&env.params, decoding, forks)
                }));
                failed = match fed {
                    Ok(Ok(())) => None,
                    Ok(Err(e)) => Some(ServeError::Session(e)),
                    Err(_) => Some(ServeError::WorkerPanic),
                };
            }
        }
    }
    failed
}

/// The iteration-level scheduler: submission and stepping through
/// `&mut self`, so one thread drives it; a step spreads its work over the
/// idle cores it can borrow (see the module docs' *Cores*). A serving loop
/// that takes requests from other threads owns the scheduler and hands
/// them over itself (the gateway's `BoundedQueue` is that hand-off).
pub struct IterScheduler {
    cfg: SchedulerConfig,
    env: SeqEnv,
    ledger: KvLedger,
    blocks_per_snapshot: usize,
    pending: VecDeque<(usize, Job)>,
    active: Vec<Active>,
    free: Vec<Sequence>,
    /// The stepping thread's scratch; lent cores bring their own.
    forks: ForkPool,
    /// The core ledger steps hold and borrow from, and this scheduler's
    /// hold on one of its cores while it has work.
    cores: &'static StepCores,
    hold: Option<Loan<'static>>,
    /// Workers the last step ran on (what `serve.step.workers` observed).
    workers: usize,
    next_id: usize,
    step_idx: u64,
    log: Option<SchedLog>,
    /// `serve.sched.active`, and this scheduler's share of it: the
    /// process runs several schedulers (offline shards, gateway loops), so
    /// each publishes only its change and the gauge is their sum.
    active_gauge: Gauge,
    published_active: i64,
}

impl Drop for IterScheduler {
    fn drop(&mut self) {
        self.active_gauge.add(-self.published_active);
    }
}

impl IterScheduler {
    /// Build a scheduler over `env`'s model and prefix cache (if any).
    /// Degenerate config values are normalized to their minimum.
    pub(crate) fn new(cfg: SchedulerConfig, env: SeqEnv) -> Self {
        let cfg = SchedulerConfig {
            max_active: cfg.max_active.max(1),
            prefill_chunk: cfg.prefill_chunk.max(1),
            block_tokens: cfg.block_tokens.max(1),
            admit_capacity: cfg.admit_capacity.max(1),
            ..cfg
        };
        let model_cfg = env.params.cfg;
        let blocks_per_snapshot = model_cfg.max_seq.div_ceil(cfg.block_tokens).max(1);
        let budget = if cfg.budget_blocks == 0 {
            let cache_sessions = env
                .cache
                .as_ref()
                .map(|c| {
                    let (_t, g) = lock_cache(c);
                    g.capacity_sessions()
                })
                .unwrap_or(0);
            blocks_per_snapshot * (cfg.max_active + cache_sessions)
        } else {
            cfg.budget_blocks
        };
        IterScheduler {
            ledger: KvLedger::new(cfg.block_tokens, budget),
            blocks_per_snapshot,
            pending: VecDeque::new(),
            active: Vec::new(),
            free: Vec::new(),
            forks: ForkPool::default(),
            cores: StepCores::process(),
            hold: None,
            workers: 0,
            next_id: 0,
            step_idx: 0,
            log: cfg.record_log.then(SchedLog::default),
            cfg,
            env,
            active_gauge: astro_telemetry::gauge("serve.sched.active"),
            published_active: 0,
        }
    }

    /// Install shared-prefix anchor targets (computed by the engine's
    /// batch priming, or learned online by the gateway); sequences
    /// snapshot these mid-prefill.
    pub fn set_anchors(&mut self, anchors: HashMap<u64, Vec<u32>>) {
        self.env.anchors = anchors;
    }

    /// Submit a scoring job; returns its sequence id.
    pub fn submit_score(&mut self, job: ScoreJob) -> Result<usize, SubmitError> {
        self.submit_job(Job::Score(job))
    }

    /// Submit a generation job; returns its sequence id.
    pub fn submit_generate(&mut self, job: GenerateJob) -> Result<usize, SubmitError> {
        self.submit_job(Job::Generate(job))
    }

    pub(crate) fn submit_job(&mut self, job: Job) -> Result<usize, SubmitError> {
        if self.pending.len() >= self.cfg.admit_capacity {
            return Err(SubmitError::Backlog);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back((id, job));
        Ok(id)
    }

    /// True when nothing is pending or active.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    /// Submissions waiting for admission.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Number of currently active sequences.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Most submissions that may wait for admission at once.
    pub fn admit_capacity(&self) -> usize {
        self.cfg.admit_capacity
    }

    /// The KV-block ledger (for invariant checks and metrics).
    pub fn ledger(&self) -> &KvLedger {
        &self.ledger
    }

    /// Re-sync the ledger's cached-snapshot charge from the prefix cache
    /// (admission does this automatically; exposed for invariant tests).
    pub fn refresh_cached_blocks(&mut self) {
        if let Some(cache) = &self.env.cache {
            let (_t, g) = lock_cache(cache);
            let resident = g.stats().resident_sessions as usize;
            self.ledger.set_cached_blocks(resident * self.blocks_per_snapshot);
        }
    }

    /// The recorded admission schedule, when `record_log` is on.
    pub fn sched_log(&self) -> Option<&SchedLog> {
        self.log.as_ref()
    }

    /// One engine step: admit, advance every active sequence by one unit,
    /// retire completions. Returns `(sequence id, result)` for every
    /// sequence retired this step, in batch order. A no-op (idle) call
    /// returns empty and records nothing.
    pub fn step(&mut self) -> Vec<(usize, Result<SeqOutcome, ServeError>)> {
        if self.is_idle() {
            return Vec::new();
        }
        self.step_idx += 1;
        self.hold.get_or_insert_with(|| self.cores.ledger.hold());

        // -- Admit ----------------------------------------------------
        let stalled = fault::should_fault("serve.admit_stall");
        let mut admitted: Vec<usize> = Vec::new();
        let mut rejected: Vec<(usize, Result<SeqOutcome, ServeError>)> = Vec::new();
        if stalled {
            astro_telemetry::counter("serve.admit.stalls").inc();
        } else {
            while self.active.len() < self.cfg.max_active {
                let Some((id, job)) = self.pending.front() else {
                    break;
                };
                let need = worst_case_tokens(job, &self.env.params.cfg);
                // FIFO: if the head cannot reserve, nothing behind it may
                // jump the queue — that is the fairness bound.
                if !self.reserve_with_eviction(*id, need) {
                    if self.active.is_empty() && admitted.is_empty() {
                        // Nothing is running and eviction is exhausted:
                        // no retirement can ever free the blocks this job
                        // needs. Reject it instead of spinning forever.
                        if let Some((id, job)) = self.pending.pop_front() {
                            if let Some(t) = job.trace() {
                                trace::mark_fault(t, "serve.admit_reject");
                            }
                            astro_telemetry::counter("serve.admit.rejected").inc();
                            rejected.push((
                                id,
                                Err(ServeError::Session(
                                    astro_model::SessionError::CacheFull {
                                        pos: need,
                                        max_seq: self.env.params.cfg.max_seq,
                                    },
                                )),
                            ));
                            continue;
                        }
                    }
                    break;
                }
                let Some((id, job)) = self.pending.pop_front() else {
                    break;
                };
                let seq = self.admit_sequence(id, job);
                admitted.push(id);
                self.active.push(seq);
            }
        }

        let batch: Vec<usize> = self.active.iter().map(|a| a.id).collect();

        // -- Advance and feed -----------------------------------------
        let failed = self.advance_all();

        // -- Retire ---------------------------------------------------
        // Snapshots go in in batch order, so the cache's recency order, and
        // with it every later eviction, is the inline step's.
        if let Some(cache) = &self.env.cache {
            for a in &mut self.active {
                if let Some(snapshot) = a.seq.take_snapshot() {
                    let anchor = &a.job.prompt()[..snapshot.position()];
                    let (_token, mut guard) = lock_cache(cache);
                    if !guard.has_snapshot(anchor) {
                        guard.insert_owned(anchor, snapshot);
                    }
                }
            }
        }
        let mut done: Vec<(usize, Result<SeqOutcome, ServeError>)> = rejected;
        done.extend(self.active.iter_mut().filter_map(|a| a.done.take().map(|r| (a.id, r))));
        // A failed forward advanced none of its lanes: it is the error of
        // exactly the sequences in it.
        if let Some(e) = failed {
            let lanes = self.active.iter().filter(|a| a.sampled.is_some());
            done.extend(lanes.map(|a| (a.id, Err(e))));
        }
        let done_ids: HashSet<usize> = done.iter().map(|(id, _)| *id).collect();
        let mut kept = Vec::with_capacity(self.active.len());
        for a in std::mem::take(&mut self.active) {
            if done_ids.contains(&a.id) {
                self.ledger.release(a.id);
                if let Some(t) = a.job.trace() {
                    trace::record_num(t, "retire_step", self.step_idx as f64);
                }
                if self.free.len() < self.cfg.max_active {
                    self.free.push(a.seq);
                }
            } else {
                kept.push(a);
            }
        }
        self.active = kept;

        astro_telemetry::counter("serve.sched.steps").inc();
        astro_telemetry::counter("serve.sched.admitted").add(admitted.len() as u64);
        astro_telemetry::counter("serve.sched.retired").add(done.len() as u64);
        let panicked = done.iter().filter(|(_, r)| matches!(r, Err(ServeError::WorkerPanic))).count();
        astro_telemetry::counter("serve.job_panics").add(panicked as u64);
        astro_telemetry::histogram("serve.step.occupancy").observe(batch.len() as f64);
        astro_telemetry::histogram("serve.step.workers").observe(self.workers as f64);
        let active = self.active.len() as i64;
        self.active_gauge.add(active - self.published_active);
        self.published_active = active;
        if let Some(cache) = &self.env.cache {
            publish_cache_metrics(cache);
        }

        if let Some(log) = &mut self.log {
            log.steps.push(StepRecord {
                step: self.step_idx,
                admitted,
                batch,
                retired: done.iter().map(|(id, _)| *id).collect(),
                stalled,
            });
        }
        if self.is_idle() {
            self.hold = None;
        }
        done
    }

    /// Advance every active sequence one unit and feed the decoding ones,
    /// on `1 + borrowed` workers packed longest first by estimated rows:
    /// the stepping thread with its own pool, and one scoped thread per
    /// lent one (see the module docs' *Cores*). Returns the stacked feed's
    /// error, if it failed.
    fn advance_all(&mut self) -> Option<ServeError> {
        let chunk = self.cfg.prefill_chunk;
        let mut units: Vec<(usize, Unit<'_>)> = Vec::with_capacity(self.active.len());
        let mut decoding = Vec::new();
        for a in self.active.iter_mut() {
            if a.seq.is_decoding() {
                decoding.push(a);
            } else {
                units.push((a.seq.step_rows(&a.job, chunk), Unit::Seq(a)));
            }
        }
        if !decoding.is_empty() {
            units.push((decoding.len(), Unit::Decode(decoding)));
        }
        let mut lent = self.cores.lend(units.len().saturating_sub(1));
        self.workers = 1 + lent.pools.len();
        let queues = cores::pack(self.workers, units);
        let workers = std::iter::once(&mut self.forks).chain(&mut lent.pools).zip(queues).collect();
        let env = &self.env;
        // Every unit runs inside its panic boundaries, so a worker returns; a
        // lost one reports nothing.
        cores::run("astro-step", workers, |(forks, queue)| run_units(env, chunk, forks, queue))
            .into_iter()
            .find_map(|r| r.ok().flatten())
    }

    /// Run every queued submission to completion, returning all results.
    pub fn run_to_completion(&mut self) -> Vec<(usize, Result<SeqOutcome, ServeError>)> {
        let mut out = Vec::new();
        while !self.is_idle() {
            out.extend(self.step());
        }
        out
    }

    /// Reserve `tokens` for `id`, evicting unpinned cache snapshots (LRU
    /// first) while the unified budget is short. Running sequences are
    /// never touched: their blocks are owned reservations.
    fn reserve_with_eviction(&mut self, id: usize, tokens: usize) -> bool {
        loop {
            self.refresh_cached_blocks();
            if self.ledger.try_reserve(id, tokens) {
                return true;
            }
            let Some(cache) = &self.env.cache else {
                return false;
            };
            let freed = {
                let (_t, mut g) = lock_cache(cache);
                g.evict_for_ledger()
            };
            if freed == 0 {
                return false;
            }
        }
    }

    /// Turn an accepted submission into an active sequence: record the
    /// `admit` phase, start it on a reusable [`Sequence`].
    fn admit_sequence(&mut self, id: usize, job: Job) -> Active {
        if let Some(t) = job.trace() {
            trace::phase_since_last(t, "admit");
            trace::record_num(t, "admit_step", self.step_idx as f64);
        }
        let mut seq = self
            .free
            .pop()
            .unwrap_or_else(|| Sequence::new(self.env.params.cfg));
        seq.start(&self.env, &job);
        // Consulted once per job, in admission order: the fault panics the
        // job inside its boundary in the step that admits it.
        let panics = fault::should_fault("pool.worker_panic");
        Active { id, job, seq, panics, sampled: None, done: None }
    }
}

/// A sequence's worst-case KV footprint in tokens: the whole prompt plus
/// (for generation) the full decode budget, capped at the context window.
fn worst_case_tokens(job: &Job, cfg: &ModelConfig) -> usize {
    let tokens = match job {
        Job::Score(j) => j.prompt.len(),
        Job::Generate(j) => j.prompt.len().saturating_add(j.max_new),
    };
    tokens.min(cfg.max_seq).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScoreReadout;
    use crate::EvalEngine;
    use astro_model::{InferenceSession, Params, SamplerConfig, SessionError, WeightPrecision};
    use astro_prng::Rng;
    use std::sync::Arc;

    /// A ledger of `n` cores for one test's schedulers alone.
    fn cores(n: usize) -> &'static StepCores {
        let ledger = Box::leak(Box::new(Cores::new(n)));
        Box::leak(Box::new(StepCores { ledger, spare: Mutex::default() }))
    }

    fn idle(cores: &StepCores) -> isize {
        cores.ledger.idle()
    }

    /// A result as bits: score vectors by `to_bits`, tokens as they are.
    type Bits = Result<(bool, Vec<u32>), ServeError>;

    fn bits(r: Result<SeqOutcome, ServeError>) -> Bits {
        r.map(|o| match o {
            SeqOutcome::Scores(s) => (true, s.iter().map(|x| x.to_bits()).collect()),
            SeqOutcome::Tokens(t) => (false, t),
        })
    }

    /// A seeded mix over three anchor groups on `ModelConfig::tiny`
    /// (`max_seq` 32): continuation and logit scores, greedy and sampled
    /// generates, one prompt past the context (its `CacheFull` is retried
    /// uncached, then is its result) — and the anchors.
    fn mixed_load(seed: u64) -> (Vec<Job>, HashMap<u64, Vec<u32>>) {
        let mut rng = Rng::seed_from(seed);
        let anchor = |g: u32| (0..6 + g).map(|i| (i * 5 + g) % 24).collect();
        let anchors: HashMap<u64, Vec<u32>> = (0..3).map(|g| (g as u64, anchor(g))).collect();
        let mut jobs = Vec::new();
        for i in 0..26u64 {
            let group = rng.index(4) as u64;
            let mut prompt = anchors.get(&group).cloned().unwrap_or_default();
            prompt.extend((0..rng.range(1, 12)).map(|_| rng.index(24) as u32));
            let job = match rng.index(3) {
                0 => Job::Score(ScoreJob {
                    prompt,
                    group: Some(group),
                    readout: ScoreReadout::ContinuationGroups(
                        (0..4)
                            .map(|_| {
                                let variants = rng.range(1, 3);
                                (0..variants)
                                    .map(|_| {
                                        (0..rng.range(1, 5)).map(|_| rng.index(24) as u32).collect()
                                    })
                                    .collect()
                            })
                            .collect(),
                    ),
                    trace: None,
                }),
                1 => Job::Score(ScoreJob {
                    prompt,
                    group: Some(group),
                    readout: ScoreReadout::LogitGroups(vec![
                        vec![1, 2],
                        vec![3],
                        vec![4, 5],
                        vec![],
                    ]),
                    trace: None,
                }),
                _ => Job::Generate(GenerateJob {
                    prompt,
                    group: Some(group),
                    max_new: rng.range(1, 12),
                    sampler: SamplerConfig { temperature: [0.0, 0.9][rng.index(2)], top_k: 0 },
                    rng: Rng::seed_from(seed ^ i),
                    stop: vec![0],
                    trace: None,
                }),
            };
            jobs.push(job);
        }
        let overlong = jobs.len() / 2;
        jobs.insert(
            overlong,
            Job::Score(ScoreJob {
                prompt: vec![3; 40],
                group: None,
                readout: ScoreReadout::LogitGroups(vec![vec![1]]),
                trace: None,
            }),
        );
        (jobs, anchors)
    }

    /// What one drive of a load leaves: every step's retirements in order,
    /// the schedule log, the cache's counters and the most workers a step
    /// ran on.
    struct Drive {
        retired: Vec<Vec<(usize, Bits)>>,
        log: SchedLog,
        cache: [u64; 5],
        peak_workers: usize,
    }

    /// Drive `jobs` through a scheduler whose steps may run on up to
    /// `workers` cores: half submitted up front, one more after each step;
    /// the first generate job panics in its unit the step after it is
    /// admitted, the way `pool.worker_panic` makes it.
    fn drive(
        params: &Params,
        workers: usize,
        jobs: &[Job],
        anchors: &HashMap<u64, Vec<u32>>,
    ) -> Drive {
        // Two snapshots' worth of cache: anchor inserts evict each other.
        let cache = crate::EngineConfig {
            max_cache_bytes: 2 * params.cfg.session_bytes(),
            ..crate::EngineConfig::pooled_with(1)
        };
        let engine = EvalEngine::new(cache, params);
        let mut sched = engine.iter_scheduler(SchedulerConfig {
            max_active: 6,
            prefill_chunk: 3,
            ..SchedulerConfig::default()
        });
        let ledger = cores(workers);
        sched.cores = ledger;
        sched.set_anchors(anchors.clone());
        let victim = jobs.iter().position(|j| matches!(j, Job::Generate(_)));
        let mut queue = jobs.iter().cloned();
        for job in queue.by_ref().take(jobs.len() / 2) {
            sched.submit_job(job).expect("submit");
        }
        let (mut retired, mut peak_workers, mut armed) = (Vec::new(), 0, false);
        while !sched.is_idle() {
            retired.push(sched.step().into_iter().map(|(id, r)| (id, bits(r))).collect());
            peak_workers = peak_workers.max(sched.workers);
            assert!(sched.workers <= workers, "{} workers on {workers} cores", sched.workers);
            if let Some(a) = sched.active.iter_mut().find(|a| Some(a.id) == victim && !armed) {
                a.panics = true;
                armed = true;
            }
            if let Some(job) = queue.next() {
                sched.submit_job(job).expect("submit");
            }
        }
        assert_eq!(idle(ledger), workers as isize, "an idle scheduler holds no core");
        let c = engine.cache_stats();
        Drive {
            retired,
            log: sched.sched_log().cloned().unwrap_or_default(),
            cache: [c.hits, c.misses, c.tokens_reused, c.evictions, c.resident_sessions],
            peak_workers,
        }
    }

    /// The split step against the inline one, bit for bit: seeded mixed
    /// loads in f32 and int8 at 1–4 workers retire the same results in the
    /// same order, record the same schedule log and leave the prefix cache
    /// with the same counters — `CacheFull` retry, injected worker panic,
    /// anchor snapshots and evictions included.
    #[test]
    fn a_step_split_over_workers_is_bitwise_the_inline_step() {
        for precision in [WeightPrecision::F32, WeightPrecision::Int8] {
            let params = Params::init(ModelConfig::tiny(24), &mut Rng::seed_from(9));
            let params = match precision {
                WeightPrecision::F32 => params,
                WeightPrecision::Int8 => params.quantized(),
            };
            for seed in [3, 17] {
                let (jobs, anchors) = mixed_load(seed);
                let inline = drive(&params, 1, &jobs, &anchors);
                let results: Vec<&Bits> = inline.retired.iter().flatten().map(|(_, r)| r).collect();
                assert_eq!(results.len(), jobs.len());
                let full = SessionError::CacheFull { pos: 32, max_seq: 32 };
                assert!(results.contains(&&Err(ServeError::Session(full))), "no CacheFull");
                assert!(results.contains(&&Err(ServeError::WorkerPanic)), "no worker panic");
                assert!(inline.cache[0] > 0 && inline.cache[3] > 0, "cache {:?}", inline.cache);
                for workers in 2..=4 {
                    let split = drive(&params, workers, &jobs, &anchors);
                    let at = format!("{precision:?} seed {seed}, {workers} workers");
                    assert_eq!(split.retired, inline.retired, "{at}");
                    assert_eq!(split.log, inline.log, "{at}");
                    assert_eq!(split.cache, inline.cache, "{at}");
                    assert_eq!(split.peak_workers, workers, "{at}: the step never split");
                }
            }
        }
    }

    /// The core ledger: a scheduler holds one core while it has work, a
    /// step borrows at most the idle rest and returns it — after a step,
    /// after a panicking unit, from an unwinding loan — with its scratch
    /// pool, so pools never outnumber cores; and a dropped scheduler gives
    /// back the core it held.
    #[test]
    fn every_borrowed_core_comes_back() {
        let params = Params::init(ModelConfig::tiny(24), &mut Rng::seed_from(4));
        let engine = EvalEngine::new(crate::EngineConfig::pooled_with(1), &params);
        let ledger = cores(3);
        let sched = || {
            let cfg = SchedulerConfig { prefill_chunk: 2, ..SchedulerConfig::default() };
            let mut s = engine.iter_scheduler(cfg);
            s.cores = ledger;
            s
        };
        let generate = |i: u32| GenerateJob {
            prompt: vec![i + 1, 7, 9, i, 2, 5],
            group: None,
            max_new: 6,
            sampler: SamplerConfig::greedy(),
            rng: Rng::seed_from(i as u64),
            stop: vec![],
            trace: None,
        };

        let mut s = sched();
        for i in 0..5 {
            s.submit_generate(generate(i)).expect("submit");
        }
        assert_eq!(idle(ledger), 3, "nothing held before the first step");
        s.step();
        // Five prefills run on all three cores; one stays held after.
        assert_eq!((s.workers, idle(ledger)), (3, 2));
        // Another scheduler holds a core: the step may borrow only the last.
        let held = ledger.ledger.hold();
        s.step();
        assert_eq!((s.workers, idle(ledger)), (2, 1));
        drop(held);
        s.active[1].panics = true;
        let victim = s.active[1].id;
        assert_eq!(s.step(), vec![(victim, Err(ServeError::WorkerPanic))]);
        assert_eq!(idle(ledger), 2, "a panicking unit loses no core");
        let done = s.run_to_completion();
        assert_eq!(done.len(), 4);
        assert_eq!(idle(ledger), 3, "an idle scheduler holds none");
        // Lent scratch came back with its cores: one pool per lendable core.
        assert_eq!(ledger.spares().1.len(), 2, "pools of the two lent cores");

        // A scheduler dropped mid-work hands back the core it held.
        let mut s = sched();
        s.submit_generate(generate(9)).expect("submit");
        s.step();
        assert_eq!(idle(ledger), 2);
        drop(s);
        assert_eq!(idle(ledger), 3);

        // A loan unwound through is returned; borrowing never takes more
        // than is idle.
        let unwound = std::panic::catch_unwind(|| {
            let loan = ledger.lend(8);
            assert_eq!(loan.pools.len(), 3);
            std::panic::panic_any("unit panicked");
        });
        assert!(unwound.is_err());
        assert_eq!(idle(ledger), 3);
        assert_eq!(ledger.spares().1.len(), 3, "no more pools than cores");
    }

    /// The stacked feed has a panic boundary of its own, and no fault site
    /// reaches it: plant a session of another `ModelConfig` under one of
    /// two decoding sequences, so `forward_rows`' same-config assertion
    /// fires inside the step's one forward. Exactly the lanes of that
    /// forward report `WorkerPanic`; the prefilling generate job, the score
    /// job and a job submitted afterwards retire with the results they
    /// have in a scheduler where nothing panicked, and the ledger is clean.
    #[test]
    fn a_panic_in_the_stacked_feed_fails_exactly_its_lanes_and_the_scheduler_steps_on() {
        let cfg = ModelConfig::tiny(24);
        let params = Arc::new(Params::init(cfg, &mut Rng::seed_from(5)));
        let sched = || {
            let env = SeqEnv { params: Arc::clone(&params), cache: None, anchors: HashMap::new() };
            IterScheduler::new(SchedulerConfig { prefill_chunk: 2, ..SchedulerConfig::default() }, env)
        };
        let generate = |prompt: Vec<u32>, max_new| GenerateJob {
            prompt,
            group: None,
            max_new,
            sampler: SamplerConfig::greedy(),
            rng: Rng::seed_from(1),
            stop: vec![],
            trace: None,
        };
        let bystanders = [
            Job::Generate(generate((1..=9).collect(), 4)),
            Job::Score(ScoreJob {
                prompt: (3..=9).collect(),
                group: None,
                readout: ScoreReadout::ContinuationGroups(vec![vec![vec![1, 2, 3]], vec![vec![4]]]),
                trace: None,
            }),
        ];
        let late = Job::Generate(generate(vec![5, 6], 3));

        let mut clean = sched();
        for job in bystanders.iter().chain([&late]) {
            clean.submit_job(job.clone()).expect("submit");
        }
        let mut want: Vec<_> = clean.run_to_completion();
        want.sort_by_key(|(id, _)| *id);
        let want: Vec<_> = want.into_iter().map(|(_, r)| r).collect();
        assert!(want.iter().all(Result::is_ok), "{want:?}");

        let mut sched = sched();
        let victims: Vec<usize> = (0..2)
            .map(|i| sched.submit_job(Job::Generate(generate(vec![7, i], 6))).expect("submit"))
            .collect();
        let mut ids: Vec<usize> = bystanders
            .iter()
            .map(|job| sched.submit_job(job.clone()).expect("submit"))
            .collect();
        // Step 1 prefills the victims' two tokens and installs their
        // decoders; the next step samples and feeds them.
        assert!(sched.step().is_empty());
        let foreign = ModelConfig { max_seq: cfg.max_seq + 8, ..cfg };
        sched.active[0].seq.plant_session(InferenceSession::new(foreign));
        let mut results: HashMap<usize, Result<SeqOutcome, ServeError>> =
            sched.step().into_iter().collect();
        let panicked: Vec<usize> = victims.iter().copied().filter(|id| results.contains_key(id)).collect();
        assert_eq!(panicked, victims, "both lanes of the failed forward retire in its step");
        assert_eq!(results.len(), 2, "and nobody else: {results:?}");
        ids.push(sched.submit_job(late).expect("submit"));
        results.extend(sched.run_to_completion());
        for id in &victims {
            assert_eq!(results[id], Err(ServeError::WorkerPanic), "victim {id}");
        }
        for (id, want) in ids.iter().zip(&want) {
            assert_eq!(&results[id], want, "bystander {id}");
        }
        assert_eq!(sched.ledger().active_blocks(), 0, "ledger leaked blocks");
        assert!(sched.ledger().check().is_ok());
    }

    #[test]
    fn ledger_reserve_release_roundtrip() {
        let mut l = KvLedger::new(16, 10);
        assert_eq!(l.blocks_for(1), 1);
        assert_eq!(l.blocks_for(16), 1);
        assert_eq!(l.blocks_for(17), 2);
        assert!(l.try_reserve(0, 64)); // 4 blocks
        assert!(!l.try_reserve(0, 1), "double reservation must fail");
        assert!(l.try_reserve(1, 96)); // 6 blocks -> full
        assert!(!l.try_reserve(2, 1), "over budget");
        assert_eq!(l.in_use(), 10);
        assert!(l.check().is_ok());
        assert_eq!(l.release(0), 4);
        assert_eq!(l.release(0), 0, "double release is a no-op");
        assert!(l.try_reserve(2, 1));
        assert!(l.check().is_ok());
    }

    #[test]
    fn ledger_counts_cached_blocks_against_the_budget() {
        let mut l = KvLedger::new(16, 4);
        l.set_cached_blocks(3);
        assert!(!l.try_reserve(0, 32), "2 blocks + 3 cached > 4");
        assert!(l.try_reserve(0, 16));
        assert_eq!(l.in_use(), 4);
        assert!(l.check().is_ok());
    }

    #[test]
    fn sched_log_jsonl_shape() {
        let log = SchedLog {
            steps: vec![StepRecord {
                step: 1,
                admitted: vec![0, 1],
                batch: vec![0, 1],
                retired: vec![],
                stalled: false,
            }],
        };
        let line = log.to_jsonl();
        assert!(line.contains("\"step\":1"), "{line}");
        assert!(line.contains("\"admitted\":[0,1]"), "{line}");
        assert!(line.contains("\"stalled\":false"), "{line}");
    }

    #[test]
    fn scheduler_config_validates() {
        assert!(SchedulerConfig::default().validate().is_ok());
        let bad = SchedulerConfig { max_active: 0, ..SchedulerConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SchedulerConfig { block_tokens: 0, ..SchedulerConfig::default() };
        assert!(bad.validate().is_err());
    }
}
