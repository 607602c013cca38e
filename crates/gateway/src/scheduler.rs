//! Continuous micro-batching scheduler.
//!
//! A single thread drains the request queue: it blocks for the first
//! pending request, keeps collecting until the batching window closes
//! (or `max_batch` is reached), then dispatches everything as *one*
//! engine batch. Because the engine's radix prefix cache deduplicates
//! shared prompt prefixes within a batch, concurrent clients asking
//! related questions get the same cache wins as an in-process batch —
//! that is where the gateway's throughput over serial comes from on a
//! single core.
//!
//! Determinism: the engine guarantees results are independent of batch
//! composition, so whatever coalescing the wall clock produces, each
//! response is bitwise identical to a serial run of that request alone.

use crate::queue::{BoundedQueue, Pop};
use astro_eval::{extract_answer, ExtractionStage};
use astro_serve::{
    EvalEngine, GenerateJob, IterScheduler, SchedulerConfig, ScoreJob, SeqOutcome, ServeError,
};
use astro_telemetry::trace::{self, TraceId};
use astro_telemetry::{metrics, span, TraceContext};
use astro_tokenizer::Tokenizer;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The work item carried by one pending request.
pub enum Work {
    /// A `/v1/score` request (token method readout).
    Score(ScoreJob),
    /// A `/v1/generate` request; options ride along for extraction.
    Generate {
        /// The prepared generation job.
        job: GenerateJob,
        /// The four options, needed by the extraction cascade.
        options: [String; 4],
    },
}

/// One admitted request waiting for a batch slot.
pub struct Pending {
    /// What to run.
    pub work: Work,
    /// Where the connection handler waits for the result.
    pub reply: mpsc::Sender<Reply>,
    /// Absolute deadline; expired requests are answered without running.
    pub deadline: Instant,
    /// When the request entered the queue (queue-wait histogram).
    pub enqueued: Instant,
    /// The request's trace, if the handler started one. The scheduler
    /// records the `queue_wait`/`batch_form`/`sync`/`extract` phases and
    /// threads the context into the engine job for the worker-side
    /// phases; the handler still owns `finish`.
    pub trace: Option<TraceId>,
}

/// Result sent back to the connection handler.
pub enum Reply {
    /// Token-method scores plus the argmax prediction.
    Score {
        /// Per-option readouts (bitwise-stable).
        scores: [f32; 4],
        /// Argmax over `scores` (ties resolve to the lowest index,
        /// matching `token_method_outcomes`).
        prediction: usize,
    },
    /// Full-instruct completion after the extraction cascade.
    Generate {
        /// Extracted option index, if any stage recovered one.
        prediction: Option<usize>,
        /// Which extraction stage produced the answer.
        stage: ExtractionStage,
        /// The raw decoded completion.
        raw: String,
    },
    /// The deadline passed while queued → 504.
    Expired,
    /// The engine failed this job → 500 with the message.
    Error(String),
}

/// Scheduler loop: runs until the queue is closed *and* drained, so a
/// graceful shutdown flushes every accepted request. Spawned once by
/// `Gateway::spawn`; never panics — engine errors become per-request
/// [`Reply::Error`]s.
pub fn run_scheduler(
    queue: Arc<BoundedQueue<Pending>>,
    engine: Arc<EvalEngine>,
    tokenizer: Arc<Tokenizer>,
    window: Duration,
    max_batch: usize,
) {
    loop {
        let first = match queue.pop(None) {
            Pop::Item(p) => p,
            Pop::Closed => return,
            Pop::TimedOut => continue,
        };
        note_popped(&first);
        let mut batch = vec![first];
        let window_end = Instant::now() + window;
        while batch.len() < max_batch {
            let now = Instant::now();
            if now >= window_end {
                break;
            }
            match queue.pop(Some(window_end - now)) {
                Pop::Item(p) => {
                    note_popped(&p);
                    batch.push(p);
                }
                // Closed: dispatch what we have; the next outer pop
                // observes Closed-and-empty and exits the loop.
                Pop::TimedOut | Pop::Closed => break,
            }
        }
        dispatch_batch(&engine, &tokenizer, batch);
        metrics::gauge("gateway.queue_depth").set(queue.depth() as i64);
    }
}

/// Close the request's `queue_wait` phase the moment it leaves the queue;
/// `batch_form` then runs from here until the batch dispatches.
fn note_popped(p: &Pending) {
    if let Some(t) = p.trace {
        trace::phase_since_last(t, "queue_wait");
    }
}

/// A request handed to the engine, waiting for its result.
struct Inflight {
    /// `Some` for generate jobs (the extraction cascade needs them).
    options: Option<[String; 4]>,
    reply: mpsc::Sender<Reply>,
    trace: Option<TraceId>,
}

impl Inflight {
    /// Answer the request with its engine result, closing the `sync`
    /// (result handed back) and `extract` (reply built) trace phases.
    fn answer(self, tokenizer: &Tokenizer, result: Result<SeqOutcome, ServeError>) {
        if let Some(t) = self.trace {
            trace::phase_since_last(t, "sync");
        }
        let msg = reply_for(tokenizer, result, self.options.as_ref());
        if let Some(t) = self.trace {
            trace::phase_since_last(t, "extract");
        }
        // A handler that already timed out has dropped its receiver;
        // that is its problem, not the scheduler's.
        let _ = self.reply.send(msg);
    }
}

/// Build the reply for one engine result: scores become the four
/// readouts plus their argmax, tokens go through the extraction cascade
/// (`options` is `Some` exactly for generate requests), an engine error
/// becomes a per-request [`Reply::Error`].
fn reply_for(
    tokenizer: &Tokenizer,
    result: Result<SeqOutcome, ServeError>,
    options: Option<&[String; 4]>,
) -> Reply {
    match (result, options) {
        (Ok(SeqOutcome::Scores(s)), _) => {
            let mut scores = [f32::NEG_INFINITY; 4];
            for (dst, src) in scores.iter_mut().zip(s.iter()) {
                *dst = *src;
            }
            let mut best = 0;
            for i in 1..4 {
                if scores[i] > scores[best] {
                    best = i;
                }
            }
            Reply::Score {
                scores,
                prediction: best,
            }
        }
        (Ok(SeqOutcome::Tokens(tokens)), Some(options)) => {
            let raw = tokenizer.decode(&tokens);
            let (prediction, stage) = extract_answer(&raw, options);
            Reply::Generate {
                prediction,
                stage,
                raw,
            }
        }
        // A score job cannot retire with tokens; degrade per-request.
        (Ok(SeqOutcome::Tokens(_)), None) => {
            Reply::Error("engine returned tokens for a score job".to_string())
        }
        (Err(e), _) => Reply::Error(e.to_string()),
    }
}

/// Iteration-level scheduler loop: the gateway's alternative to
/// [`run_scheduler`] when the engine runs in iteration mode
/// (`EngineConfig::iteration`). Instead of coalescing a whole batch and
/// dispatching it as one engine call, every queue arrival is submitted to
/// an [`IterScheduler`] immediately and the loop advances the mixed batch
/// one token per step — cheap score requests retire while long generates
/// are still decoding, so a slow request never head-of-line blocks a fast
/// one. There is no batching window: admission is continuous, so the
/// latency floor for a lone request is one engine step, not `window`.
///
/// Runs until the queue is closed *and* drained *and* every admitted
/// request has retired, so a graceful shutdown still flushes everything.
/// Determinism is inherited from the scheduler: each reply is bitwise
/// identical to a serial run of that request alone.
pub fn run_iter_scheduler(
    queue: Arc<BoundedQueue<Pending>>,
    engine: Arc<EvalEngine>,
    tokenizer: Arc<Tokenizer>,
    max_batch: usize,
) {
    let mut sched = engine.iter_scheduler(SchedulerConfig {
        max_active: max_batch.max(1),
        record_log: false,
        ..SchedulerConfig::default()
    });
    let mut inflight: HashMap<usize, Inflight> = HashMap::new();
    let mut anchors = AnchorTracker::default();
    // Prefill dedup: the first score of a group in flight is its
    // "leader"; identical followers arriving before the leader's anchor
    // snapshot exists would each re-encode the full prompt, so they park
    // in `deferred` until the leader retires and fork the cache instead.
    let mut leaders: HashMap<u64, usize> = HashMap::new();
    let mut deferred: HashMap<u64, Vec<Pending>> = HashMap::new();
    let mut closed = false;
    loop {
        if sched.is_idle() {
            if closed {
                return;
            }
            // Nothing to advance: block for the next arrival.
            match queue.pop(None) {
                Pop::Item(p) => {
                    offer(&mut sched, &mut inflight, &mut anchors, &mut leaders, &mut deferred, p)
                }
                Pop::Closed => return,
                Pop::TimedOut => continue,
            }
        }
        // Opportunistic non-blocking drain: admit whatever has arrived
        // into the running schedule without stalling the active batch.
        while !closed && sched.backlog() < sched.admit_capacity() {
            match queue.pop(Some(Duration::ZERO)) {
                Pop::Item(p) => {
                    offer(&mut sched, &mut inflight, &mut anchors, &mut leaders, &mut deferred, p)
                }
                Pop::Closed => {
                    closed = true;
                    break;
                }
                Pop::TimedOut => break,
            }
        }
        for (id, result) in sched.step() {
            if let Some(inf) = inflight.remove(&id) {
                inf.answer(&tokenizer, result);
            }
            // A retired leader has snapshotted its group's anchor; its
            // followers now fork the cached prefix at full depth.
            let group = leaders
                .iter()
                .find_map(|(g, lid)| (*lid == id).then_some(*g));
            if let Some(g) = group {
                leaders.remove(&g);
                for p in deferred.remove(&g).unwrap_or_default() {
                    submit_to_scheduler(&mut sched, &mut inflight, &mut anchors, p);
                }
            }
        }
        metrics::gauge("gateway.queue_depth").set(queue.depth() as i64);
    }
}

/// Route one popped request: defer score followers behind their group's
/// in-flight leader (see `run_iter_scheduler`), submit everything else.
fn offer(
    sched: &mut IterScheduler,
    inflight: &mut HashMap<usize, Inflight>,
    anchors: &mut AnchorTracker,
    leaders: &mut HashMap<u64, usize>,
    deferred: &mut HashMap<u64, Vec<Pending>>,
    p: Pending,
) {
    let group = match &p.work {
        Work::Score(job) => job.group,
        Work::Generate { .. } => None,
    };
    if let Some(g) = group {
        if leaders.contains_key(&g) {
            metrics::counter("gateway.sched.deferred").add(1);
            deferred.entry(g).or_default().push(p);
            return;
        }
    }
    let id = submit_to_scheduler(sched, inflight, anchors, p);
    if let (Some(g), Some(id)) = (group, id) {
        leaders.insert(g, id);
    }
}

/// Incremental shared-prefix anchors for the iteration scheduler.
///
/// The coalescing path computes each group's common prompt prefix per
/// batch and snapshots it in the radix cache; with continuous admission
/// there is no batch to scan, so the anchor is learned online instead:
/// the first prompt of a group anchors at its full length, and every
/// later prompt shrinks the anchor to the longest common prefix seen so
/// far. Anchors only steer *where* the cache snapshots — results are
/// bitwise identical either way — so a shrinking anchor is always safe.
///
/// The cluster router reuses this exact learner (over question bytes
/// instead of token ids) to derive prefix-affinity ring keys, so the
/// replica a request lands on is the one whose cache holds its group's
/// anchor.
#[derive(Default)]
pub struct AnchorTracker {
    anchors: HashMap<u64, Vec<u32>>,
}

impl AnchorTracker {
    /// An empty tracker with no learned anchors.
    pub fn new() -> Self {
        AnchorTracker::default()
    }

    /// The anchor learned for `group` so far, if any.
    pub fn anchor(&self, group: u64) -> Option<&[u32]> {
        self.anchors.get(&group).map(Vec::as_slice)
    }

    /// Fold `prompt` into its group's anchor; true when the map changed
    /// (and the scheduler needs a fresh copy).
    pub fn update(&mut self, group: Option<u64>, prompt: &[u32]) -> bool {
        let Some(g) = group else {
            return false;
        };
        match self.anchors.get_mut(&g) {
            None => {
                self.anchors.insert(g, prompt.to_vec());
                true
            }
            Some(a) => {
                let lcp = a.iter().zip(prompt).take_while(|(x, y)| x == y).count();
                if lcp < a.len() {
                    a.truncate(lcp);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Move one popped request into the iteration scheduler. Expired requests
/// are answered without running (exactly like the coalescing path's
/// dispatch-time expiry check); submission failures become per-request
/// errors, never a scheduler-thread panic.
fn submit_to_scheduler(
    sched: &mut IterScheduler,
    inflight: &mut HashMap<usize, Inflight>,
    anchors: &mut AnchorTracker,
    p: Pending,
) -> Option<usize> {
    note_popped(&p);
    let now = Instant::now();
    let wait = now.saturating_duration_since(p.enqueued);
    metrics::histogram("gateway.queue_wait_us").observe(wait.as_micros() as f64);
    if now >= p.deadline {
        metrics::counter("gateway.expired").add(1);
        if let Some(t) = p.trace {
            trace::mark_deadline(t);
            trace::phase_since_last(t, "batch_form");
        }
        let _ = p.reply.send(Reply::Expired);
        return None;
    }
    let ctx = p.trace.map(|t| {
        trace::phase_since_last(t, "batch_form");
        TraceContext {
            trace: t,
            parent_span: None,
        }
    });
    let submitted = match p.work {
        Work::Score(mut job) => {
            job.trace = ctx;
            // Score prompts are the only family with cross-request reuse
            // here (clients probe the same questions); generate prompts
            // share group ids but a different prompt family, and folding
            // them in would shrink the anchor below the useful prefix.
            if anchors.update(job.group, &job.prompt) {
                sched.set_anchors(anchors.anchors.clone());
            }
            sched.submit_score(job).map(|id| (id, None))
        }
        Work::Generate { mut job, options } => {
            job.trace = ctx;
            sched.submit_generate(job).map(|id| (id, Some(options)))
        }
    };
    match submitted {
        Ok((id, options)) => {
            inflight.insert(
                id,
                Inflight {
                    options,
                    reply: p.reply,
                    trace: p.trace,
                },
            );
            Some(id)
        }
        // The loop stops popping at capacity, so the backlog is not
        // expected to be full here, but a typed per-request error beats
        // trusting that forever.
        Err(e) => {
            let _ = p.reply.send(Reply::Error(e.to_string()));
            None
        }
    }
}

/// Run one coalesced batch through the engine and answer every request.
fn dispatch_batch(engine: &EvalEngine, tokenizer: &Tokenizer, batch: Vec<Pending>) {
    let span = span!("gateway.batch", size = batch.len());
    let now = Instant::now();
    metrics::counter("gateway.batches").add(1);
    metrics::histogram("gateway.batch_occupancy").observe(batch.len() as f64);
    for p in &batch {
        let wait = now.saturating_duration_since(p.enqueued);
        metrics::histogram("gateway.queue_wait_us").observe(wait.as_micros() as f64);
    }

    // Expired requests are answered immediately and never hit the engine.
    let (live, expired): (Vec<Pending>, Vec<Pending>) =
        batch.into_iter().partition(|p| now < p.deadline);
    for p in expired {
        metrics::counter("gateway.expired").add(1);
        if let Some(t) = p.trace {
            trace::mark_deadline(t);
            trace::phase_since_last(t, "batch_form");
        }
        let _ = p.reply.send(Reply::Expired);
    }

    // Close each member's `batch_form` phase and wire the cross-thread
    // causality edge both ways: the batch span records every member trace
    // it carries, and every member trace records the batch span, so the
    // analyzer can reconstruct which requests shared one engine dispatch.
    let parent = span.id();
    let (mut score_jobs, mut score_waiters) = (Vec::new(), Vec::new());
    let (mut generate_jobs, mut generate_waiters) = (Vec::new(), Vec::new());
    for p in live {
        let ctx = p.trace.map(|t| {
            trace::phase_since_last(t, "batch_form");
            trace::link(t, "gateway.batch", parent);
            span.link_trace(t.0);
            TraceContext {
                trace: t,
                parent_span: Some(parent),
            }
        });
        let (reply, trace) = (p.reply, p.trace);
        match p.work {
            Work::Score(mut job) => {
                job.trace = ctx;
                score_jobs.push(job);
                score_waiters.push(Inflight { options: None, reply, trace });
            }
            Work::Generate { mut job, options } => {
                job.trace = ctx;
                generate_jobs.push(job);
                generate_waiters.push(Inflight { options: Some(options), reply, trace });
            }
        }
    }
    span.record_f64("score_jobs", score_jobs.len() as f64);
    span.record_f64("generate_jobs", generate_jobs.len() as f64);

    if !score_jobs.is_empty() {
        for (result, waiter) in engine.score_batch(score_jobs).into_iter().zip(score_waiters) {
            waiter.answer(tokenizer, result.map(SeqOutcome::Scores));
        }
    }
    if !generate_jobs.is_empty() {
        for (result, waiter) in engine.generate_batch(generate_jobs).into_iter().zip(generate_waiters) {
            waiter.answer(tokenizer, result.map(SeqOutcome::Tokens));
        }
    }
}
