//! The gateway's serving loop: one thread stepping an iteration-level
//! scheduler. A gateway runs one per core (at most one per `max_batch`
//! slot), each with its share of the slots, all popping the one queue over
//! the one engine — so they share one prefix-cache trie. A loop holds its
//! core while it has work; while other loops idle in `pop`, its steps
//! borrow their cores and split the step's sequences over them
//! (`astro_serve::scheduler`, *Cores*).
//!
//! Connection handlers push admitted requests onto the bounded queue;
//! [`run_iter_scheduler`] owns an [`IterScheduler`], takes a request off
//! the queue whenever the scheduler has a free slot, and advances the
//! mixed batch one unit of work per step — a prefill chunk or one decoded
//! token per active sequence — so cheap score requests retire while long
//! generates are still decoding. Requests wait *in the queue*, never in a
//! second backlog behind it: `queue_capacity` is the whole admission
//! bound, `queue_wait` the whole wait, and a request whose deadline passes
//! while it waits is answered without running.
//!
//! Anchors and leader/follower deferral are each loop's own: nothing
//! between loops is shared but the queue and the engine. The price is
//! bounded — a burst of same-group scores encodes its prefix at most once
//! per loop, and those encodes run on different cores.
//!
//! The loop does no per-request text work: it hands the engine's bare
//! result back and the connection handler, which holds the options and
//! the tokenizer, builds the response.
//!
//! Determinism: each sequence owns its session and pre-split RNG, so
//! whatever interleaving the wall clock produces, each response is
//! bitwise identical to a serial run of that request alone.

use crate::queue::{BoundedQueue, Pop};
use astro_serve::{
    EvalEngine, GenerateJob, IterScheduler, SchedulerConfig, ScoreJob, SeqOutcome, ServeError,
};
use astro_telemetry::metrics;
use astro_telemetry::trace::{self, TraceId};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// The work item carried by one pending request.
pub enum Work {
    /// A `/v1/score` request (token method readout).
    Score(ScoreJob),
    /// A `/v1/generate` request (full-instruct method).
    Generate(GenerateJob),
}

/// One admitted request waiting for a scheduler slot.
pub struct Pending {
    /// What to run.
    pub work: Work,
    /// Where the connection handler waits for the result.
    pub reply: mpsc::Sender<Reply>,
    /// Absolute deadline; expired requests are answered without running.
    pub deadline: Instant,
    /// When the request entered the queue (queue-wait histogram).
    pub enqueued: Instant,
    /// The request's trace. The loop closes its `queue_wait` phase and the
    /// scheduler records the rest up to `decode`; the handler owns every
    /// phase after the hand-back.
    pub trace: TraceId,
}

/// Result sent back to the connection handler.
pub enum Reply {
    /// The engine's result for this request; an `Err` becomes a 500.
    Done(Result<SeqOutcome, ServeError>),
    /// The deadline passed while queued → 504.
    Expired,
}

/// One serving loop. `Gateway::spawn` starts one per core, splitting its
/// `max_batch` between them; each runs until the queue is closed *and*
/// drained *and* every request it took has retired, so a graceful
/// shutdown flushes every accepted request. Never panics — engine errors
/// become per-request [`Reply::Done`]`(Err(_))`s.
///
/// A request leaves the queue only when one of this loop's `max_batch`
/// slots is free for it, so nothing queues up out of reach of the queue's
/// bound and its expiry check. There is no batching window: the latency
/// floor for a lone request is one engine step.
pub fn run_iter_scheduler(
    queue: Arc<BoundedQueue<Pending>>,
    engine: Arc<EvalEngine>,
    max_batch: usize,
) {
    let mut sched = engine.iter_scheduler(SchedulerConfig {
        max_active: max_batch,
        record_log: false,
        ..SchedulerConfig::default()
    });
    let mut inflight: HashMap<usize, mpsc::Sender<Reply>> = HashMap::new();
    let mut anchors = AnchorTracker::default();
    // Prefill dedup: the first score of a group in flight is its
    // "leader"; identical followers arriving before the leader's anchor
    // snapshot exists would each re-encode the full prompt, so they park
    // in `deferred` until the leader retires and fork the cache instead.
    let mut leaders: HashMap<u64, usize> = HashMap::new();
    let mut deferred: HashMap<u64, Vec<Pending>> = HashMap::new();
    let mut closed = false;
    loop {
        while !closed && slots_taken(&sched, &deferred) < max_batch {
            // Nothing to advance: block for the next arrival. Otherwise
            // take what has arrived without stalling the active batch.
            let next = if sched.is_idle() {
                queue.pop().map_or(Pop::Closed, Pop::Item)
            } else {
                queue.try_pop()
            };
            match next {
                Pop::Item(p) => {
                    offer(&mut sched, &mut inflight, &mut anchors, &mut leaders, &mut deferred, p)
                }
                Pop::Empty => break,
                Pop::Closed => closed = true,
            }
        }
        if sched.is_idle() && closed {
            return;
        }
        for (id, result) in sched.step() {
            if let Some(reply) = inflight.remove(&id) {
                // A handler that already timed out has dropped its
                // receiver; that is its problem, not the scheduler's.
                let _ = reply.send(Reply::Done(result));
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

/// How many of the scheduler's slots are spoken for: active sequences,
/// submissions the next step admits, and parked followers — each of which
/// holds the slot it will run in.
fn slots_taken(sched: &IterScheduler, deferred: &HashMap<u64, Vec<Pending>>) -> usize {
    let parked: usize = deferred.values().map(Vec::len).sum();
    sched.active_len() + sched.backlog() + parked
}

/// Route one popped request: defer score followers behind their group's
/// in-flight leader (see `run_iter_scheduler`), submit everything else.
fn offer(
    sched: &mut IterScheduler,
    inflight: &mut HashMap<usize, mpsc::Sender<Reply>>,
    anchors: &mut AnchorTracker,
    leaders: &mut HashMap<u64, usize>,
    deferred: &mut HashMap<u64, Vec<Pending>>,
    p: Pending,
) {
    let group = match &p.work {
        Work::Score(job) => job.group,
        Work::Generate(_) => None,
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

/// Incremental shared-prefix anchors for the scheduler.
///
/// An offline engine batch computes each group's common prompt prefix up
/// front and snapshots it in the radix cache; with continuous admission
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

/// Move one request into the scheduler, closing its `queue_wait` phase
/// (which, for a deferred follower, includes the wait behind its leader).
/// A request whose deadline has passed is answered [`Reply::Expired`]
/// without running.
fn submit_to_scheduler(
    sched: &mut IterScheduler,
    inflight: &mut HashMap<usize, mpsc::Sender<Reply>>,
    anchors: &mut AnchorTracker,
    p: Pending,
) -> Option<usize> {
    trace::phase_since_last(p.trace, "queue_wait");
    let now = Instant::now();
    let wait = now.saturating_duration_since(p.enqueued);
    metrics::histogram("gateway.queue_wait_us").observe(wait.as_micros() as f64);
    if now >= p.deadline {
        metrics::counter("gateway.expired").add(1);
        trace::mark_deadline(p.trace);
        let _ = p.reply.send(Reply::Expired);
        return None;
    }
    let submitted = match p.work {
        Work::Score(mut job) => {
            job.trace = Some(p.trace);
            // Score prompts are the only family with cross-request reuse
            // here (clients probe the same questions); generate prompts
            // share group ids but a different prompt family, and folding
            // them in would shrink the anchor below the useful prefix.
            if anchors.update(job.group, &job.prompt) {
                sched.set_anchors(anchors.anchors.clone());
            }
            sched.submit_score(job)
        }
        Work::Generate(mut job) => {
            job.trace = Some(p.trace);
            sched.submit_generate(job)
        }
    };
    // The slot gate keeps the scheduler's backlog below `max_batch`, far
    // under its own capacity, so a refusal is not expected; if one comes,
    // dropping the sender has the handler answer 503 + `Retry-After`.
    let id = submitted.ok()?;
    inflight.insert(id, p.reply);
    Some(id)
}
