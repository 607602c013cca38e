//! Token-passing scheduler core for the bounded model checker.
//!
//! Real OS threads are serialised so that **exactly one controlled thread
//! runs at a time**: every instrumented operation (`crate::sync`) calls
//! [`yield_op`], which publishes the thread's pending operation, invokes
//! the scheduler to pick the next thread, and blocks until this thread is
//! granted the token again. Because the scheduler's choices are the only
//! source of nondeterminism, recording them yields a replayable schedule
//! and enumerating them yields exhaustive exploration (up to a preemption
//! bound, with sleep-set pruning).
//!
//! The design follows loom/shuttle: a persistent decision stack
//! ([`Level`]) drives stateless DFS — each execution replays the stack
//! prefix, extends it with first-choice decisions, and backtracking flips
//! the deepest level that still has untried alternatives.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::report::{Violation, ViolationKind};
use crate::schedule::StepRec;

/// Panic payload used to unwind controlled threads when an execution is
/// torn down (violation found, branch pruned, or replay divergence). The
/// panic hook recognises it and stays silent; user-level `catch_unwind`
/// may swallow one, but every subsequent instrumented operation re-checks
/// the abort flag and throws it again.
pub(crate) struct AbortExecution;

/// Abort panic that cannot be confused with user payloads.
pub(crate) fn abort_unwind() -> ! {
    std::panic::panic_any(AbortExecution)
}

/// Internal invariant failure inside the checker itself.
pub(crate) fn die(msg: String) -> ! {
    std::panic::panic_any(format!("astro-check internal error: {msg}"))
}

/// One instrumented operation a controlled thread may be about to
/// perform. Resource indices refer to [`Core::resources`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// Acquire a mutex.
    MutexLock(usize),
    /// Release a mutex.
    MutexUnlock(usize),
    /// Reacquire the paired mutex after a condvar wake-up.
    CvReacquire {
        /// Mutex to reacquire.
        mutex: usize,
    },
    /// Wake one waiter.
    CvNotifyOne(usize),
    /// Wake all waiters.
    CvNotifyAll(usize),
    /// First scheduling of a freshly spawned thread.
    Start,
    /// Parent-side scheduling point right after registering a child.
    Spawn(usize),
    /// Block until the target thread finishes.
    Join(usize),
}

/// Scheduling state of one controlled thread.
#[derive(Clone, Debug)]
pub(crate) enum Status {
    /// Holds the token and is executing user code.
    Running,
    /// Published a pending op and is waiting to be granted.
    Ready(Op),
    /// Parked on a condvar (released `mutex` atomically at wait).
    WaitingCv {
        /// The condvar waited on.
        cv: usize,
        /// The mutex to reacquire on wake-up.
        mutex: usize,
        /// Whether this is a `wait_timeout` (eligible for stall escape).
        timed: bool,
    },
    /// Returned (or unwound); joinable.
    Finished,
}

/// Outcome information delivered to the thread when its op is granted.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GrantInfo {
    /// For `CvReacquire`: true when the wake-up was the stall-escape
    /// timeout rather than a notify.
    pub timed_out: bool,
}

/// Per-thread record in the core.
pub(crate) struct TState {
    /// Scheduling status.
    pub status: Status,
    /// Debug name (schedule readability).
    pub name: String,
    /// Grant outcome for the most recent operation.
    pub grant: GrantInfo,
}

impl TState {
    fn new(name: String, status: Status) -> Self {
        TState { status, name, grant: GrantInfo::default() }
    }
}

/// Kind tag used when registering a resource lazily on first use.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ResourceKind {
    /// A `sync::Mutex`.
    Mutex,
    /// A `sync::Condvar`.
    Condvar,
}

/// Modelled state of one synchronisation resource.
pub(crate) enum Resource {
    /// Mutex: which thread virtually holds it.
    Mutex {
        /// Holder thread id, if locked.
        holder: Option<usize>,
        /// Debug name (set by `lock_ranked`), or "".
        name: &'static str,
    },
    /// Condvar: parked threads in wait order.
    Condvar {
        /// Waiting thread ids, FIFO.
        waiters: Vec<usize>,
    },
}

impl Resource {
    fn describe(&self, id: usize) -> String {
        match self {
            Resource::Mutex { name, .. } if !name.is_empty() => format!("m{id}:{name}"),
            Resource::Mutex { .. } => format!("m{id}"),
            Resource::Condvar { .. } => format!("cv{id}"),
        }
    }
}

/// One decision level of the persistent DFS stack.
#[derive(Clone, Debug)]
pub(crate) struct Level {
    /// Thread granted at this level in the current execution.
    pub chosen: usize,
    /// Alternatives not yet explored (flipped into `chosen` on backtrack).
    pub untried: Vec<usize>,
    /// Alternatives fully explored at this level (sleep-set seed).
    pub slept: Vec<usize>,
}

/// How the scheduler picks among eligible threads at a fresh level.
pub(crate) enum Mode {
    /// Depth-first enumeration (records untried alternatives).
    Dfs,
    /// Seeded random walk (no alternatives recorded).
    Random(astro_prng::Rng),
}

/// Why the execution stopped early.
pub(crate) enum Abort {
    /// A property violation — reported with its schedule.
    Violation(Violation),
    /// Sleep-set pruning proved this branch redundant.
    Pruned,
    /// Replay diverged from the recorded decision (checker bug or an
    /// impure model closure).
    Divergence(String),
}

/// Execution limits and strategy for one [`Core`].
pub(crate) struct RunCfg {
    /// Max preemptive context switches per execution.
    pub preemption_bound: usize,
    /// Max granted operations per execution (livelock bound).
    pub max_steps: usize,
    /// Whether sleep-set pruning is enabled.
    pub sleep_sets: bool,
    /// Choice strategy.
    pub mode: Mode,
}

/// The shared scheduler state: one per execution.
pub(crate) struct Core {
    /// Execution configuration.
    pub cfg: RunCfg,
    /// All controlled threads, indexed by tid.
    pub threads: Vec<TState>,
    /// All registered resources.
    pub resources: Vec<Resource>,
    /// Persistent decision stack (replayed prefix + fresh extension).
    pub levels: Vec<Level>,
    /// Current decision depth.
    pub depth: usize,
    /// Granted-op log for counterexample schedules.
    pub steps: Vec<StepRec>,
    /// Total grants this execution.
    pub step_count: usize,
    /// Preemptive switches so far.
    pub preemptions: usize,
    /// Most recently granted thread.
    pub last: usize,
    /// Current sleep set (thread ids whose pending op is already covered).
    pub cur_sleep: Vec<usize>,
    /// Early-stop reason, if any.
    pub abort: Option<Abort>,
    /// True when every thread finished normally.
    pub complete: bool,
    /// Controlled threads registered.
    pub live: usize,
    /// Controlled real threads that have returned.
    pub exited: usize,
    /// Unique execution epoch for lazy resource registration.
    pub epoch: u64,
}

/// Core plus its wake-up condvar; shared via `Arc` by every controlled
/// thread and the driver.
pub(crate) struct CoreShared {
    mu: StdMutex<Core>,
    cv: StdCondvar,
}

/// Monotonic epoch source so resources registered in a previous execution
/// are re-registered rather than aliased.
static EPOCH: AtomicU64 = AtomicU64::new(1);

impl CoreShared {
    pub(crate) fn new(cfg: RunCfg, levels: Vec<Level>) -> Self {
        let epoch = EPOCH.fetch_add(1, Ordering::Relaxed);
        CoreShared {
            mu: StdMutex::new(Core {
                cfg,
                threads: Vec::new(),
                resources: Vec::new(),
                levels,
                depth: 0,
                steps: Vec::new(),
                step_count: 0,
                preemptions: 0,
                last: 0,
                cur_sleep: Vec::new(),
                abort: None,
                complete: false,
                live: 0,
                exited: 0,
                epoch,
            }),
            cv: StdCondvar::new(),
        }
    }

    pub(crate) fn lock(&self) -> StdMutexGuard<'_, Core> {
        self.mu.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn wait<'a>(&self, g: StdMutexGuard<'a, Core>) -> StdMutexGuard<'a, Core> {
        self.cv.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn notify_all(&self) {
        self.cv.notify_all();
    }
}

/// Handle a controlled thread keeps in thread-local storage.
#[derive(Clone)]
pub(crate) struct ExecCtx {
    /// The execution this thread belongs to.
    pub core: Arc<CoreShared>,
    /// This thread's id.
    pub tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<ExecCtx>> = const { std::cell::RefCell::new(None) };
}

/// Install `ctx` as the current thread's execution context.
pub(crate) fn set_ctx(ctx: Option<ExecCtx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// The current thread's execution context, if it is controlled.
pub(crate) fn current_ctx() -> Option<ExecCtx> {
    CTX.try_with(|c| c.borrow().clone()).ok().flatten()
}

/// Lazily register a resource: `slot` caches `(epoch, id+1)` packed into
/// a u64 so an object surviving across executions re-registers cleanly.
pub(crate) fn resource_id(
    ctx: &ExecCtx,
    slot: &AtomicU64,
    kind: ResourceKind,
    name: &'static str,
) -> usize {
    let mut g = ctx.core.lock();
    let packed = slot.load(Ordering::Relaxed);
    let (ep, id1) = (packed >> 32, (packed & 0xffff_ffff) as usize);
    if ep == g.epoch && id1 != 0 {
        return id1 - 1;
    }
    let rid = g.resources.len();
    g.resources.push(match kind {
        ResourceKind::Mutex => Resource::Mutex { holder: None, name },
        ResourceKind::Condvar => Resource::Condvar { waiters: Vec::new() },
    });
    slot.store((g.epoch << 32) | (rid as u64 + 1), Ordering::Relaxed);
    rid
}

/// Attach a debug name to an already-or-soon registered mutex.
pub(crate) fn name_mutex(ctx: &ExecCtx, rid: usize, name: &'static str) {
    let mut g = ctx.core.lock();
    if let Some(Resource::Mutex { name: n, .. }) = g.resources.get_mut(rid) {
        if n.is_empty() {
            *n = name;
        }
    }
}

impl Core {
    fn mutex_holder_mut(&mut self, rid: usize) -> &mut Option<usize> {
        match self.resources.get_mut(rid) {
            Some(Resource::Mutex { holder, .. }) => holder,
            _ => die(format!("resource {rid} is not a mutex")),
        }
    }

    fn feasible(&self, op: Op) -> bool {
        match op {
            Op::MutexLock(m) | Op::CvReacquire { mutex: m } => {
                matches!(self.resources.get(m), Some(Resource::Mutex { holder: None, .. }))
            }
            Op::Join(t) => matches!(self.threads.get(t).map(|s| &s.status), Some(Status::Finished)),
            _ => true,
        }
    }

    /// Do the pending ops of two threads commute? Conservative: anything
    /// touching the same resource — or any thread-lifecycle op — is
    /// treated as dependent.
    fn dependent(a: Op, b: Op) -> bool {
        fn res(op: Op) -> Option<usize> {
            match op {
                Op::MutexLock(r)
                | Op::MutexUnlock(r)
                | Op::CvReacquire { mutex: r }
                | Op::CvNotifyOne(r)
                | Op::CvNotifyAll(r) => Some(r),
                Op::Start | Op::Spawn(_) | Op::Join(_) => None,
            }
        }
        match (res(a), res(b)) {
            (Some(ra), Some(rb)) => {
                if ra == rb {
                    return true;
                }
                // A notify touches both the condvar and (via reacquire
                // hand-off) its paired mutex; treat notify as dependent
                // with reacquire on any mutex to stay conservative.
                matches!(
                    (a, b),
                    (Op::CvNotifyOne(_) | Op::CvNotifyAll(_), Op::CvReacquire { .. })
                        | (Op::CvReacquire { .. }, Op::CvNotifyOne(_) | Op::CvNotifyAll(_))
                )
            }
            _ => true,
        }
    }

    fn describe_op(&self, op: Op) -> (String, String) {
        let r = |rid: usize| {
            self.resources.get(rid).map(|x| x.describe(rid)).unwrap_or_else(|| format!("r{rid}"))
        };
        match op {
            Op::MutexLock(m) => ("lock".into(), r(m)),
            Op::MutexUnlock(m) => ("unlock".into(), r(m)),
            Op::CvReacquire { mutex } => ("reacquire_after_wait".into(), r(mutex)),
            Op::CvNotifyOne(c) => ("notify_one".into(), r(c)),
            Op::CvNotifyAll(c) => ("notify_all".into(), r(c)),
            Op::Start => ("start".into(), String::new()),
            Op::Spawn(t) => ("spawn".into(), format!("t{t}")),
            Op::Join(t) => ("join".into(), format!("t{t}")),
        }
    }

    fn describe_blocked(&self) -> String {
        let mut parts = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            let what = match &t.status {
                Status::Running => "running".to_string(),
                Status::Finished => continue,
                Status::WaitingCv { cv, mutex, .. } => {
                    format!("waiting on cv{cv} (mutex m{mutex})")
                }
                Status::Ready(op) => {
                    let (o, r) = self.describe_op(*op);
                    format!("blocked at {o} {r}")
                }
            };
            parts.push(format!("t{i}:{}: {what}", t.name));
        }
        parts.join("; ")
    }

    fn grant(&mut self, tid: usize, op: Op) {
        match op {
            Op::MutexLock(m) | Op::CvReacquire { mutex: m } => {
                *self.mutex_holder_mut(m) = Some(tid);
            }
            Op::MutexUnlock(m) => {
                *self.mutex_holder_mut(m) = None;
            }
            Op::CvNotifyOne(c) => {
                if let Some(w) = self.cv_pop_waiter(c) {
                    self.wake_waiter(w, false);
                }
            }
            Op::CvNotifyAll(c) => {
                while let Some(w) = self.cv_pop_waiter(c) {
                    self.wake_waiter(w, false);
                }
            }
            Op::Start | Op::Spawn(_) | Op::Join(_) => {}
        }
        // A reacquire granted via the stall-escape carries its timeout flag
        // set by `wake_waiter`; preserve it for reacquires only.
        let timed_out =
            matches!(op, Op::CvReacquire { .. }) && self.threads[tid].grant.timed_out;
        let (opname, resource) = self.describe_op(op);
        self.steps.push(StepRec {
            step: self.steps.len(),
            thread: tid,
            name: self.threads[tid].name.clone(),
            op: opname,
            resource,
        });
        self.threads[tid].grant = GrantInfo { timed_out };
        self.threads[tid].status = Status::Running;
        self.last = tid;
    }

    fn cv_pop_waiter(&mut self, c: usize) -> Option<usize> {
        match self.resources.get_mut(c) {
            Some(Resource::Condvar { waiters }) if !waiters.is_empty() => Some(waiters.remove(0)),
            _ => None,
        }
    }

    fn wake_waiter(&mut self, w: usize, timed_out: bool) {
        if let Status::WaitingCv { mutex, .. } = self.threads[w].status {
            self.threads[w].status = Status::Ready(Op::CvReacquire { mutex });
            self.threads[w].grant.timed_out = timed_out;
        }
    }

    /// The scheduler: called (with the core locked) by whichever thread
    /// just gave up the token. Picks and grants the next thread, or sets
    /// `complete` / `abort`.
    pub(crate) fn pick_next(&mut self) {
        loop {
            if self.abort.is_some() || self.complete {
                return;
            }
            let mut eligible: Vec<usize> = Vec::new();
            for (i, t) in self.threads.iter().enumerate() {
                if let Status::Ready(op) = t.status {
                    if self.feasible(op) {
                        eligible.push(i);
                    }
                }
            }
            if eligible.is_empty() {
                // Timed condvar waits are a deadlock escape: when nothing
                // else can run, wake the lowest-id timed waiter as a
                // timeout. Deterministic, so replay is stable.
                let timed = self
                    .threads
                    .iter()
                    .position(|t| matches!(t.status, Status::WaitingCv { timed: true, .. }));
                if let Some(w) = timed {
                    if let Status::WaitingCv { cv, .. } = self.threads[w].status {
                        if let Some(Resource::Condvar { waiters }) = self.resources.get_mut(cv) {
                            waiters.retain(|&x| x != w);
                        }
                    }
                    self.wake_waiter(w, true);
                    continue;
                }
                if self.threads.iter().all(|t| matches!(t.status, Status::Finished)) {
                    self.complete = true;
                    return;
                }
                self.abort = Some(Abort::Violation(Violation {
                    kind: ViolationKind::Deadlock,
                    message: format!("deadlock: {}", self.describe_blocked()),
                    schedule: crate::schedule::Schedule::default(),
                }));
                return;
            }

            let chosen: usize;
            if self.depth < self.levels.len() {
                chosen = self.levels[self.depth].chosen;
                if !eligible.contains(&chosen) {
                    self.abort = Some(Abort::Divergence(format!(
                        "replay divergence at depth {}: recorded thread t{chosen} is not \
                         eligible (model closure must be deterministic)",
                        self.depth
                    )));
                    return;
                }
            } else {
                let cont = self.last;
                let cont_ok = eligible.contains(&cont);
                let bound_hit = self.preemptions >= self.cfg.preemption_bound;
                match &mut self.cfg.mode {
                    Mode::Dfs => {
                        let sleep: &[usize] = if self.cfg.sleep_sets { &self.cur_sleep } else { &[] };
                        let awake: Vec<usize> =
                            eligible.iter().copied().filter(|t| !sleep.contains(t)).collect();
                        if awake.is_empty() {
                            self.abort = Some(Abort::Pruned);
                            return;
                        }
                        let cands: Vec<usize> = if cont_ok && bound_hit {
                            if !awake.contains(&cont) {
                                self.abort = Some(Abort::Pruned);
                                return;
                            }
                            vec![cont]
                        } else {
                            let mut v = Vec::with_capacity(awake.len());
                            if awake.contains(&cont) {
                                v.push(cont);
                            }
                            for &t in &awake {
                                if !v.contains(&t) {
                                    v.push(t);
                                }
                            }
                            v
                        };
                        chosen = cands[0];
                        self.levels.push(Level {
                            chosen,
                            untried: cands[1..].to_vec(),
                            slept: Vec::new(),
                        });
                    }
                    Mode::Random(rng) => {
                        let cands: Vec<usize> =
                            if cont_ok && bound_hit { vec![cont] } else { eligible.clone() };
                        let idx = (rng.next_u64() % cands.len() as u64) as usize;
                        chosen = cands[idx];
                        self.levels.push(Level { chosen, untried: Vec::new(), slept: Vec::new() });
                    }
                }
            }

            let chosen_op = match self.threads[chosen].status {
                Status::Ready(op) => op,
                _ => die(format!("chosen thread t{chosen} is not ready")),
            };
            // Preemption accounting: switching away from a thread whose
            // pending op was runnable costs one preemption.
            if chosen != self.last {
                if let Status::Ready(op) = self.threads[self.last].status {
                    if self.feasible(op) {
                        self.preemptions += 1;
                    }
                }
            }
            // Sleep-set update: survivors are threads whose pending op is
            // independent of the op just granted.
            if self.cfg.sleep_sets {
                let inherited = self.levels[self.depth].slept.clone();
                let mut ns: Vec<usize> = Vec::new();
                let pool: Vec<usize> =
                    self.cur_sleep.iter().chain(inherited.iter()).copied().collect();
                for u in pool {
                    if u == chosen || ns.contains(&u) {
                        continue;
                    }
                    if let Status::Ready(uop) = self.threads[u].status {
                        if !Core::dependent(uop, chosen_op) {
                            ns.push(u);
                        }
                    }
                }
                self.cur_sleep = ns;
            }
            self.grant(chosen, chosen_op);
            self.depth += 1;
            self.step_count += 1;
            if self.step_count > self.cfg.max_steps {
                self.abort = Some(Abort::Violation(Violation {
                    kind: ViolationKind::StepBudget,
                    message: format!(
                        "execution exceeded {} steps — livelock or unbounded loop",
                        self.cfg.max_steps
                    ),
                    schedule: crate::schedule::Schedule::default(),
                }));
            }
            return;
        }
    }
}

/// Publish `op`, run the scheduler, and block until this thread is
/// granted the token again. Returns the grant outcome.
pub(crate) fn yield_op(ctx: &ExecCtx, op: Op) -> GrantInfo {
    if std::thread::panicking() {
        return unwind_effect(ctx, op);
    }
    let core = &ctx.core;
    let mut g = core.lock();
    if g.abort.is_some() {
        drop(g);
        abort_unwind();
    }
    g.threads[ctx.tid].status = Status::Ready(op);
    g.pick_next();
    core.notify_all();
    loop {
        if matches!(g.threads[ctx.tid].status, Status::Running) {
            break;
        }
        if g.abort.is_some() {
            drop(g);
            abort_unwind();
        }
        g = core.wait(g);
    }
    let info = g.threads[ctx.tid].grant;
    drop(g);
    info
}

/// Atomically release `mutex` and park on `cv`; returns after a notify
/// (or stall-escape timeout, when `timed`) once the mutex is virtually
/// reacquired.
pub(crate) fn yield_cv_wait(ctx: &ExecCtx, cv: usize, mutex: usize, timed: bool) -> GrantInfo {
    if std::thread::panicking() {
        // Unwinding: give the mutex back and do not park.
        let mut g = ctx.core.lock();
        *g.mutex_holder_mut(mutex) = None;
        ctx.core.notify_all();
        return GrantInfo::default();
    }
    let core = &ctx.core;
    let mut g = core.lock();
    if g.abort.is_some() {
        drop(g);
        abort_unwind();
    }
    *g.mutex_holder_mut(mutex) = None;
    if let Some(Resource::Condvar { waiters }) = g.resources.get_mut(cv) {
        waiters.push(ctx.tid);
    }
    g.threads[ctx.tid].status = Status::WaitingCv { cv, mutex, timed };
    g.threads[ctx.tid].grant = GrantInfo::default();
    g.pick_next();
    core.notify_all();
    loop {
        if matches!(g.threads[ctx.tid].status, Status::Running) {
            break;
        }
        if g.abort.is_some() {
            drop(g);
            abort_unwind();
        }
        g = core.wait(g);
    }
    let info = g.threads[ctx.tid].grant;
    drop(g);
    info
}

/// Minimal non-blocking state repair for ops performed while unwinding
/// (guard drops during a panic): apply releases, never park, never throw.
fn unwind_effect(ctx: &ExecCtx, op: Op) -> GrantInfo {
    let mut g = ctx.core.lock();
    if let Op::MutexUnlock(m) = op {
        *g.mutex_holder_mut(m) = None;
    }
    drop(g);
    ctx.core.notify_all();
    GrantInfo::default()
}

/// Register a new controlled thread (status `Ready(Start)`): the child's
/// real thread blocks in [`wait_until_started`] until the scheduler
/// grants its `Start` op.
pub(crate) fn register_thread(core: &Arc<CoreShared>, name: String) -> usize {
    let mut g = core.lock();
    let tid = g.threads.len();
    g.threads.push(TState::new(name, Status::Ready(Op::Start)));
    g.live += 1;
    tid
}

/// Register the root model thread (tid 0), which starts with the token.
pub(crate) fn register_root(core: &Arc<CoreShared>) -> usize {
    let mut g = core.lock();
    let tid = g.threads.len();
    g.threads.push(TState::new("main".to_string(), Status::Running));
    g.live += 1;
    g.last = tid;
    tid
}

/// Block until this freshly spawned thread is granted its `Start` op.
/// Returns false when the execution aborted before the thread ever ran
/// (the caller must still go through [`thread_exited`]).
pub(crate) fn wait_until_started(core: &Arc<CoreShared>, tid: usize) -> bool {
    let mut g = core.lock();
    loop {
        if matches!(g.threads[tid].status, Status::Running) {
            return true;
        }
        if g.abort.is_some() {
            g.threads[tid].status = Status::Finished;
            return false;
        }
        g = core.wait(g);
    }
}

/// Mark a controlled thread finished and hand the token onwards. Called
/// from the real thread's wrapper after user code returned or unwound.
pub(crate) fn finish_thread(core: &Arc<CoreShared>, tid: usize, panicked: bool) {
    let mut g = core.lock();
    g.threads[tid].status = Status::Finished;
    if panicked {
        // The panic hook records the violation; this is a safety net for
        // panics it could not attribute.
        if g.abort.is_none() {
            g.abort = Some(Abort::Violation(Violation {
                kind: ViolationKind::Panic,
                message: format!("thread t{tid} panicked (no hook capture)"),
                schedule: crate::schedule::Schedule::default(),
            }));
        }
    } else if g.abort.is_none() {
        g.pick_next();
    }
    drop(g);
    core.notify_all();
}

/// Count a real controlled thread as exited (driver barrier).
pub(crate) fn thread_exited(core: &Arc<CoreShared>) {
    let mut g = core.lock();
    g.exited += 1;
    drop(g);
    core.notify_all();
}

/// Record a violation from the panic hook (first panic wins).
pub(crate) fn record_panic_violation(ctx: &ExecCtx, message: String) {
    let mut g = ctx.core.lock();
    if g.abort.is_none() {
        g.abort = Some(Abort::Violation(Violation {
            kind: ViolationKind::Panic,
            message,
            schedule: crate::schedule::Schedule::default(),
        }));
    }
    drop(g);
    ctx.core.notify_all();
}

/// Queue used by the driver to learn about execution end. Not a shim
/// type — plain bookkeeping.
pub(crate) struct DriverView {
    /// Early-stop reason.
    pub abort: Option<Abort>,
    /// Decision stack to persist for backtracking.
    pub levels: Vec<Level>,
    /// Granted-op log.
    pub steps: Vec<StepRec>,
    /// Deepest step count observed.
    pub step_count: usize,
}

/// Driver side: block until the execution ends and every controlled real
/// thread has exited, then strip the core for the next round.
pub(crate) fn drive_to_end(core: &Arc<CoreShared>) -> DriverView {
    let mut g = core.lock();
    while !(g.complete || g.abort.is_some()) {
        g = core.wait(g);
    }
    core.notify_all();
    while g.exited < g.live {
        g = core.wait(g);
    }
    DriverView {
        abort: g.abort.take(),
        levels: std::mem::take(&mut g.levels),
        steps: std::mem::take(&mut g.steps),
        step_count: g.step_count,
    }
}
