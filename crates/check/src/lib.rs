//! astro-check: a deterministic bounded model checker for the serving
//! stack's concurrency protocols (loom/shuttle-style).
//!
//! # How it works
//!
//! A *model* is a closure that builds some shared state and spawns
//! threads through the [`sync`] shim ([`sync::Mutex`], [`sync::Condvar`],
//! [`sync::thread`]). Inside [`explore`] those threads are real OS
//! threads, but a token-passing scheduler serialises them:
//! every instrumented operation publishes itself and blocks until the
//! scheduler grants it, so the scheduler's choices are the *only* source
//! of nondeterminism. Recording the choices yields a replayable
//! schedule; enumerating them with stateless DFS yields exhaustive
//! exploration of all interleavings, bounded by:
//!
//! * a **preemption bound** — at most N involuntary context switches per
//!   execution (empirically, almost all concurrency bugs need ≤ 2);
//! * **sleep-set pruning** — a thread whose pending op was already
//!   explored at a state stays asleep until a *dependent* op (same
//!   resource) executes, cutting commuting permutations;
//! * a **step budget** per execution (livelock detection).
//!
//! [`explore_random`] trades exhaustiveness for depth: a seeded random
//! walk over schedules, for state spaces too big to enumerate.
//!
//! # Violations and counterexamples
//!
//! Deadlock (every thread blocked), a panicked thread (failed harness
//! assertion or product panic), or step-budget exhaustion stop the run
//! and produce a [`Violation`] carrying the full [`Schedule`] — a JSONL
//! decision log that [`replay`] re-executes deterministically.
//!
//! # Integration
//!
//! Product code uses `astro_telemetry::sync`, which re-exports `std`
//! types in normal builds (zero overhead) and these shims under
//! `--cfg astro_check`; model-checked harnesses for the real gateway
//! queue, pool quiescence, prefix-cache and trace-ring protocols live in
//! their owning crates behind that cfg. The protocol *models* in
//! [`models`] (including seeded mutants proving the checker detects
//! dropped notifies, wait-`if`s and skipped drains) use the shim
//! directly and run in every build.
//!
//! Not supported inside a model: `std::sync` primitives (invisible to
//! the scheduler), time-based logic (`wait_timeout` durations are
//! abstracted to "fires when the system would otherwise stall"), and
//! sharing shim objects between controlled and uncontrolled threads.

pub mod models;
mod report;
mod sched;
pub mod schedule;
pub mod sync;

pub use report::{Report, Violation, ViolationKind};
pub use schedule::Schedule;

pub(crate) use sched::die as sched_die;

use sched::{Abort, CoreShared, Level, Mode, RunCfg};
use std::sync::{Arc, OnceLock};

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Max involuntary context switches per execution (default 2).
    pub preemption_bound: usize,
    /// Stop after this many executions (default 200 000).
    pub max_schedules: u64,
    /// Per-execution granted-op budget (default 20 000).
    pub max_steps: usize,
    /// Enable sleep-set pruning (default true).
    pub sleep_sets: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            preemption_bound: 2,
            max_schedules: 200_000,
            max_steps: 20_000,
            sleep_sets: true,
        }
    }
}

/// Install the process-wide panic hook that converts a controlled
/// thread's panic into a recorded violation (and silences abort
/// unwinds). Chains to the previous hook for uncontrolled threads.
fn install_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<sched::AbortExecution>() {
                return; // scheduled teardown, not a failure
            }
            if let Some(ctx) = sched::current_ctx() {
                let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                let at = info
                    .location()
                    .map(|l| format!(" at {}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                sched::record_panic_violation(&ctx, format!("panic{at}: {msg}"));
                return;
            }
            prev(info);
        }));
    });
}

enum Outcome {
    Explored,
    Pruned,
    Violation(Violation),
}

struct Explorer {
    cfg: CheckConfig,
    levels: Vec<Level>,
    report: Report,
}

impl Explorer {
    fn new(cfg: CheckConfig) -> Self {
        Explorer { cfg, levels: Vec::new(), report: Report::default() }
    }

    /// Run the model once, replaying `self.levels` as a prefix; returns
    /// the outcome and leaves the (possibly extended) decision stack in
    /// `self.levels`.
    fn run_once(&mut self, f: &Arc<dyn Fn() + Send + Sync>, mode: Mode) -> Outcome {
        install_hook();
        let run_cfg = RunCfg {
            preemption_bound: self.cfg.preemption_bound,
            max_steps: self.cfg.max_steps,
            sleep_sets: self.cfg.sleep_sets && matches!(mode, Mode::Dfs),
            mode,
        };
        let core = Arc::new(CoreShared::new(run_cfg, std::mem::take(&mut self.levels)));
        let tid0 = sched::register_root(&core);
        let (f2, c2) = (f.clone(), core.clone());
        let spawned = std::thread::Builder::new().name("astro-check-main".into()).spawn(move || {
            sched::set_ctx(Some(sched::ExecCtx { core: c2.clone(), tid: tid0 }));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f2()));
            sched::finish_thread(&c2, tid0, r.is_err());
            sched::thread_exited(&c2);
        });
        let handle = match spawned {
            Ok(h) => h,
            Err(e) => sched::die(format!("failed to spawn model thread: {e}")),
        };
        let view = sched::drive_to_end(&core);
        let _ = handle.join();
        self.levels = view.levels;
        self.report.max_steps_seen = self.report.max_steps_seen.max(view.step_count);
        match view.abort {
            None => Outcome::Explored,
            Some(Abort::Pruned) => Outcome::Pruned,
            Some(Abort::Divergence(msg)) => Outcome::Violation(Violation {
                kind: ViolationKind::Divergence,
                message: msg,
                schedule: Schedule::from_steps(view.steps),
            }),
            Some(Abort::Violation(mut v)) => {
                v.schedule = Schedule::from_steps(view.steps);
                Outcome::Violation(v)
            }
        }
    }

    /// Backtrack: flip the deepest level with untried alternatives.
    /// Returns false when the tree is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(mut lvl) = self.levels.pop() {
            if !lvl.untried.is_empty() {
                lvl.slept.push(lvl.chosen);
                lvl.chosen = lvl.untried.remove(0);
                self.levels.push(lvl);
                return true;
            }
        }
        false
    }
}

/// Exhaustively explore every interleaving of `model` up to the
/// configured preemption bound. Stops at the first violation.
///
/// The model closure is executed once per schedule and must be
/// deterministic apart from thread interleaving (no wall-clock logic, no
/// global mutable state shared across executions).
pub fn explore<F>(cfg: &CheckConfig, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut ex = Explorer::new(*cfg);
    loop {
        match ex.run_once(&f, Mode::Dfs) {
            Outcome::Violation(v) => {
                ex.report.violation = Some(v);
                break;
            }
            Outcome::Explored => ex.report.schedules += 1,
            Outcome::Pruned => ex.report.pruned += 1,
        }
        if ex.report.executions() >= ex.cfg.max_schedules {
            ex.report.truncated = true;
            break;
        }
        if !ex.backtrack() {
            break;
        }
    }
    ex.report
}

/// Seeded random-walk exploration: `iterations` independent executions
/// with uniformly random scheduling choices (still respecting the
/// preemption bound). Deterministic for a fixed seed. Stops at the first
/// violation.
pub fn explore_random<F>(cfg: &CheckConfig, seed: u64, iterations: u64, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut ex = Explorer::new(*cfg);
    for i in 0..iterations {
        ex.levels.clear();
        let rng = astro_prng::Rng::seed_from(seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        match ex.run_once(&f, Mode::Random(rng)) {
            Outcome::Violation(v) => {
                ex.report.violation = Some(v);
                break;
            }
            Outcome::Explored => ex.report.schedules += 1,
            Outcome::Pruned => ex.report.pruned += 1,
        }
    }
    ex.report
}

/// Re-execute a recorded counterexample schedule deterministically.
/// The decision prefix is forced; past the end of the schedule the
/// scheduler continues with default (first-eligible) choices.
pub fn replay<F>(cfg: &CheckConfig, schedule: &Schedule, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
    let mut ex = Explorer::new(*cfg);
    ex.levels = schedule
        .decisions()
        .into_iter()
        .map(|t| Level { chosen: t, untried: Vec::new(), slept: Vec::new() })
        .collect();
    match ex.run_once(&f, Mode::Dfs) {
        Outcome::Violation(v) => ex.report.violation = Some(v),
        Outcome::Explored => ex.report.schedules = 1,
        Outcome::Pruned => ex.report.pruned = 1,
    }
    ex.report
}

/// Write a counterexample schedule (if any) to `path` as JSONL; returns
/// whether a file was written.
pub fn dump_counterexample(report: &Report, path: &std::path::Path) -> std::io::Result<bool> {
    match &report.violation {
        Some(v) => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let header = format!(
                "{{\"violation\":\"{}\",\"message\":\"{}\"}}\n",
                v.kind.label(),
                v.message.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"),
            );
            std::fs::write(path, format!("{header}{}", v.schedule.to_jsonl()))?;
            Ok(true)
        }
        None => Ok(false),
    }
}
