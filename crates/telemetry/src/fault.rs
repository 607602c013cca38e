//! Deterministic fault injection behind zero-cost hooks, scoped to the
//! threads that run it.
//!
//! Production code asks [`should_fault("site")`](should_fault) at each
//! injectable site. The hook reads only the calling thread's plan: a
//! [`Faults`] handle that a test made current with [`Faults::enter`]. On a
//! thread with no plan the call is one thread-local read — a unit test
//! below bounds its cost per call. With a [`FaultPlan`] installed in the
//! thread's handle, every call increments that site's hit counter under a
//! ranked lock (`telemetry.fault_plan`) and fires each matching trigger
//! **exactly once** when the counter reaches its configured value. Plans
//! are data (site name + hit number), so a chaos run is reproducible: the
//! same plan against the same binary faults at the same instruction.
//!
//! A plan is never process state. Every thread the workspace starts is
//! started by [`cores::run`](crate::cores::run) or
//! [`cores::spawn`](crate::cores::spawn), and both enter the spawning
//! thread's plan on the new thread; so a test enters an empty handle,
//! starts what it tests (a study, a gateway, a cluster) and installs its
//! plan, and every thread started inside that scope — connection threads
//! accepted later included — shares the handle's triggers and hit counts.
//! No other thread sees them, so tests arm plans in parallel.

use crate::lockcheck::{self, LockToken};
use crate::{counter, info};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Catalogue of every injectable site wired into the workspace; see
/// docs/RESILIENCE.md for what each one simulates.
pub const SITES: &[&str] = &[
    "ckpt.write_truncate",
    "pool.worker_panic",
    "train.nan_loss",
    "serve.cache_full",
    "io.partial_read",
    "study.stage_boundary",
    "gateway.accept_fail",
    "gateway.slow_client",
    "gateway.queue_poison",
    "serve.admit_stall",
    "replica.crash",
    "replica.hang",
    "router.probe_timeout",
    "router.forward_reset",
];

/// Panic payload used when a plan injects a panic (the serve scheduler's
/// `pool.worker_panic` site), so `catch_unwind` handlers and
/// panic-hook output can tell an injected panic from a genuine one.
#[derive(Clone, Copy, Debug)]
pub struct FaultPanic(pub &'static str);

/// A deterministic set of one-shot triggers: `(site, fire_on_hit)`
/// pairs. Each trigger fires the first time its site's hit counter
/// reaches `fire_on_hit`, then never again (until a new plan is
/// installed). The default plan is empty: installing it arms the hit
/// counters but fires nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    triggers: Vec<(String, u64)>,
}

impl FaultPlan {
    /// A plan with a single trigger: fault `site` on its
    /// `fire_on_hit`-th hit (1-based; 0 is clamped to 1).
    pub fn single(site: &str, fire_on_hit: u64) -> Self {
        FaultPlan::default().and(site, fire_on_hit)
    }

    /// Add another one-shot trigger to the plan.
    #[must_use]
    pub fn and(mut self, site: &str, fire_on_hit: u64) -> Self {
        self.triggers.push((site.to_string(), fire_on_hit.max(1)));
        self
    }
}

struct ActiveTrigger {
    site: String,
    fire_on_hit: u64,
    fired: bool,
}

struct Armory {
    triggers: Vec<ActiveTrigger>,
    hits: HashMap<String, u64>,
}

/// A handle to one fault plan — its triggers and hit counts, shared by
/// every clone. A new handle holds no plan: the hooks of the threads that
/// enter it count nothing and fire nothing until [`Faults::install`].
#[derive(Clone, Default)]
pub struct Faults(Arc<Mutex<Option<Armory>>>);

thread_local! {
    /// The calling thread's plan, set by [`Faults::enter`].
    static CURRENT: RefCell<Option<Faults>> = const { RefCell::new(None) };
}

impl Faults {
    fn state(&self) -> (LockToken, MutexGuard<'_, Option<Armory>>) {
        // Poisoning cannot corrupt the armory (all writes are field
        // stores); `lock_ranked` recovers rather than propagate a panic
        // out of the fault substrate.
        lockcheck::lock_ranked("telemetry.fault_plan", &self.0)
    }

    /// Install `plan`, arming the hooks and resetting all hit counters.
    /// Replaces any previously installed plan.
    pub fn install(&self, plan: FaultPlan) {
        let summary = format!("{:?}", plan.triggers);
        let triggers = plan.triggers.into_iter().map(|(site, fire_on_hit)| {
            ActiveTrigger { site, fire_on_hit, fired: false }
        });
        *self.state().1 = Some(Armory { triggers: triggers.collect(), hits: HashMap::new() });
        info!("fault plan installed: {summary}");
    }

    /// Remove the installed plan and disarm every hook that reads it.
    pub fn clear(&self) {
        *self.state().1 = None;
    }

    /// True when an installed trigger for `site` has already fired
    /// (test/assertion hook).
    pub fn fired(&self, site: &str) -> bool {
        let (_token, state) = self.state();
        state.as_ref().is_some_and(|a| a.triggers.iter().any(|t| t.fired && t.site == site))
    }

    /// How many times `site` has been hit since the current plan was
    /// installed (0 when disarmed; test/assertion hook).
    pub fn hits(&self, site: &str) -> u64 {
        let (_token, state) = self.state();
        state.as_ref().and_then(|a| a.hits.get(site).copied()).unwrap_or(0)
    }

    /// Make this handle the calling thread's plan until the returned
    /// guard drops, which restores the previous one — also when the
    /// thread unwinds.
    pub fn enter(&self) -> Entered {
        let previous = CURRENT.with(|c| c.replace(Some(self.clone())));
        Entered { faults: self.clone(), previous }
    }

    #[cold]
    fn hit(&self, site: &str) -> bool {
        let (_token, mut state) = self.state();
        let Some(armory) = state.as_mut() else {
            return false;
        };
        let entry = armory.hits.entry(site.to_string()).or_insert(0);
        *entry += 1;
        let hit = *entry;
        for trigger in &mut armory.triggers {
            if !trigger.fired && trigger.site == site && hit == trigger.fire_on_hit {
                trigger.fired = true;
                counter("fault.injected").inc();
                info!("fault injected: {site} (hit {hit})");
                return true;
            }
        }
        false
    }
}

/// A thread's entry into a [`Faults`] plan; dropping it restores the
/// plan the thread had before. It derefs to the handle it entered, so a
/// test that keeps no other handle writes
/// `let faults = Faults::default().enter();`.
#[must_use = "the plan is the thread's only until the guard drops"]
pub struct Entered {
    faults: Faults,
    previous: Option<Faults>,
}

impl std::ops::Deref for Entered {
    type Target = Faults;

    fn deref(&self) -> &Faults {
        &self.faults
    }
}

impl Drop for Entered {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// The calling thread's plan, `None` outside any [`Faults::enter`].
pub fn current() -> Option<Faults> {
    CURRENT.with(|c| c.borrow().clone())
}

/// `f`, wrapped to run under the calling thread's plan on whichever
/// thread calls it: how [`cores`](crate::cores) carries a plan onto the
/// threads it starts.
pub fn inherit<T>(f: impl FnOnce() -> T) -> impl FnOnce() -> T {
    let plan = current();
    move || {
        let _plan = plan.as_ref().map(Faults::enter);
        f()
    }
}

/// The hook: returns true exactly when a trigger of the calling thread's
/// plan for `site` fires on this hit. With no plan it is one thread-local
/// read.
#[inline]
pub fn should_fault(site: &str) -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|faults| faults.hit(site)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;
    use std::sync::Barrier;

    #[test]
    fn disarmed_hook_never_fires_and_is_free() {
        use std::hint::black_box;
        // The hooks sit on per-token paths, so "disarmed" must mean one
        // thread-local read: measured ~1 ns/call. The bound is a generous
        // 50 ns — an armed plan's bookkeeping (~75 ns) fails it, a
        // descheduled test thread does not.
        let calls = 2_000_000u32;
        let t = std::time::Instant::now();
        let fired = (0..calls)
            .filter(|_| black_box(should_fault(black_box("serve.cache_full"))))
            .count();
        let ns_per_call = t.elapsed().as_secs_f64() * 1e9 / f64::from(calls);
        assert_eq!(fired, 0, "disarmed hook reported armed");
        assert!(ns_per_call <= 50.0, "disarmed hook costs {ns_per_call:.1} ns/call");
        assert_eq!(current().map_or(0, |faults| faults.hits("serve.cache_full")), 0);
    }

    #[test]
    fn fires_exactly_once_on_the_configured_hit() {
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("train.nan_loss", 3));
        let fires: Vec<bool> = (0..6).map(|_| should_fault("train.nan_loss")).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert!(faults.fired("train.nan_loss"));
        assert_eq!(faults.hits("train.nan_loss"), 6);
        faults.clear();
        assert!(!should_fault("train.nan_loss"));
    }

    #[test]
    fn sites_are_independent_and_multi_trigger_plans_work() {
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("io.partial_read", 1).and("serve.cache_full", 2));
        assert!(!should_fault("serve.cache_full"));
        assert!(should_fault("io.partial_read"));
        assert!(should_fault("serve.cache_full"));
        assert!(!should_fault("io.partial_read"), "one-shot: must not re-fire");
    }

    #[test]
    fn reinstall_resets_counters() {
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("ckpt.write_truncate", 2));
        assert!(!should_fault("ckpt.write_truncate"));
        faults.install(FaultPlan::single("ckpt.write_truncate", 2));
        assert!(!should_fault("ckpt.write_truncate"), "counter must reset on reinstall");
        assert!(should_fault("ckpt.write_truncate"));
    }

    #[test]
    fn the_callers_plan_fires_on_every_thread_the_runner_and_spawn_start() {
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("replica.crash", 1));
        // Only queue 1, a worker thread, hits the site.
        let results = cores::run("fault-test", vec![false, true], |hits| {
            hits && should_fault("replica.crash")
        });
        let fired: Vec<bool> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(fired, [false, true]);
        assert_eq!(faults.hits("replica.crash"), 1);

        faults.install(FaultPlan::single("replica.hang", 1));
        let spawned = cores::spawn("fault-test", || should_fault("replica.hang"));
        assert!(spawned.expect("spawn").join().expect("no panic"));
        assert!(faults.fired("replica.hang"));
        drop(faults);
        assert!(current().is_none(), "the guard restores the previous plan");
    }

    #[test]
    fn two_threads_with_their_own_plans_count_only_their_own_hits() {
        let both_armed = Arc::new(Barrier::new(2));
        let armed_on = |hit: u64| {
            let both_armed = Arc::clone(&both_armed);
            cores::spawn("fault-test", move || {
                let faults = Faults::default().enter();
                faults.install(FaultPlan::single("serve.admit_stall", hit));
                both_armed.wait();
                let fires: Vec<bool> = (0..5).map(|_| should_fault("serve.admit_stall")).collect();
                (fires, faults.hits("serve.admit_stall"))
            })
        };
        let (a, b) = (armed_on(2).expect("spawn"), armed_on(4).expect("spawn"));
        assert_eq!(a.join().expect("no panic"), (vec![false, true, false, false, false], 5));
        assert_eq!(b.join().expect("no panic"), (vec![false, false, false, true, false], 5));
    }

    #[test]
    fn a_thread_with_no_plan_never_fires_while_another_is_armed() {
        let faults = Faults::default().enter();
        faults.install(FaultPlan::single("gateway.accept_fail", 1));
        // A thread started outside the workspace's runner enters nothing.
        let bystander = std::thread::spawn(|| (0..3).any(|_| should_fault("gateway.accept_fail")));
        assert!(!bystander.join().expect("no panic"));
        assert_eq!(faults.hits("gateway.accept_fail"), 0, "the bystander's hits counted");
        assert!(should_fault("gateway.accept_fail"));
    }
}
