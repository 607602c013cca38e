//! Deterministic fault injection behind zero-cost hooks.
//!
//! Production code asks [`should_fault("site")`](should_fault) at each
//! injectable site. With no plan installed the call is a single relaxed
//! atomic load — a unit test below bounds the disarmed cost per call.
//! With a [`FaultPlan`] installed, every call increments that site's hit
//! counter under a ranked lock (`resilience.fault_plan`) and fires each
//! matching trigger **exactly once** when the counter reaches its
//! configured value. Plans are data (site name + hit number), so a chaos
//! run is reproducible: the same plan against the same binary faults at
//! the same instruction.
//!
//! The registry is process-global; tests that install plans must
//! serialise with each other (the chaos suite shares one static mutex).

use astro_telemetry::lockcheck;
use astro_telemetry::{counter, info};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

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
/// installed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    triggers: Vec<(String, u64)>,
}

impl FaultPlan {
    /// An empty plan (installing it arms the hit counters but fires
    /// nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single trigger: fault `site` on its
    /// `fire_on_hit`-th hit (1-based; 0 is clamped to 1).
    pub fn single(site: &str, fire_on_hit: u64) -> Self {
        FaultPlan::new().and(site, fire_on_hit)
    }

    /// Add another one-shot trigger to the plan.
    #[must_use]
    pub fn and(mut self, site: &str, fire_on_hit: u64) -> Self {
        self.triggers.push((site.to_string(), fire_on_hit.max(1)));
        self
    }

    /// The `(site, fire_on_hit)` triggers in insertion order.
    pub fn triggers(&self) -> &[(String, u64)] {
        &self.triggers
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

/// Fast-path flag: false ⇒ no plan installed ⇒ `should_fault` returns
/// without touching the mutex.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armory>> = Mutex::new(None);

fn lock_state() -> (lockcheck::LockToken, MutexGuard<'static, Option<Armory>>) {
    let token = lockcheck::acquire("resilience.fault_plan");
    // Poisoning cannot corrupt the armory (all writes are field stores);
    // recover rather than propagate a panic out of the fault substrate.
    let guard = STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    (token, guard)
}

/// Install `plan`, arming the hooks and resetting all hit counters.
/// Replaces any previously installed plan.
pub fn install(plan: FaultPlan) {
    let summary = format!("{:?}", plan.triggers());
    {
        let (_token, mut state) = lock_state();
        *state = Some(Armory {
            triggers: plan
                .triggers
                .into_iter()
                .map(|(site, fire_on_hit)| ActiveTrigger { site, fire_on_hit, fired: false })
                .collect(),
            hits: HashMap::new(),
        });
        ARMED.store(true, Ordering::SeqCst);
    }
    info!("fault plan installed: {summary}");
}

/// Remove the installed plan and disarm every hook.
pub fn clear() {
    let (_token, mut state) = lock_state();
    *state = None;
    ARMED.store(false, Ordering::SeqCst);
}

/// The hook: returns true exactly when an installed trigger for `site`
/// fires on this hit. Disarmed cost is one relaxed atomic load.
#[inline]
pub fn should_fault(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    should_fault_armed(site)
}

#[cold]
fn should_fault_armed(site: &str) -> bool {
    let (_token, mut state) = lock_state();
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

/// True when an installed trigger for `site` has already fired
/// (test/assertion hook).
pub fn fired(site: &str) -> bool {
    let (_token, state) = lock_state();
    state
        .as_ref()
        .is_some_and(|a| a.triggers.iter().any(|t| t.fired && t.site == site))
}

/// How many times `site` has been hit since the current plan was
/// installed (0 when disarmed; test/assertion hook).
pub fn hits(site: &str) -> u64 {
    let (_token, state) = lock_state();
    state
        .as_ref()
        .and_then(|a| a.hits.get(site).copied())
        .unwrap_or(0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The registry is process-global; every test in this crate that
    // installs a plan or asserts the disarmed state holds this gate.
    static GATE: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> (lockcheck::LockToken, MutexGuard<'static, ()>) {
        let token = lockcheck::acquire("test.fault_gate");
        let guard = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        (token, guard)
    }

    #[test]
    fn disarmed_hook_never_fires_and_is_free() {
        use std::hint::black_box;
        let _g = locked();
        clear();
        // The hooks sit on per-token paths, so "disarmed" must mean one
        // relaxed load: measured ~1 ns/call. The bound is a generous
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
        assert_eq!(hits("serve.cache_full"), 0);
    }

    #[test]
    fn fires_exactly_once_on_the_configured_hit() {
        let _g = locked();
        install(FaultPlan::single("train.nan_loss", 3));
        let fires: Vec<bool> = (0..6).map(|_| should_fault("train.nan_loss")).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert!(fired("train.nan_loss"));
        assert_eq!(hits("train.nan_loss"), 6);
        clear();
        assert!(!should_fault("train.nan_loss"));
    }

    #[test]
    fn sites_are_independent_and_multi_trigger_plans_work() {
        let _g = locked();
        install(FaultPlan::single("io.partial_read", 1).and("serve.cache_full", 2));
        assert!(!should_fault("serve.cache_full"));
        assert!(should_fault("io.partial_read"));
        assert!(should_fault("serve.cache_full"));
        assert!(!should_fault("io.partial_read"), "one-shot: must not re-fire");
        clear();
    }

    #[test]
    fn reinstall_resets_counters() {
        let _g = locked();
        install(FaultPlan::single("ckpt.write_truncate", 2));
        assert!(!should_fault("ckpt.write_truncate"));
        install(FaultPlan::single("ckpt.write_truncate", 2));
        assert!(!should_fault("ckpt.write_truncate"), "counter must reset on reinstall");
        assert!(should_fault("ckpt.write_truncate"));
        clear();
    }
}
