//! Exploration engine tests: schedule enumeration, pruning, determinism.

use astro_check::{explore, models, CheckConfig, ViolationKind};

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

#[test]
fn single_thread_model_is_one_schedule() {
    let report = explore(&cfg(), || {
        let m = astro_check::sync::Mutex::new(1u32);
        let g = m.lock().unwrap();
        assert_eq!(*g, 1);
    });
    assert!(report.ok(), "{:?}", report.violation);
    assert_eq!(report.schedules, 1);
    assert!(!report.truncated);
}

#[test]
fn counter_model_explores_multiple_schedules() {
    let report = explore(&cfg(), models::counter_model(2));
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated, "state space must be enumerable at bound 2");
    assert!(report.schedules >= 2, "expected interleavings, got {}", report.schedules);
    assert!(report.max_steps_seen > 0);
}

/// Two threads touching *disjoint* mutexes: their critical sections
/// commute, so sleep sets must cut the redundant orderings. (With a
/// single shared mutex every op pair is dependent and nothing can be
/// pruned — see `counter_model`.)
fn disjoint_model() {
    use astro_check::sync::{thread, Mutex};
    use std::sync::Arc;
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let (a2, b2) = (a.clone(), b.clone());
    let ta = thread::spawn(move || {
        *a2.lock().unwrap() += 1;
    });
    let tb = thread::spawn(move || {
        *b2.lock().unwrap() += 1;
    });
    let _ = ta.join();
    let _ = tb.join();
    assert_eq!(*a.lock().unwrap() + *b.lock().unwrap(), 2);
}

#[test]
fn sleep_sets_prune_without_losing_coverage() {
    let with = explore(&cfg(), disjoint_model);
    let without = explore(&CheckConfig { sleep_sets: false, ..cfg() }, disjoint_model);
    assert!(with.ok() && without.ok());
    // Pruning must never *increase* the number of complete executions.
    assert!(
        with.schedules <= without.schedules,
        "sleep sets explored more: {} vs {}",
        with.schedules,
        without.schedules
    );
    // And with commuting critical sections there must be something to cut.
    assert!(
        with.executions() < without.executions(),
        "sleep sets cut nothing: {} vs {}",
        with.executions(),
        without.executions()
    );
}

#[test]
fn exploration_is_deterministic() {
    let a = explore(&cfg(), models::counter_model(2));
    let b = explore(&cfg(), models::counter_model(2));
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.pruned, b.pruned);
    assert_eq!(a.max_steps_seen, b.max_steps_seen);
}

#[test]
fn preemption_bound_zero_still_completes() {
    let report = explore(
        &CheckConfig { preemption_bound: 0, ..cfg() },
        models::counter_model(2),
    );
    // With no preemptions allowed each thread runs to completion when
    // scheduled; the model is race-free so it still passes.
    assert!(report.ok(), "{:?}", report.violation);
    assert!(report.schedules >= 1);
}

#[test]
fn max_schedules_truncates() {
    let report = explore(
        &CheckConfig { max_schedules: 1, ..cfg() },
        models::counter_model(3),
    );
    assert!(report.ok());
    assert!(report.truncated);
    assert_eq!(report.executions(), 1);
}

#[test]
fn deadlock_is_reported_with_schedule() {
    use astro_check::sync::{thread, Mutex};
    use std::sync::Arc;
    // Classic AB/BA deadlock (raw shim mutexes, no rank discipline).
    let report = explore(&cfg(), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            let _gb = b2.lock().unwrap();
            let _ga = a2.lock().unwrap();
        });
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
        drop(_gb);
        drop(_ga);
        let _ = t.join();
    });
    let v = report.violation.expect("AB/BA must deadlock under some schedule");
    assert_eq!(v.kind, ViolationKind::Deadlock);
    assert!(!v.schedule.steps.is_empty());
    assert!(v.message.contains("deadlock"), "{}", v.message);
}

#[test]
fn assertion_failure_is_reported_as_panic_violation() {
    use astro_check::sync::{thread, Mutex};
    use std::sync::Arc;
    // Unsynchronised check-then-act: both threads read 0, both write 1,
    // final count is 1 under some schedule — the assert fires.
    let report = explore(&cfg(), || {
        let c = Arc::new(Mutex::new(0u32));
        let c2 = c.clone();
        let t = thread::spawn(move || {
            let read = *c2.lock().unwrap();
            *c2.lock().unwrap() = read + 1;
        });
        let read = *c.lock().unwrap();
        *c.lock().unwrap() = read + 1;
        let _ = t.join();
        assert_eq!(*c.lock().unwrap(), 2, "lost update");
    });
    let v = report.violation.expect("lost update must be found");
    assert_eq!(v.kind, ViolationKind::Panic);
    assert!(v.message.contains("lost update"), "{}", v.message);
}

#[test]
fn step_budget_catches_livelock() {
    use astro_check::sync::Mutex;
    use std::sync::Arc;
    let report = explore(
        &CheckConfig { max_steps: 50, ..cfg() },
        || {
            let m = Arc::new(Mutex::new(0u64));
            // Spin forever: every lock is a granted op, so the budget trips.
            loop {
                let mut g = m.lock().unwrap();
                *g = g.wrapping_add(1);
            }
        },
    );
    let v = report.violation.expect("infinite loop must trip the step budget");
    assert_eq!(v.kind, ViolationKind::StepBudget);
}
