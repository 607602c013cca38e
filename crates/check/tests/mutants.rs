//! Mutant self-test: the checker must catch every seeded protocol bug
//! and emit a replayable counterexample schedule for each.

use astro_check::models::{self, QueueMutant};
use astro_check::{explore, replay, CheckConfig, Schedule, Violation, ViolationKind};

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

/// Assert the violation carries a non-empty schedule that (a) survives a
/// JSONL round-trip and (b) reproduces the same violation kind when
/// replayed against a fresh instance of the model.
fn assert_replayable<M>(v: &Violation, make_model: M)
where
    M: Fn() + Send + Sync + 'static,
{
    assert!(!v.schedule.steps.is_empty(), "counterexample schedule is empty");
    let jsonl = v.schedule.to_jsonl();
    let parsed = Schedule::from_jsonl(&jsonl).expect("JSONL round-trip");
    assert_eq!(parsed.decisions(), v.schedule.decisions());
    let replayed = replay(&cfg(), &parsed, make_model);
    let rv = replayed.violation.as_ref().unwrap_or_else(|| {
        panic!("replay of the {:?} counterexample found no violation", v.kind)
    });
    assert_eq!(rv.kind, v.kind, "replay produced a different violation kind");
}

#[test]
fn correct_queue_passes_exhaustively() {
    let report = explore(&cfg(), models::bounded_queue_model(QueueMutant::Correct));
    assert!(report.ok(), "{:?}", report.violation);
    assert!(!report.truncated, "state space must be enumerable at bound 2");
    assert!(report.schedules > 1);
}

#[test]
fn mutant_queue_drop_notify_deadlocks() {
    let report = explore(&cfg(), models::bounded_queue_model(QueueMutant::DropNotifyOnClose));
    let v = report.violation.expect("dropped close-notify must be caught");
    assert_eq!(v.kind, ViolationKind::Deadlock, "{}", v.message);
    assert_replayable(&v, models::bounded_queue_model(QueueMutant::DropNotifyOnClose));
}

#[test]
fn mutant_queue_wait_if_loses_wakeup() {
    let report = explore(&cfg(), models::bounded_queue_model(QueueMutant::WaitIfInsteadOfWhile));
    let v = report.violation.expect("wait-`if` must be caught");
    assert_eq!(v.kind, ViolationKind::Panic, "{}", v.message);
    assert!(v.message.contains("lost wakeup"), "{}", v.message);
    assert_replayable(&v, models::bounded_queue_model(QueueMutant::WaitIfInsteadOfWhile));
}

#[test]
fn mutant_queue_skip_drain_drops_items() {
    let report = explore(&cfg(), models::bounded_queue_model(QueueMutant::SkipDrain));
    let v = report.violation.expect("skipped drain handshake must be caught");
    assert_eq!(v.kind, ViolationKind::Panic, "{}", v.message);
    assert_replayable(&v, models::bounded_queue_model(QueueMutant::SkipDrain));
}
