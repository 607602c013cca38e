//! Model-check the process's core ledger ([`Cores`]) on private ledgers.
//!
//! Build with `RUSTFLAGS="--cfg astro_check"`; in normal builds this file
//! compiles to nothing. The ledger's count is a `sync::Mutex`, so every
//! hold, borrow and return below is a scheduling point. At `n` = 2 and 3
//! cores, two threads work the real ledger the way its callers do:
//!
//! * a *stepper* (a scheduler, or a training run) holds one core, borrows
//!   for two steps — asking for more than exist — returns each loan and
//!   goes idle;
//! * an *unwinder* holds, borrows, and ends with both guards live, so they
//!   drop the way a panicking step's frame drops them: loan, then hold.
//!   (A real panic on a checked thread is itself a violation, so the
//!   harness drops the guards rather than raising one.)
//!
//! Under every interleaving: no loan exceeds `n − 1` — a holder's loan
//! comes only from the other cores, even after two holders have pushed
//! the count below zero — and at quiescence every core is idle again.
#![cfg(astro_check)]

use astro_check::{explore, CheckConfig};
use astro_telemetry::cores::Cores;
use astro_telemetry::sync::thread;
use std::sync::Arc;

fn explore_ledger(n: usize) {
    let report = explore(&CheckConfig::default(), move || {
        let cores = Arc::new(Cores::new(n));
        let stepper = {
            let cores = Arc::clone(&cores);
            thread::spawn(move || {
                let hold = cores.hold();
                for _ in 0..2 {
                    let loan = cores.borrow(n + 1);
                    assert!(loan.cores() < n, "lent {} of {n} cores to a holder", loan.cores());
                    drop(loan);
                }
                drop(hold);
            })
        };
        let unwinder = {
            let cores = Arc::clone(&cores);
            thread::spawn(move || {
                let _hold = cores.hold();
                let loan = cores.borrow(n + 1);
                assert!(loan.cores() < n, "lent {} of {n} cores to a holder", loan.cores());
            })
        };
        for t in [stepper, unwinder] {
            t.join().unwrap_or_else(|_| panic!("a ledger thread panicked"));
        }
        assert_eq!(cores.idle(), n as isize, "a core was lost or returned twice");
    });
    let steps = report.violation.as_ref().map_or(0, |v| v.schedule.steps.len());
    assert!(report.ok(), "n = {n}: {steps}-step counterexample {:?}", report.violation);
    assert!(!report.truncated, "n = {n}: exploration truncated");
    assert!(report.schedules > 1, "n = {n}: expected interleavings, got {}", report.schedules);
}

#[test]
fn every_core_comes_back_and_no_loan_exceeds_the_others_at_two_cores() {
    explore_ledger(2);
}

#[test]
fn every_core_comes_back_and_no_loan_exceeds_the_others_at_three_cores() {
    explore_ledger(3);
}
