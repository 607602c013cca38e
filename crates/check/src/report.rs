//! Exploration results: reports and violations.

use crate::schedule::Schedule;

/// What kind of property failure the checker observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Every live thread is blocked.
    Deadlock,
    /// A controlled thread panicked (failed assertion, product panic).
    Panic,
    /// The per-execution step budget was exceeded (livelock suspicion).
    StepBudget,
    /// Replay diverged from the recorded schedule — the model closure is
    /// not deterministic, or the checker has a bug.
    Divergence,
}

/// A property violation with its replayable counterexample.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Failure class.
    pub kind: ViolationKind,
    /// Human-readable description (panic message, blocked-thread dump).
    pub message: String,
    /// The decision log that reproduces the failure via [`crate::replay`].
    pub schedule: Schedule,
}

/// Result of one exploration run ([`crate::explore`] or [`crate::replay`]).
#[derive(Debug, Default)]
pub struct Report {
    /// Executions that ran to completion (every thread finished).
    pub schedules: u64,
    /// Branches cut by sleep-set pruning before completing.
    pub pruned: u64,
    /// True when the `max_schedules` cap stopped exploration early.
    pub truncated: bool,
    /// Longest execution observed, in granted operations.
    pub max_steps_seen: usize,
    /// The first violation found, if any (exploration stops on it).
    pub violation: Option<Violation>,
}

impl Report {
    /// True when exploration finished without finding a violation.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// Total executions attempted (complete + pruned).
    pub fn executions(&self) -> u64 {
        self.schedules + self.pruned
    }
}
