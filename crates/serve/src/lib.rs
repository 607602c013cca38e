//! Batched shared-prefix evaluation serving engine.
//!
//! Benchmark evaluation is embarrassingly parallel across questions, and
//! its prompts are massively redundant: every question in a run shares the
//! two-shot preamble, and questions about the same article share the
//! article context too. This crate exploits both:
//!
//! * [`trie::PrefixCache`] — a radix trie of [`astro_model::InferenceSession`]
//!   snapshots keyed by token prefix. Shared prefixes are encoded **once**;
//!   later prompts fork the snapshot (`assign_from`, no allocation) and
//!   only encode their unshared tail. Resident bytes are bounded by an LRU
//!   eviction policy budgeted from [`astro_model::ModelConfig::session_bytes`].
//! * [`scheduler::IterScheduler`] — iteration-level continuous batching,
//!   the one driver of the job lifecycle (the crate-private
//!   `seq::Sequence`: fork the deepest cached prefix, feed the tail, retry
//!   once uncached on overflow, then read out scores or decode): per-step
//!   FIFO admission under a [`scheduler::KvLedger`] block budget unified
//!   with the prefix cache's residency, chunked prefill, **one stacked
//!   forward for all of a step's decode rows** and individual retirement,
//!   so short score jobs are never head-of-line blocked behind long
//!   generations and a decode step streams the weights once, not once per
//!   sequence. A step splits its sequences over the cores no other
//!   scheduler holds (one process-wide count). The gateway's serving loop
//!   owns one.
//! * [`engine::EvalEngine`] — runs an offline batch of scoring or
//!   generation jobs on scheduler *shards* (`std::thread::scope`, one set
//!   per batch, each its own `IterScheduler` over the shared trie),
//!   surfacing KV-cache overflow (after one uncached retry) and job panics
//!   as a *per-job* [`engine::ServeError`] instead of aborting the batch.
//!
//! `docs/SERVING.md` § *The job lifecycle* is the reference.
//!
//! # Determinism contract
//!
//! The engine is **bit-identical** to the serial reference path for every
//! `(parallelism, prefix_cache)` setting: a session step reads only the
//! model parameters, the KV rows for consumed positions and the fed token,
//! and every scratch buffer is fully overwritten per step — so a forked
//! snapshot continues exactly like a fresh session fed the same tokens,
//! and a row of a stacked forward is the row fed alone.
//! `tests/eval_parity.rs` (repo root) enforces this differentially and
//! `docs/SERVING.md` walks through the argument.

pub mod engine;
pub mod scheduler;
mod seq;
pub mod trie;

pub use engine::{EvalEngine, GenerateJob, ScoreJob, ScoreReadout, SeqOutcome, ServeError};
pub use scheduler::{
    IterScheduler, KvLedger, SchedLog, SchedulerConfig, StepRecord, SubmitError,
};
pub use trie::{CacheStats, PrefixCache};

/// How a batch is executed. `Copy` so it can ride on the eval-config
/// structs without breaking their `Copy` derives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Scheduler shards an offline batch runs on: `0` = auto (available
    /// parallelism, capped at 8), `1` = in the calling thread, `n > 1` =
    /// the caller plus `n - 1` scoped threads. A shard's step may also
    /// borrow cores no other scheduler holds ([`scheduler`], *Cores*).
    pub parallelism: usize,
    /// Reuse shared-prefix session snapshots via the prefix-cache trie.
    pub prefix_cache: bool,
    /// Resident-byte budget for cached snapshots; `0` derives a default
    /// from the model configuration (see [`trie::PrefixCache::new`]).
    pub max_cache_bytes: usize,
}

impl EngineConfig {
    /// The degenerate configuration: one shard, no caching. Semantically
    /// (and bitwise) the serial reference path, which `astro-eval` keeps
    /// for it ([`Self::is_serial_uncached`]).
    pub fn serial() -> Self {
        EngineConfig { parallelism: 1, prefix_cache: false, max_cache_bytes: 0 }
    }

    /// The production configuration: auto-sized shards, prefix cache on.
    pub fn pooled() -> Self {
        EngineConfig::pooled_with(0)
    }

    /// Exactly `n` shards (`0` = auto) with the prefix cache on.
    pub fn pooled_with(n: usize) -> Self {
        EngineConfig { parallelism: n, prefix_cache: true, max_cache_bytes: 0 }
    }

    /// One shard with the prefix cache on: `pooled_with(1)`. Every
    /// configuration runs on the iteration scheduler; the name is kept for
    /// `bench/`, which builds its standalone schedulers' engines with it.
    pub fn iteration() -> Self {
        EngineConfig::pooled_with(1)
    }

    /// The concrete shard count this configuration resolves to.
    pub fn resolved_parallelism(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            n => n,
        }
    }

    /// True when this configuration adds nothing over the plain serial
    /// loop (callers may keep their pre-engine code path for it).
    pub fn is_serial_uncached(&self) -> bool {
        self.parallelism == 1 && !self.prefix_cache
    }

    /// Structural validation, mirroring `StudyConfig`/`TrainerConfig`:
    /// reject configurations that would oversubscribe the machine or pin an
    /// absurd cache budget before any session memory is allocated. Called
    /// at gateway startup and from both eval-config `validate()`s.
    pub fn validate(&self) -> Result<(), String> {
        if self.parallelism > MAX_PARALLELISM {
            return Err(format!(
                "engine parallelism {} exceeds the {MAX_PARALLELISM}-shard bound \
                 (use 0 for auto-sizing)",
                self.parallelism
            ));
        }
        if self.max_cache_bytes > MAX_CACHE_BYTES {
            return Err(format!(
                "engine max_cache_bytes {} exceeds the {MAX_CACHE_BYTES}-byte (1 TiB) bound",
                self.max_cache_bytes
            ));
        }
        if !self.prefix_cache && self.max_cache_bytes != 0 {
            return Err(format!(
                "engine max_cache_bytes {} is set but prefix_cache is disabled; \
                 the budget would silently do nothing",
                self.max_cache_bytes
            ));
        }
        Ok(())
    }
}

/// Upper bound on explicit shard counts: far beyond any machine this
/// workspace targets, so a value above it is a config typo, not a tune.
pub const MAX_PARALLELISM: usize = 256;

/// Upper bound on an explicit prefix-cache budget (1 TiB).
pub const MAX_CACHE_BYTES: usize = 1 << 40;

impl Default for EngineConfig {
    /// Defaults to [`EngineConfig::serial`] so existing call sites keep
    /// their exact pre-engine behaviour until they opt in.
    fn default() -> Self {
        EngineConfig::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_uncached() {
        let c = EngineConfig::default();
        assert!(c.is_serial_uncached());
        assert_eq!(c.resolved_parallelism(), 1);
        assert_eq!(c, EngineConfig::serial());
    }

    #[test]
    fn pooled_resolves_to_at_least_one_worker() {
        let c = EngineConfig::pooled();
        assert!(c.resolved_parallelism() >= 1);
        assert!(c.resolved_parallelism() <= 8);
        assert!(!c.is_serial_uncached());
        assert_eq!(EngineConfig::pooled_with(3).resolved_parallelism(), 3);
    }

    #[test]
    fn serial_with_cache_is_not_degenerate() {
        let c = EngineConfig { parallelism: 1, prefix_cache: true, max_cache_bytes: 0 };
        assert!(!c.is_serial_uncached());
        assert_eq!(c, EngineConfig::iteration());
    }

    #[test]
    fn validate_accepts_the_stock_configurations() {
        for c in [
            EngineConfig::serial(),
            EngineConfig::pooled(),
            EngineConfig::pooled_with(8),
            EngineConfig::iteration(),
            EngineConfig { parallelism: 2, prefix_cache: true, max_cache_bytes: 64 << 20 },
        ] {
            assert_eq!(c.validate(), Ok(()), "{c:?}");
        }
    }

    #[test]
    fn validate_rejects_oversubscribed_pool() {
        let c = EngineConfig {
            parallelism: MAX_PARALLELISM + 1,
            ..EngineConfig::pooled()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("parallelism"), "{err}");
    }

    #[test]
    fn validate_rejects_absurd_cache_budget() {
        let c = EngineConfig {
            max_cache_bytes: MAX_CACHE_BYTES + 1,
            ..EngineConfig::pooled()
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("max_cache_bytes"), "{err}");
    }

    #[test]
    fn validate_rejects_budget_without_cache() {
        let c = EngineConfig { parallelism: 1, prefix_cache: false, max_cache_bytes: 4096 };
        let err = c.validate().unwrap_err();
        assert!(err.contains("prefix_cache"), "{err}");
    }
}
