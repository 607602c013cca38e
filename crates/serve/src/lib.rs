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
//! * [`engine::EvalEngine`] — fans a batch of scoring or generation jobs
//!   across scoped worker threads (`std::thread::scope`, one set per
//!   batch), each with reusable per-worker sessions, surfacing KV-cache
//!   overflow (after one uncached retry) and job panics as a *per-job*
//!   [`engine::ServeError`] instead of aborting the batch.
//! * [`scheduler::IterScheduler`] — iteration-level continuous batching:
//!   per-step FIFO admission under a
//!   [`scheduler::KvLedger`] block budget unified with the prefix cache's
//!   residency, chunked prefill, one-token decode steps
//!   ([`astro_model::StepDecoder`]) and individual retirement, so short
//!   score jobs are never head-of-line blocked behind long generations.
//!   Opt in with [`EngineConfig::iteration`].
//!
//! Pool workers and the iteration scheduler are two drivers of one job
//! lifecycle (the crate-private `seq::Sequence`): fork the deepest cached
//! prefix, feed the tail, retry once uncached on overflow, then read out
//! scores or decode. `docs/SERVING.md` § *The job lifecycle* is the
//! reference.
//!
//! # Determinism contract
//!
//! The engine is **bit-identical** to the serial reference path for every
//! `(parallelism, prefix_cache)` setting: a session step reads only the
//! model parameters, the KV rows for consumed positions and the fed token,
//! and every scratch buffer is fully overwritten per step — so a forked
//! snapshot continues exactly like a fresh session fed the same tokens.
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
    /// Worker threads: `0` = auto (available parallelism, capped at 8),
    /// `1` = in the calling thread, `n > 1` = a pool of `n` workers.
    pub parallelism: usize,
    /// Reuse shared-prefix session snapshots via the prefix-cache trie.
    pub prefix_cache: bool,
    /// Resident-byte budget for cached snapshots; `0` derives a default
    /// from the model configuration (see [`trie::PrefixCache::new`]).
    pub max_cache_bytes: usize,
    /// Execute batches with the iteration-level scheduler
    /// ([`scheduler::IterScheduler`]) instead of the per-job worker pool.
    /// `parallelism` is ignored in this mode: the scheduler steps a mixed
    /// batch single-threadedly, interleaving prefill and decode.
    pub iteration: bool,
}

impl EngineConfig {
    /// The degenerate configuration: one worker, no caching. Semantically
    /// (and bitwise) the serial reference path.
    pub fn serial() -> Self {
        EngineConfig {
            parallelism: 1,
            prefix_cache: false,
            max_cache_bytes: 0,
            iteration: false,
        }
    }

    /// The production configuration: auto-sized pool, prefix cache on.
    pub fn pooled() -> Self {
        EngineConfig {
            parallelism: 0,
            prefix_cache: true,
            max_cache_bytes: 0,
            iteration: false,
        }
    }

    /// A pool of exactly `n` workers with the prefix cache on.
    pub fn pooled_with(n: usize) -> Self {
        EngineConfig {
            parallelism: n,
            prefix_cache: true,
            max_cache_bytes: 0,
            iteration: false,
        }
    }

    /// Iteration-level continuous batching with the prefix cache on (see
    /// [`scheduler::IterScheduler`]).
    pub fn iteration() -> Self {
        EngineConfig {
            parallelism: 1,
            prefix_cache: true,
            max_cache_bytes: 0,
            iteration: true,
        }
    }

    /// The concrete worker count this configuration resolves to.
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
    /// reject configurations that would oversubscribe the pool or pin an
    /// absurd cache budget before any session memory is allocated. Called
    /// at gateway startup and from both eval-config `validate()`s.
    pub fn validate(&self) -> Result<(), String> {
        if self.parallelism > MAX_PARALLELISM {
            return Err(format!(
                "engine parallelism {} exceeds the {MAX_PARALLELISM}-worker bound \
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

/// Upper bound on explicit worker counts: far beyond any machine this
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
        let c = EngineConfig {
            parallelism: 1,
            prefix_cache: true,
            max_cache_bytes: 0,
            iteration: false,
        };
        assert!(!c.is_serial_uncached());
    }

    #[test]
    fn validate_accepts_the_stock_configurations() {
        for c in [
            EngineConfig::serial(),
            EngineConfig::pooled(),
            EngineConfig::pooled_with(8),
            EngineConfig::iteration(),
            EngineConfig {
                parallelism: 2,
                prefix_cache: true,
                max_cache_bytes: 64 << 20,
                iteration: false,
            },
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
        let c = EngineConfig {
            parallelism: 1,
            prefix_cache: false,
            max_cache_bytes: 4096,
            iteration: false,
        };
        let err = c.validate().unwrap_err();
        assert!(err.contains("prefix_cache"), "{err}");
    }
}
