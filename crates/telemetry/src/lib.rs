//! Structured observability for the AstroMLab 2 reproduction.
//!
//! The study pipeline is a long multi-stage computation (pretrain natives →
//! CPT ×3 recipes → SFT → evaluate ×3 methods). This crate replaces the
//! ad-hoc `println!` progress lines with a small, dependency-free
//! telemetry substrate:
//!
//! * [`span`] — hierarchical wall-clock **spans**, one per pipeline stage,
//!   in a thread-safe bounded global registry (the end-of-run summary
//!   tree), created with the [`span!`] macro:
//!   `let _g = span!("cpt", tier = "S70b");`
//! * [`metrics`] — global **counters, gauges and fixed-bucket histograms**
//!   (tokens processed, request latency, extraction-stage hits) with
//!   p50/p95/p99 readout.
//! * [`sink`] + [`event`] — a **JSONL event sink**: every span close,
//!   metric flush and log line can be appended to a `telemetry.jsonl`
//!   file whose lines parse with the repo's own JSON-subset parser
//!   (`astro_eval::json`).
//! * [`manifest`] — a per-experiment **run manifest** (seed, preset,
//!   config hash, start/end, peak RSS) written next to experiment outputs.
//! * [`log`] — an `ASTRO_LOG=quiet|info|debug` verbosity switch gating
//!   stderr progress output (default `info`), so `cargo test -q` stays
//!   clean while bench binaries stay chatty.
//! * [`trace`] — **end-to-end request traces**, the one description of a
//!   served request: 128-bit ids minted at the edge (or adopted via W3C
//!   `traceparent`), a per-hop id it owns, per-request phase attribution
//!   recorded from any thread, and a bounded tail-sampling ring sink.
//! * [`summary`] — a human-readable end-of-run span/metric summary tree.
//! * [`lockcheck`] — debug-build **lock-order instrumentation**: ranked
//!   locks and a thread-local held-lock stack that panics on ordering
//!   violations, its table cross-checked statically by `astro-audit lint`.
//! * [`sync`] — **swappable sync primitives**: `std` re-exports normally,
//!   the `astro-check` model-checker shim under `--cfg astro_check`, so
//!   the serving stack's concurrency protocols can be exhaustively
//!   explored for deadlocks and lost wakeups.
//! * [`cores`] — **one fan-out for the process**: the ledger of idle cores
//!   (its one sizing rule, holds and loans), the longest-first packer, the
//!   scoped runner that engine shards and scheduler steps both spread
//!   their work through, and the one spawn point for long-lived threads.
//! * [`fault`] — **deterministic fault injection**: named sites behind
//!   hooks that read the calling thread's [`fault::Faults`] plan, which
//!   every thread [`cores`] starts inherits from its spawner; with no plan
//!   a hook is one thread-local read, armed a seeded
//!   [`fault::FaultPlan`] fires each trigger exactly once on its
//!   configured hit, so chaos tests are reproducible bit for bit.
//!
//! Everything is `std`-only, matching the repo's no-`serde`/no-`tracing`
//! design rule, and every emitter is a cheap no-op until a sink is
//! installed, so library crates can instrument unconditionally.
//!
//! # Global state and tests
//!
//! The registry, metrics and sink are process-global (that is the point:
//! instrumentation sites must not thread a context handle through every
//! call). Tests that assert on global state should use unique metric/span
//! names or the `reset_*` helpers, and must not assume exclusive ownership
//! of the sink unless they install a memory sink themselves.

pub mod cores;
pub mod event;
pub mod fault;
pub mod lockcheck;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod summary;
pub mod sync;
pub mod trace;

pub use event::Event;
pub use manifest::RunManifest;
pub use metrics::{counter, gauge, histogram, histogram_with};
pub use span::SpanGuard;
pub use trace::TraceId;

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic epoch every span/event timestamp is measured
/// from. First call wins; all later timestamps are relative to it.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process epoch (monotonic).
pub fn elapsed_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Seconds since the unix epoch (wall clock), 0 if the clock is unset.
pub fn unix_time_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Touch the epoch so timestamps are measured from program start rather
/// than from the first instrumented call. Binaries should call this first.
pub fn init_clock() {
    let _ = epoch();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let a = elapsed_us();
        let b = elapsed_us();
        assert!(b >= a);
    }

    #[test]
    fn unix_time_is_plausible() {
        // After 2020-01-01, before 2100.
        let t = unix_time_secs();
        assert!(t > 1_577_836_800 && t < 4_102_444_800, "{t}");
    }
}
