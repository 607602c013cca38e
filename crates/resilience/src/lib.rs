//! # astro-resilience — durable I/O for a resumable run
//!
//! The study pipeline trains a whole model zoo and fans evaluation across
//! a worker pool; at paper scale that is a multi-day job where a single
//! torn checkpoint or worker panic must not cost the run. This crate is
//! the substrate the rest of the workspace leans on to survive that:
//!
//! * [`durable`] — crash-safe artifact writes (tmp + fsync + rename +
//!   directory fsync) and fault-aware reads, behind the
//!   `ckpt.write_truncate` and `io.partial_read` fault sites.
//! * [`fnv`] — the FNV-1a 64-bit content checksum used by checkpoint
//!   trailers and the run ledger.
//! * [`retry`] — bounded deterministic exponential backoff for
//!   transient failures.
//! * [`journal`] — an fsync'd append-only line journal that tolerates a
//!   torn tail on replay; the run ledger in `astromlab::study` is built
//!   on it.
//!
//! The fault plans that prove it — named sites, one-shot triggers, a plan
//! scoped to the threads a test starts — live in `astro_telemetry::fault`,
//! beside the runner that carries a plan onto every thread.
//! docs/RESILIENCE.md catalogues the fault sites and spells out the
//! determinism-after-resume argument the chaos suite enforces.

pub mod durable;
pub mod fnv;
pub mod journal;
pub mod retry;

pub use fnv::fnv64;
pub use journal::Journal;
pub use retry::RetryPolicy;
