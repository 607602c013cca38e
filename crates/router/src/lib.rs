//! Cluster mode: a router fronting N `astro-gateway` replicas.
//!
//! The router owns the cluster's request placement and liveness view:
//!
//! - [`ring`] — a consistent-hash ring (FNV-1a virtual nodes) mapping
//!   affinity keys to replica ids with minimal remapping on membership
//!   changes.
//! - [`affinity`] — ring keys derived from each group's learned shared
//!   question prefix, reusing the gateway scheduler's LCP anchor
//!   tracker so a group lands on the replica whose radix cache already
//!   holds its prefix.
//! - [`probe`] — the health prober's hysteresis state machine
//!   (Healthy → Degraded → Dead, plus Draining).
//! - [`server`] — the HTTP front: forward with bounded jittered
//!   retries, failover in ring order, and exactly-once re-dispatch
//!   under idempotency keys so accepted == completed holds even when a
//!   replica is killed mid-request.
//! - [`cluster`] — an in-process harness spawning N gateway replicas
//!   plus a router for tests, benches, and chaos sweeps.
//!
//! Scoring is deterministic, so any replica can serve any request
//! bit-identically; affinity is purely a cache-locality optimisation
//! and failover never changes answers.

pub mod affinity;
pub mod cluster;
pub mod probe;
pub mod ring;
pub mod server;

pub use cluster::{Cluster, ClusterConfig, ClusterStats};
pub use probe::{HealthProbe, ProbeConfig, ReplicaHealth, ReplicaStatus};
pub use ring::Ring;
pub use server::{ReplicaSpec, Router, RouterConfig, RouterError, RouterStats};
