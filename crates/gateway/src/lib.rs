//! HTTP serving front-end for the batched eval engine.
//!
//! The paper's models only matter deployed: AstroLLaMA-Chat shipped as a
//! live chat demo and AstroMLab 4 frames its 70B model as a Q&A service.
//! This crate is that network surface for our reproduction — a std-only
//! HTTP/1.1 JSON server (hand-rolled parser over `TcpListener`, no
//! external dependencies) exposing the benchmarking methods as endpoints:
//!
//! * `POST /v1/score` — the token method's per-option readout
//!   ([`astro_serve::ScoreJob`]);
//! * `POST /v1/generate` — the full-instruct method
//!   ([`astro_serve::GenerateJob`]) plus the existing extraction cascade;
//! * `GET /healthz` — liveness and drain state;
//! * `GET /metricsz` — the telemetry metric registry as JSON.
//!
//! # Architecture
//!
//! Connections come through the front door the gateway shares with the
//! cluster router, [`http`]: one listener with a handler thread per
//! connection, one response type, one connection lifecycle. The
//! gateway's handler parses and admits requests, then pushes them onto
//! a bounded MPMC [`queue::BoundedQueue`]. One thread
//! per core runs the serving loop, [`scheduler::run_iter_scheduler`], with
//! its share of the `max_batch` slots: a request leaves the queue when
//! the [`astro_serve::IterScheduler`] its loop owns has a free slot, the
//! mixed batch advances one unit of work per step, and sequences retire
//! individually — so concurrent clients share the one radix prefix cache
//! exactly like an in-process batch, and a cheap score request is never
//! head-of-line blocked behind a long generate. The handler that queued
//! a request also builds its response from the engine's bare result.
//! Admission control happens *before* the queue:
//! per-client token-bucket rate limiting (429 + `Retry-After`), payload
//! bounds (413), and bounded-queue backpressure (503) keep memory use
//! flat under overload — nothing waits anywhere but in that queue.
//! Shutdown drains: stop accepting, flush in-flight
//! requests, then exit ([`server::Gateway::shutdown`]).
//!
//! # Determinism contract
//!
//! Responses are **bitwise identical** to the serial in-process path:
//! request handlers build jobs with the same public builders the eval
//! crate uses internally ([`astro_eval::score_job`],
//! [`astro_eval::generate_job`]), and the engine's determinism contract
//! (see `astro_serve`) guarantees batch composition cannot leak into
//! results. Score responses carry `score_bits` (IEEE-754 bit patterns)
//! so clients can verify this without float round-tripping.

pub mod api;
pub mod client;
pub mod config;
pub mod http;
pub mod limiter;
pub mod queue;
pub mod scheduler;
pub mod server;

pub use config::GatewayConfig;
pub use server::{DrainStats, Gateway, GatewayError, GatewayState};
