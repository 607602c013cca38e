//! Gateway configuration and its structural validation.

use astro_serve::EngineConfig;
use std::time::Duration;

/// Tunables for the serving front-end. Defaults suit a local deployment;
/// every bound is checked by [`GatewayConfig::validate`] before the
/// server binds its socket. Everything here belongs to one gateway
/// instance: the trace ring's bounds are process-wide (the default
/// `astro_telemetry::trace::TraceConfig`), not a replica's to set.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub bind: String,
    /// Prefix-cache settings of the shared engine behind both endpoints:
    /// the gateway reads only `prefix_cache` and `max_cache_bytes`.
    /// `parallelism` (the shards of an *offline* batch) is not read: the
    /// gateway runs one serving loop per core by the same auto rule as
    /// `EngineConfig::pooled()`, whatever it says. The per-method `engine`
    /// fields on the eval configs are ignored too.
    pub engine: EngineConfig,
    /// Most sequences the gateway keeps active at once, over all its
    /// serving loops: loop `i` of `n` owns `max_batch / n` slots, plus one
    /// when `i < max_batch % n`, and there are never more loops than slots.
    /// A request leaves the queue only when a slot of the loop that pops it
    /// is free.
    pub max_batch: usize,
    /// Bounded request-queue capacity — the whole admission bound: pushes
    /// beyond it are rejected with 503 (backpressure, never unbounded
    /// memory).
    pub queue_capacity: usize,
    /// Token-bucket refill rate per client, in requests per second.
    pub rate_per_sec: f64,
    /// Token-bucket burst capacity per client (initial and maximum).
    pub burst: f64,
    /// Per-request deadline: admission to response. Expired requests get
    /// 504 and are dropped by the scheduler if still queued.
    pub deadline: Duration,
    /// Maximum request body size; larger bodies get 413.
    pub max_body_bytes: usize,
    /// Socket read timeout for request parsing (slow-client bound).
    pub read_timeout: Duration,
    /// How long a graceful shutdown waits for in-flight connections.
    pub drain_timeout: Duration,
    /// Replica identity advertised on every response (`x-astro-replica`
    /// header) and in `/healthz`, so a cluster router can attribute
    /// responses and probes to the replica that produced them. Empty =
    /// standalone gateway, no header.
    pub replica_name: String,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            bind: "127.0.0.1:0".to_string(),
            engine: EngineConfig::iteration(),
            max_batch: 16,
            queue_capacity: 64,
            rate_per_sec: 50.0,
            burst: 20.0,
            deadline: Duration::from_secs(30),
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(10),
            replica_name: String::new(),
        }
    }
}

impl GatewayConfig {
    /// Structural validation, mirroring the `StudyConfig`/`TrainerConfig`
    /// pattern: reject configurations that cannot serve (zero capacity)
    /// or that typo'd a unit (a one-hour deadline). Called by
    /// [`crate::server::Gateway::spawn`] before the socket binds.
    pub fn validate(&self) -> Result<(), String> {
        if self.bind.is_empty() {
            return Err("bind address must be nonempty".to_string());
        }
        if self.max_batch == 0 || self.max_batch > 1024 {
            return Err(format!(
                "max_batch {} outside 1..=1024",
                self.max_batch
            ));
        }
        if self.queue_capacity == 0 || self.queue_capacity > 65_536 {
            return Err(format!(
                "queue_capacity {} outside 1..=65536",
                self.queue_capacity
            ));
        }
        if !(self.rate_per_sec.is_finite() && self.rate_per_sec > 0.0) {
            return Err(format!(
                "rate_per_sec {} must be positive and finite",
                self.rate_per_sec
            ));
        }
        if !(self.burst.is_finite() && self.burst >= 1.0) {
            return Err(format!(
                "burst {} must be at least 1 (a client must be able to \
                 send one request)",
                self.burst
            ));
        }
        if self.deadline.is_zero() || self.deadline > Duration::from_secs(300) {
            return Err(format!(
                "deadline {:?} outside (0, 300s]",
                self.deadline
            ));
        }
        if self.max_body_bytes == 0 || self.max_body_bytes > 16 << 20 {
            return Err(format!(
                "max_body_bytes {} outside 1..=16MiB",
                self.max_body_bytes
            ));
        }
        if self.read_timeout.is_zero() {
            return Err("read_timeout must be nonzero (a zero OS timeout \
                        means block forever)"
                .to_string());
        }
        if self.replica_name.len() > 64
            || self.replica_name.chars().any(|c| !c.is_ascii_graphic())
        {
            return Err(format!(
                "replica_name {:?} must be <= 64 ASCII-graphic characters \
                 (it travels in an HTTP header)",
                self.replica_name
            ));
        }
        self.engine.validate().map_err(|e| format!("engine: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert_eq!(GatewayConfig::default().validate(), Ok(()));
    }

    #[test]
    fn rejections_name_the_offending_field() {
        type Mutator = Box<dyn Fn(&mut GatewayConfig)>;
        let cases: Vec<(Mutator, &str)> = vec![
            (Box::new(|c| c.bind = String::new()), "bind"),
            (Box::new(|c| c.max_batch = 0), "max_batch"),
            (Box::new(|c| c.queue_capacity = 0), "queue_capacity"),
            (Box::new(|c| c.rate_per_sec = 0.0), "rate_per_sec"),
            (Box::new(|c| c.rate_per_sec = f64::NAN), "rate_per_sec"),
            (Box::new(|c| c.burst = 0.5), "burst"),
            (Box::new(|c| c.deadline = Duration::ZERO), "deadline"),
            (Box::new(|c| c.max_body_bytes = 0), "max_body_bytes"),
            (Box::new(|c| c.read_timeout = Duration::ZERO), "read_timeout"),
            (Box::new(|c| c.replica_name = "has space".to_string()), "replica_name"),
            (Box::new(|c| c.replica_name = "x".repeat(65)), "replica_name"),
            (
                Box::new(|c| c.engine.parallelism = astro_serve::MAX_PARALLELISM + 1),
                "engine",
            ),
        ];
        for (mutate, field) in cases {
            let mut c = GatewayConfig::default();
            mutate(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains(field), "expected {field} in error: {err}");
        }
    }
}
