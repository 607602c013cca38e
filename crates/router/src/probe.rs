//! Replica health probing: the hysteresis state machine.
//!
//! The prober thread polls every replica's `/healthz` (and `/metricsz`
//! occupancy) on a fixed interval with a per-probe deadline, and folds
//! each outcome into a per-replica state machine with hysteresis:
//!
//! ```text
//!            probe ok ×revive_successes
//!   Dead ─────────────────────────────────► Healthy
//!    ▲                                        │ probe failed
//!    │ failures reach fail_dead               ▼
//!    └──────────────────────────────────── Degraded  (still routable)
//!
//!   any state ── healthz says "draining" ──► Draining (not routable,
//!                                            still probed)
//! ```
//!
//! Healthy and Degraded replicas stay in the ring (one blip must not
//! cold-start a cache partition); Dead and Draining replicas leave it.
//! Revival needs `revive_successes` *consecutive* successes so a
//! flapping replica cannot oscillate the ring every probe tick.

use std::time::Duration;

/// Prober tunables.
#[derive(Clone, Copy, Debug)]
pub struct ProbeConfig {
    /// Pause between probe rounds.
    pub interval: Duration,
    /// Per-probe connect/read deadline.
    pub timeout: Duration,
    /// Consecutive failures before a routable replica is marked
    /// Degraded (kept in the ring, flagged in status).
    pub fail_degraded: u32,
    /// Consecutive failures before the replica is marked Dead and
    /// removed from the ring.
    pub fail_dead: u32,
    /// Consecutive successes a Dead/Degraded/Draining replica needs to
    /// be restored to Healthy ring membership.
    pub revive_successes: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(500),
            fail_degraded: 1,
            fail_dead: 3,
            revive_successes: 2,
        }
    }
}

impl ProbeConfig {
    /// Structural validation (zero intervals would spin; inverted
    /// thresholds would make Degraded unreachable).
    pub fn validate(&self) -> Result<(), String> {
        if self.interval.is_zero() {
            return Err("probe interval must be nonzero".to_string());
        }
        if self.timeout.is_zero() {
            return Err("probe timeout must be nonzero".to_string());
        }
        if self.fail_dead == 0 || self.revive_successes == 0 {
            return Err("probe fail_dead and revive_successes must be >= 1".to_string());
        }
        if self.fail_degraded > self.fail_dead {
            return Err(format!(
                "probe fail_degraded {} exceeds fail_dead {}; Degraded would be unreachable",
                self.fail_degraded, self.fail_dead
            ));
        }
        Ok(())
    }
}

/// Probed health of one replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Answering probes; in the ring.
    Healthy,
    /// Missed fewer than `fail_dead` consecutive probes; still in the
    /// ring (hysteresis: one blip must not move every key).
    Degraded,
    /// Missed `fail_dead` consecutive probes; out of the ring.
    Dead,
    /// Reported `"draining"`: finishing its queue, refusing new work;
    /// out of the ring but still probed (it may come back).
    Draining,
}

impl ReplicaHealth {
    /// Stable lowercase name for status bodies and logs.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Dead => "dead",
            ReplicaHealth::Draining => "draining",
        }
    }

    /// Whether this state keeps the replica in the routing ring.
    pub fn routable(self) -> bool {
        matches!(self, ReplicaHealth::Healthy | ReplicaHealth::Degraded)
    }
}

/// What one successful `/healthz` probe reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealthProbe {
    /// The replica is draining (refusing new work).
    pub draining: bool,
    /// Admit-queue depth at probe time.
    pub queue_depth: u64,
    /// Mean scheduler batch/step occupancy.
    pub occupancy: f64,
}

/// Rolling probe state for one replica.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaStatus {
    /// Current state-machine position.
    pub health: ReplicaHealth,
    /// Consecutive failed probes (reset by any success).
    pub consecutive_failures: u32,
    /// Consecutive successful probes (reset by any failure).
    pub consecutive_successes: u32,
    /// Last observed admit-queue depth.
    pub queue_depth: u64,
    /// Last observed scheduler occupancy.
    pub occupancy: f64,
}

impl Default for ReplicaStatus {
    fn default() -> Self {
        ReplicaStatus {
            health: ReplicaHealth::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            queue_depth: 0,
            occupancy: 0.0,
        }
    }
}

impl ReplicaStatus {
    /// Fold a successful probe in; returns the (possibly new) health.
    pub fn note_success(&mut self, cfg: &ProbeConfig, probe: HealthProbe) -> ReplicaHealth {
        self.queue_depth = probe.queue_depth;
        self.occupancy = probe.occupancy;
        self.consecutive_failures = 0;
        if probe.draining {
            self.consecutive_successes = 0;
            self.health = ReplicaHealth::Draining;
            return self.health;
        }
        self.consecutive_successes += 1;
        if self.health != ReplicaHealth::Healthy
            && self.consecutive_successes >= cfg.revive_successes
        {
            self.health = ReplicaHealth::Healthy;
        }
        self.health
    }

    /// Fold a failed/timed-out probe in; returns the (possibly new)
    /// health.
    pub fn note_failure(&mut self, cfg: &ProbeConfig) -> ReplicaHealth {
        self.consecutive_successes = 0;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= cfg.fail_dead {
            self.health = ReplicaHealth::Dead;
        } else if self.consecutive_failures >= cfg.fail_degraded
            && self.health == ReplicaHealth::Healthy
        {
            self.health = ReplicaHealth::Degraded;
        }
        self.health
    }

    /// Fold a forward-path connection refusal in: the process is gone
    /// *now*, so skip the probe hysteresis and leave the ring at once
    /// (the prober revives it normally if it comes back).
    pub fn note_connection_refused(&mut self) -> ReplicaHealth {
        self.consecutive_successes = 0;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.health = ReplicaHealth::Dead;
        self.health
    }
}

/// Shallow field extraction from the gateway's `/healthz` JSON body (a
/// closed format produced by `astro_gateway::api::health_body`, so a
/// string scan is exact here; a full JSON parser would add a dependency
/// for no additional soundness).
pub fn parse_health(body: &str) -> HealthProbe {
    HealthProbe {
        draining: scan_field(body, "\"draining\":").is_some_and(|v| v.starts_with("true")),
        queue_depth: scan_field(body, "\"queue_depth\":")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0),
        occupancy: scan_field(body, "\"occupancy\":")
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0),
    }
}

/// The value token following `marker` in `body`, up to the next `,`/`}`.
fn scan_field<'a>(body: &'a str, marker: &str) -> Option<&'a str> {
    let start = body.find(marker)? + marker.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProbeConfig {
        ProbeConfig { fail_degraded: 1, fail_dead: 3, revive_successes: 2, ..Default::default() }
    }

    #[test]
    fn degraded_then_dead_with_hysteresis_then_revived() {
        let cfg = cfg();
        let mut s = ReplicaStatus::default();
        assert_eq!(s.note_failure(&cfg), ReplicaHealth::Degraded);
        assert!(s.health.routable(), "one blip must not leave the ring");
        assert_eq!(s.note_failure(&cfg), ReplicaHealth::Degraded);
        assert_eq!(s.note_failure(&cfg), ReplicaHealth::Dead);
        assert!(!s.health.routable());
        // One success is not enough to revive (flap protection)...
        assert_eq!(s.note_success(&cfg, HealthProbe::default()), ReplicaHealth::Dead);
        // ...two consecutive successes are.
        assert_eq!(s.note_success(&cfg, HealthProbe::default()), ReplicaHealth::Healthy);
    }

    #[test]
    fn draining_leaves_ring_immediately_but_is_not_dead() {
        let cfg = cfg();
        let mut s = ReplicaStatus::default();
        let probe = HealthProbe { draining: true, queue_depth: 4, occupancy: 1.5 };
        assert_eq!(s.note_success(&cfg, probe), ReplicaHealth::Draining);
        assert!(!s.health.routable());
        assert_eq!(s.queue_depth, 4);
    }

    #[test]
    fn connection_refusal_skips_hysteresis() {
        let mut s = ReplicaStatus::default();
        assert_eq!(s.note_connection_refused(), ReplicaHealth::Dead);
    }

    #[test]
    fn parses_healthz_fields() {
        let body = "{\"status\":\"draining\",\"draining\":true,\"queue_depth\":7,\
                    \"occupancy\":3.5000,\"active_seqs\":2,\"replica\":\"replica-1\"}";
        let p = parse_health(body);
        assert!(p.draining);
        assert_eq!(p.queue_depth, 7);
        assert!((p.occupancy - 3.5).abs() < 1e-9);
    }

    #[test]
    fn config_validation_names_fields() {
        assert!(ProbeConfig::default().validate().is_ok());
        let bad = ProbeConfig { fail_degraded: 5, fail_dead: 2, ..Default::default() };
        assert!(bad.validate().unwrap_err().contains("fail_degraded"));
    }
}
