//! In-process cluster harness: N gateway replicas plus a router, with
//! kill/drain/restart controls for chaos tests and benches.
//!
//! Each replica is a full [`Gateway`] (own listener, scheduler, engine)
//! held in a slot behind a `router.cluster`-ranked mutex. The router's
//! `replica.crash` fault hook takes the gateway out of its slot and
//! aborts it — a hard kill from the cluster's point of view: the
//! listener closes, in-flight connections are not waited for, and
//! subsequent forwards get connection-refused.
//! [`Cluster::restart_replica`] re-binds the same port so prober revival
//! can be exercised end to end.
//!
//! A slot guard is only ever held to move a gateway in or out: aborting
//! or shutting one down closes its queue (`gateway.queue`, a lower rank)
//! and joins its threads, neither of which may happen under a router
//! lock.

use crate::server::{ReplicaSpec, Router, RouterConfig, RouterStats};
use astro_gateway::client;
use astro_gateway::{DrainStats, Gateway, GatewayConfig, GatewayState};
use astro_telemetry::sync::{self, Mutex};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Everything needed to stand a cluster up.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of gateway replicas to spawn.
    pub replicas: usize,
    /// Per-replica gateway template; `bind` is overridden to an
    /// ephemeral port and `replica_name` to `replica-<i>`.
    pub gateway: GatewayConfig,
    /// Router settings fronting the replicas.
    pub router: RouterConfig,
}

/// What a graceful cluster shutdown observed.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// The router's lifetime counters.
    pub router: RouterStats,
    /// Per-replica drain stats; `None` for replicas that were killed
    /// (aborted gateways report nothing).
    pub replicas: Vec<Option<DrainStats>>,
}

/// Move the gateway out of `slot`, releasing the slot guard before the
/// caller aborts or shuts it down.
fn take_gateway(slot: &Mutex<Option<Gateway>>) -> Option<Gateway> {
    let (_order, mut guard) = sync::lock_ranked("router.cluster", slot);
    guard.take()
}

/// N live gateway replicas plus the router fronting them.
pub struct Cluster {
    slots: Arc<Vec<Mutex<Option<Gateway>>>>,
    specs: Vec<ReplicaSpec>,
    gateway_template: GatewayConfig,
    state: GatewayState,
    router: Router,
}

impl Cluster {
    /// Spawn `config.replicas` gateways on ephemeral ports, then a
    /// router fronting them with the crash hook installed.
    pub fn spawn(config: ClusterConfig, state: GatewayState) -> Result<Cluster, String> {
        if config.replicas == 0 {
            return Err("cluster needs at least one replica".to_string());
        }
        let mut slots = Vec::with_capacity(config.replicas);
        let mut specs = Vec::with_capacity(config.replicas);
        for i in 0..config.replicas {
            let name = format!("replica-{i}");
            let mut gcfg = config.gateway.clone();
            gcfg.bind = "127.0.0.1:0".to_string();
            gcfg.replica_name = name.clone();
            let gw = Gateway::spawn(gcfg, state.clone())
                .map_err(|e| format!("replica {i}: {e}"))?;
            specs.push(ReplicaSpec { name, addr: gw.addr() });
            slots.push(Mutex::new(Some(gw)));
        }
        let slots = Arc::new(slots);
        let router =
            Router::spawn(config.router, specs.clone()).map_err(|e| e.to_string())?;
        let hook_slots = Arc::clone(&slots);
        router.set_crash_hook(Arc::new(move |id| {
            if let Some(gw) = hook_slots.get(id as usize).and_then(take_gateway) {
                gw.abort();
            }
        }));
        Ok(Cluster { slots, specs, gateway_template: config.gateway, state, router })
    }

    /// The router's client-facing address.
    pub fn router_addr(&self) -> SocketAddr {
        self.router().addr()
    }

    /// Replica `id`'s own gateway address (for direct probes in tests).
    pub fn replica_addr(&self, id: usize) -> SocketAddr {
        self.specs[id].addr
    }

    /// Number of replicas the cluster was spawned with.
    pub fn replica_count(&self) -> usize {
        self.specs.len()
    }

    /// The fronting router handle.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Run one synchronous probe round on the router.
    pub fn probe_now(&self) {
        self.router().probe_now();
    }

    /// Hard-kill replica `id` (abort: listener closes, in-flight
    /// connections dropped). Idempotent.
    pub fn kill_replica(&self, id: usize) {
        if let Some(gw) = take_gateway(&self.slots[id]) {
            gw.abort();
        }
    }

    /// Ask replica `id` to drain (the SIGTERM stand-in): it refuses new
    /// work with 503 + `Retry-After` but finishes its queue and keeps
    /// answering `/healthz`, so the next probe round rebalances the ring
    /// away from it.
    pub fn drain_replica(&self, id: usize, timeout: Duration) -> Result<(), String> {
        let resp = client::post_json(self.specs[id].addr, "/admin/drain", "{}", timeout)?;
        if resp.status == 200 {
            Ok(())
        } else {
            Err(format!("drain of replica {id} answered {}", resp.status))
        }
    }

    /// Restart a killed/drained replica on its original port (the spec
    /// the router holds is immutable, so revival must re-bind it). Any
    /// still-running gateway in the slot is shut down first.
    pub fn restart_replica(&self, id: usize) -> Result<(), String> {
        let mut gcfg = self.gateway_template.clone();
        gcfg.bind = self.specs[id].addr.to_string();
        gcfg.replica_name = self.specs[id].name.clone();
        if let Some(old) = take_gateway(&self.slots[id]) {
            old.shutdown();
        }
        let gw = Gateway::spawn(gcfg, self.state.clone())
            .map_err(|e| format!("restart replica {id}: {e}"))?;
        let (_order, mut guard) = sync::lock_ranked("router.cluster", &self.slots[id]);
        *guard = Some(gw);
        Ok(())
    }

    /// Graceful teardown: stop the router first (no new forwards), then
    /// drain every surviving replica. Killed replicas report `None`.
    pub fn shutdown(self) -> ClusterStats {
        let Cluster { slots, router, .. } = self;
        let router_stats = router.shutdown();
        let mut replicas = Vec::with_capacity(slots.len());
        for slot in slots.iter() {
            replicas.push(take_gateway(slot).map(Gateway::shutdown));
        }
        ClusterStats { router: router_stats, replicas }
    }
}
