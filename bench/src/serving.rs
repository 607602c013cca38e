//! The two socket workloads: identical `/v1/score` traffic over 40 prompt
//! groups with ~230-token stems, sent by two closed-loop client threads
//! to one `Gateway` (`gateway_thrash`) or through `Cluster::spawn` with
//! two replicas (`cluster_affinity`). S7b f32, iteration engine.
//!
//! 40 groups exceed the default 32-session cache budget, so under the
//! globally cyclic request order a lone gateway evicts every stem before
//! its next use (the prefix-cache write path plus a full prefill per
//! request), while each of two replicas holds its hash share resident
//! (steady-state hits; HTTP, queueing and forwarding dominate).

use crate::common::{self, counter, Args, Fixture, Kind, Outcome, Rep, Sample, WORLD_SEED};
use crate::spans::Recorder;
use crate::stats;
use astro_eval::json::Json;
use astro_eval::{score_job, token_method_predict, EvalModel, InstructEvalConfig, TokenEvalConfig};
use astro_gateway::{api::mcq_from_request, Gateway, GatewayConfig, GatewayState};
use astro_mcq::prompts::token_method_prompt;
use astro_model::Tier;
use astro_router::{Cluster, ClusterConfig, RouterConfig};
use astro_serve::{EngineConfig, EvalEngine};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frozen nominal rates of the committing machine (2 cores), requests/s.
const THRASH_NOMINAL_RPS: f64 = 26.0;
const AFFINITY_NOMINAL_RPS: f64 = 130.0;
pub const GROUPS: usize = 40;
const STEM_TOKENS: usize = 230;
/// Extra rounds of fresh items for the traced run's probes.
const PROBE_ROUNDS: usize = 2;
const CLIENT_THREADS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One gateway: the working set thrashes its cache.
    Single,
    /// Router plus two replicas: each holds its hash share resident.
    Cluster,
}

/// Zero-shot: the group stem should dominate the prompt, not a few-shot
/// preamble every group would share.
fn token_config() -> TokenEvalConfig {
    TokenEvalConfig {
        shots: 0,
        ..TokenEvalConfig::default()
    }
}

/// One request: group `g`, item `q` of that group.
struct Request {
    group: usize,
    question: String,
    body: String,
}

struct Traffic {
    options: [String; 4],
    /// Request `k` is item `k / GROUPS` of group `k % GROUPS`: globally
    /// cyclic order over the groups.
    requests: Vec<Request>,
}

/// Build the groups as `cluster_load::synth_groups` does: stems assembled
/// from the study's own question text, grown to `STEM_TOKENS` prompt
/// tokens, with a short per-item suffix. The stems do not depend on the
/// workload seed: the router hashes them, so they decide how the groups
/// split over the replicas, and a split that moved with the seed would
/// move throughput by tens of percent. The seed picks the options.
fn synth_traffic(fx: &Fixture, seed: u64, total: usize) -> Traffic {
    let material = fx.pick(WORLD_SEED, 3 * GROUPS + 64);
    let options = fx.pick(seed, 1)[0].options.clone();
    let prompt_tokens = |question: String| {
        let probe = mcq_from_request(&question, &options, 1);
        fx.study
            .tokenizer
            .encode(&token_method_prompt(&probe, &[], 0))
            .len()
    };
    let stems: Vec<String> = (0..GROUPS)
        .map(|g| {
            let mut stem = format!("Survey section {}.", g + 1);
            let mut i = 0;
            while prompt_tokens(format!("{stem} Item 1.")) < STEM_TOKENS {
                stem.push(' ');
                stem.push_str(&material[(g * 3 + i) % material.len()].question);
                i += 1;
            }
            stem
        })
        .collect();
    let requests = (0..total)
        .map(|k| {
            let (round, g) = (k / GROUPS, k % GROUPS);
            let question = format!("{} Item {}.", stems[g], round + 1);
            // Group 0 is the router's "ungrouped" marker.
            let body = format!(
                "{{\"question\":{},\"options\":[{}],\"group\":{}}}",
                json_string(&question),
                options
                    .iter()
                    .map(|o| json_string(o))
                    .collect::<Vec<_>>()
                    .join(","),
                g + 1
            );
            Request {
                group: g,
                question,
                body,
            }
        })
        .collect();
    Traffic { options, requests }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    astro_telemetry::event::write_json_string(&mut out, s);
    out
}

enum Server {
    Single(Gateway),
    Cluster(Box<Cluster>),
}

impl Topology {
    /// Unmeasured rounds over all groups. A gateway learns a group's
    /// anchor on its second request and serves hits from the third; behind
    /// the router a group may migrate replicas once, when the router's own
    /// anchor for it settles on the second request, and starts over there.
    fn warm_rounds(self) -> usize {
        match self {
            Topology::Single => 2,
            Topology::Cluster => 3,
        }
    }
}

impl Server {
    fn addr(&self) -> SocketAddr {
        match self {
            Server::Single(g) => g.addr(),
            Server::Cluster(c) => c.router_addr(),
        }
    }
}

struct ServingFixture {
    fx: Fixture,
    traffic: Traffic,
    server: Server,
}

fn setup(topology: Topology, seed: u64, total: usize) -> ServingFixture {
    let fx = Fixture::new(Tier::S7b, false);
    let traffic = synth_traffic(&fx, seed, total);
    let state = GatewayState {
        params: Arc::new(fx.params.clone()),
        draft: None,
        tokenizer: Arc::new(fx.study.tokenizer.clone()),
        exemplars: Arc::new(Vec::new()),
        token_config: token_config(),
        instruct_config: InstructEvalConfig::default(),
    };
    // Iteration engine (the gateway path that learns group anchors across
    // requests), rate limiter opened; every other setting is the default.
    let gateway = GatewayConfig {
        engine: EngineConfig::iteration(),
        rate_per_sec: 1e6,
        burst: 1e6,
        ..GatewayConfig::default()
    };
    let server = match topology {
        Topology::Single => Server::Single(Gateway::spawn(gateway, state).expect("gateway spawn")),
        Topology::Cluster => Server::Cluster(Box::new(
            Cluster::spawn(
                ClusterConfig {
                    replicas: 2,
                    gateway,
                    router: RouterConfig::default(),
                },
                state,
            )
            .expect("cluster spawn"),
        )),
    };
    let sf = ServingFixture {
        fx,
        traffic,
        server,
    };
    drive(
        sf.server.addr(),
        &sf.traffic.requests[..topology.warm_rounds() * GROUPS],
        CLIENT_THREADS,
    );
    sf
}

/// One HTTP exchange as the client saw it, phase by phase.
struct Exchange {
    start: Instant,
    connect_ms: f64,
    send_ms: f64,
    wait_ms: f64,
    read_ms: f64,
    /// `Err` for transport failures; else the status line's code.
    status: Result<u16, String>,
    replica: Option<String>,
    body: String,
}

impl Exchange {
    fn total_ms(&self) -> f64 {
        self.connect_ms + self.send_ms + self.wait_ms + self.read_ms
    }
}

/// One request per connection, `Connection: close` — the dialect the
/// gateway speaks — timed as connect / send / wait-for-first-byte / read.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Exchange {
    let start = Instant::now();
    let mut x = Exchange {
        start,
        connect_ms: 0.0,
        send_ms: 0.0,
        wait_ms: 0.0,
        read_ms: 0.0,
        status: Err("not sent".to_string()),
        replica: None,
        body: String::new(),
    };
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let mut attempt = || -> Result<(u16, Vec<u8>), String> {
        let mut stream =
            TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        x.connect_ms = ms(start);
        stream
            .set_read_timeout(Some(TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        let t = Instant::now();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        x.send_ms = ms(t);
        let t = Instant::now();
        let mut raw = vec![0u8; 4096];
        let first = stream.read(&mut raw).map_err(|e| format!("read: {e}"))?;
        raw.truncate(first);
        x.wait_ms = ms(t);
        let t = Instant::now();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("read: {e}"))?;
        x.read_ms = ms(t);
        let status = std::str::from_utf8(&raw[..raw.len().min(12)])
            .ok()
            .and_then(|head| head.split(' ').nth(1)?.parse().ok())
            .ok_or("bad status line")?;
        Ok((status, raw))
    };
    match attempt() {
        Ok((status, raw)) => {
            let text = String::from_utf8_lossy(&raw);
            let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
            x.replica = head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("x-astro-replica")
                    .then(|| v.trim().to_string())
            });
            x.body = body.to_string();
            x.status = Ok(status);
        }
        Err(e) => x.status = Err(e),
    }
    x
}

/// Send `requests` in order from `threads` closed-loop clients sharing
/// one cursor, so the issue order stays globally cyclic whatever the
/// threads' relative speed. Returns one exchange per request, in order.
fn drive(addr: SocketAddr, requests: &[Request], threads: usize) -> Vec<Exchange> {
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, Exchange)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = requests.get(k) else { break mine };
                        mine.push((k, exchange(addr, "POST", "/v1/score", &r.body)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    done.sort_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, x)| x).collect()
}

/// The `score_bits` of a 200 body, `None` if it does not parse.
fn response_bits(body: &str) -> Option<Vec<u32>> {
    let Json::Array(items) = Json::parse(body).ok()?.get("score_bits")?.clone() else {
        return None;
    };
    items
        .iter()
        .map(|i| {
            if let Json::Number(n) = i {
                Some(*n as u32)
            } else {
                None
            }
        })
        .collect()
}

fn p50(values: &[f64]) -> f64 {
    stats::percentile(values, 50.0, false).unwrap_or(0.0)
}

pub fn run(topology: Topology, args: &Args, rec: &mut Recorder) -> Outcome {
    let (nominal, root_name) = match topology {
        Topology::Single => (THRASH_NOMINAL_RPS, "gateway_thrash"),
        Topology::Cluster => (AFFINITY_NOMINAL_RPS, "cluster_affinity"),
    };
    // Every server instance is sent the same request sequence: its
    // warm-up rounds, then its repetitions as consecutive slices. The
    // sequence cycles over the groups without regard to slice boundaries.
    // At least 50 a repetition, so the four kept ones support a p95.
    let per_rep = args.rep_ops(nominal, 50);
    let reps_per_instance = common::REPS / args.setups();
    let warm = topology.warm_rounds() * GROUPS;
    let total = warm + reps_per_instance * per_rep + PROBE_ROUNDS * GROUPS;
    let mut out = Outcome::default();

    // The last instance's exchanges, one per measured request.
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut shed = BTreeMap::from([(429u16, 0u64), (503, 0)]);
    let sf = common::instances(
        args,
        &mut out,
        || setup(topology, args.seed, total),
        |sf, rep, out| {
            let slice = rep % reps_per_instance;
            if slice == 0 {
                exchanges.clear();
            }
            let requests = &sf.traffic.requests[warm + slice * per_rep..][..per_rep];
            let traced = args.traces(rep);
            let encoded_before = counter("serve.tokens.encoded");
            let t = Instant::now();
            let batch = drive(sf.server.addr(), requests, CLIENT_THREADS);
            out.reps.push(Rep {
                ops: per_rep,
                wall_s: t.elapsed().as_secs_f64(),
                traced,
            });
            if rep == 0 {
                let encoded = counter("serve.tokens.encoded") - encoded_before;
                record_cache_inference(sf, requests, encoded, out);
            }
            if traced {
                record_spans(rec, root_name, t, slice * per_rep, &batch);
            }
            // What the clients saw.
            out.attempted += batch.len() as u64;
            for x in &batch {
                match x.status {
                    Ok(200) => out.samples.push(Sample {
                        rep,
                        kind: Kind::Score,
                        latency_ms: x.total_ms(),
                        in_limit: true,
                    }),
                    Ok(code) => {
                        out.failed += 1;
                        if let Some(n) = shed.get_mut(&code) {
                            *n += 1;
                        }
                    }
                    Err(_) => out.failed += 1,
                }
            }
            exchanges.extend(batch);
        },
    );
    let measured = &sf.traffic.requests[warm..][..reps_per_instance * per_rep];

    // Oracle: the last instance's responses against the serial reference.
    let bits: Vec<Option<Vec<u32>>> = exchanges.iter().map(|x| response_bits(&x.body)).collect();
    let checks = common::check_indices(measured.len(), args.oracle_checks());
    let model = EvalModel {
        params: &sf.fx.params,
        tokenizer: &sf.fx.study.tokenizer,
    };
    out.failed += common::oracle_mismatches(&checks, |i| {
        let r = &measured[i];
        let mcq = mcq_from_request(&r.question, &sf.traffic.options, r.group as u64 + 1);
        let (_, want) = token_method_predict(&model, &mcq, &[], &token_config());
        // A response without score bits was a non-200, counted above.
        exchanges[i].status != Ok(200) || bits[i].as_ref() == Some(&common::score_bits(&want))
    });
    out.layer.insert("loadgen.checked_ops", checks.len() as f64);
    out.layer.insert(
        "gateway.connect_ms_p50",
        p50(&exchanges.iter().map(|x| x.connect_ms).collect::<Vec<_>>()),
    );
    out.layer.insert("gateway.shed_429", shed[&429] as f64);
    out.layer.insert("gateway.shed_503", shed[&503] as f64);

    // The pure HTTP path of a gateway, on the now idle server.
    let gateway_addr = match &sf.server {
        Server::Single(g) => g.addr(),
        Server::Cluster(c) => c.replica_addr(0),
    };
    let health: Vec<Exchange> = (0..20)
        .map(|_| exchange(gateway_addr, "GET", "/healthz", ""))
        .collect();
    out.layer.insert(
        "gateway.healthz_ms_p50",
        p50(&health.iter().map(Exchange::total_ms).collect::<Vec<_>>()),
    );

    let probes = &sf.traffic.requests[total - PROBE_ROUNDS * GROUPS..];
    if args.trace {
        // HTTP p50 against in-process engine time for the same jobs under
        // the same cache residency: what the sockets, queue and scheduler
        // hand-off cost on top of the engine.
        let engine_ms = engine_replay_ms_p50(
            &sf,
            topology,
            probes,
            if args.smoke { GROUPS / 5 } else { GROUPS },
        );
        let http_ms = p50(&out.samples.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
        out.layer
            .insert("gateway.overhead_ms_p50", http_ms - engine_ms);
        out.layer
            .insert("gateway.useful_work_share", engine_ms / http_ms);
    }
    if let Server::Cluster(cluster) = &sf.server {
        record_routing(
            cluster,
            measured,
            &exchanges,
            args.trace.then_some(probes),
            &mut out,
        );
    }

    // `/healthz` reports the mean scheduler step fill since start.
    let occupancy = health
        .last()
        .and_then(|x| Json::parse(&x.body).ok())
        .and_then(|j| match j.get("occupancy") {
            Some(Json::Number(n)) => Some(*n),
            _ => None,
        });
    out.layer
        .insert("gateway.batch_occupancy_mean", occupancy.unwrap_or(0.0));

    let ServingFixture { server, .. } = sf;
    let drains = match server {
        Server::Single(g) => vec![g.shutdown()],
        Server::Cluster(c) => {
            let stats = c.shutdown();
            out.layer
                .insert("router.forwarded", stats.router.forwarded as f64);
            out.layer
                .insert("router.failovers", stats.router.failovers as f64);
            out.layer
                .insert("router.redispatches", stats.router.redispatches as f64);
            out.layer.insert("router.lost", stats.router.lost as f64);
            out.require(stats.router.lost == 0, || {
                format!("router.lost = {}", stats.router.lost)
            });
            stats.replicas.into_iter().flatten().collect()
        }
    };
    let accepted: u64 = drains.iter().map(|d| d.accepted).sum();
    let completed: u64 = drains.iter().map(|d| d.completed).sum();
    out.layer.insert("gateway.accepted", accepted as f64);
    out.layer.insert("gateway.completed", completed as f64);
    out.require(accepted == completed, || {
        format!("gateway.accepted {accepted} != gateway.completed {completed}")
    });

    let hit_rate = out.layer["serve.prefix_hit_rate"];
    match topology {
        Topology::Single => out.require(hit_rate == 0.0, || {
            format!("serve.prefix_hit_rate = {hit_rate} on gateway_thrash: the working set is not thrashing")
        }),
        Topology::Cluster => out.require(hit_rate >= 0.95, || {
            format!("serve.prefix_hit_rate = {hit_rate} on cluster_affinity: the groups are not resident")
        }),
    }
    out
}

/// The engine's cache is private to the gateway; what can be seen from
/// outside is the `serve.tokens.encoded` counter. A request that hits its
/// group's anchor encodes only its tail, one that misses encodes its
/// whole prompt, so the encoded total places the run between "all hit"
/// and "all missed": that position is the token-weighted hit rate.
fn record_cache_inference(
    sf: &ServingFixture,
    requests: &[Request],
    encoded: u64,
    out: &mut Outcome,
) {
    let model = EvalModel {
        params: &sf.fx.params,
        tokenizer: &sf.fx.study.tokenizer,
    };
    let prompt = |r: &Request| {
        let mcq = mcq_from_request(&r.question, &sf.traffic.options, r.group as u64 + 1);
        score_job(&model, &mcq, &[], &token_config()).prompt
    };
    // A group's anchor is the common prefix of its prompts (two suffice:
    // items differ in their number, right after the stem).
    let all = &sf.traffic.requests;
    let anchors: Vec<usize> = (0..GROUPS)
        .map(|g| common::common_prefix(&[&prompt(&all[g]), &prompt(&all[GROUPS + g])]).len())
        .collect();
    let lens: Vec<(usize, usize)> = requests
        .iter()
        .map(|r| (prompt(r).len(), anchors[r.group]))
        .collect();
    let all_missed: usize = lens.iter().map(|(len, _)| len).sum();
    let all_hit: usize = lens.iter().map(|(len, anchor)| len - anchor).sum();
    let hit_rate = (all_missed as f64 - encoded as f64) / (all_missed - all_hit) as f64;
    out.layer.insert("serve.tokens_encoded", encoded as f64);
    out.layer
        .insert("serve.prefix_hit_rate", hit_rate.clamp(0.0, 1.0));
    out.layer.insert(
        "serve.tokens_reused_share",
        1.0 - encoded as f64 / all_missed as f64,
    );
}

/// Client-side spans of one repetition: request -> connect/send/wait/read.
fn record_spans(
    rec: &mut Recorder,
    root_name: &'static str,
    rep_start: Instant,
    first_req: usize,
    batch: &[Exchange],
) {
    let root = rec.record(root_name, None, 0, rec.at_us(rep_start), rec.now_us());
    for (k, x) in batch.iter().enumerate() {
        let request = (first_req + k) as u64 + 1;
        let mut t = rec.at_us(x.start);
        let parent = rec.record("request", root, request, t, t + x.total_ms() * 1e3);
        for (name, ms) in [
            ("http.connect", x.connect_ms),
            ("http.send", x.send_ms),
            ("http.wait", x.wait_ms),
            ("http.read", x.read_ms),
        ] {
            rec.record(name, parent, request, t, t + ms * 1e3);
            t += ms * 1e3;
        }
    }
}

/// p50 of in-process `score_batch` time for one round of probe jobs, with
/// the cache residency the workload has in steady state: cold for the
/// thrashing gateway, the group's stem resident for the affine cluster.
fn engine_replay_ms_p50(
    sf: &ServingFixture,
    topology: Topology,
    probes: &[Request],
    groups: usize,
) -> f64 {
    let model = EvalModel {
        params: &sf.fx.params,
        tokenizer: &sf.fx.study.tokenizer,
    };
    let job = |r: &Request| {
        let mcq = mcq_from_request(&r.question, &sf.traffic.options, r.group as u64 + 1);
        score_job(&model, &mcq, &[], &token_config())
    };
    let times: Vec<f64> = (0..groups)
        .map(|g| {
            // A fresh engine per group: pinned anchors are charged to the
            // scheduler's block ledger and 40 of them would fill it.
            let engine = EvalEngine::new(EngineConfig::iteration(), &sf.fx.params);
            if topology == Topology::Cluster {
                // A two-job batch pins the pair's common prefix: the stem.
                engine.score_batch(vec![job(&probes[g]), job(&probes[GROUPS + g])]);
            }
            let j = job(&probes[g]);
            let t = Instant::now();
            let scored = engine.score_batch(vec![j]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                scored.iter().all(Result::is_ok),
                "engine replay failed: {scored:?}"
            );
            ms
        })
        .collect();
    p50(&times)
}

/// Router metrics from the `x-astro-replica` header of each response, and
/// (traced runs) the forwarding overhead against the owning replica.
fn record_routing(
    cluster: &Cluster,
    measured: &[Request],
    exchanges: &[Exchange],
    probes: Option<&[Request]>,
    out: &mut Outcome,
) {
    // Per group: how many responses each replica produced.
    let mut by_group: Vec<BTreeMap<&str, usize>> = vec![BTreeMap::new(); GROUPS];
    for (r, x) in measured.iter().zip(exchanges) {
        if let Some(name) = &x.replica {
            *by_group[r.group].entry(name.as_str()).or_insert(0) += 1;
        }
    }
    let modal: Vec<Option<&str>> = by_group
        .iter()
        .map(|m| m.iter().max_by_key(|(_, n)| **n).map(|(name, _)| *name))
        .collect();
    let on_modal: usize = by_group.iter().filter_map(|m| m.values().max()).sum();
    out.layer.insert(
        "router.affinity_share",
        on_modal as f64 / exchanges.len() as f64,
    );
    let mut groups_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut load_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (g, name) in modal.iter().enumerate() {
        if let Some(name) = name {
            *groups_of.entry(name).or_insert(0) += 1;
            *load_of.entry(name).or_insert(0) += by_group[g].values().sum::<usize>();
        }
    }
    let mean_load = exchanges.len() as f64 / cluster.replica_count() as f64;
    out.layer.insert(
        "router.replica_load_ratio",
        load_of.values().copied().max().unwrap_or(0) as f64 / mean_load,
    );
    // Each replica must be able to hold its share resident (budget: 32).
    let largest = groups_of.values().copied().max().unwrap_or(GROUPS);
    out.require(largest <= 32, || {
        format!("a replica owns {largest} of {GROUPS} groups, more than its 32-session cache")
    });

    let Some(probes) = probes else { return };
    // The same warm requests via the router and straight to the owning
    // replica, one sequential client each: the difference is forwarding.
    let via_router: Vec<f64> = probes[..GROUPS]
        .iter()
        .map(|r| exchange(cluster.router_addr(), "POST", "/v1/score", &r.body).total_ms())
        .collect();
    let direct: Vec<f64> = probes[GROUPS..]
        .iter()
        .filter_map(|r| {
            let id: usize = modal[r.group]?.strip_prefix("replica-")?.parse().ok()?;
            Some(exchange(cluster.replica_addr(id), "POST", "/v1/score", &r.body).total_ms())
        })
        .collect();
    out.layer.insert(
        "router.forward_overhead_ms_p50",
        p50(&via_router) - p50(&direct),
    );
}
