//! `router` — front N gateway replicas with the prefix-affinity router.
//!
//! ```sh
//! # Front replicas that are already running:
//! cargo run --release -p astro-router --bin router -- \
//!     --bind 127.0.0.1:8080 \
//!     --replica replica-0=127.0.0.1:8090 \
//!     --replica replica-1=127.0.0.1:8091
//!
//! # Spawn the replicas as child processes first, then front them.
//! # `{port}` and `{name}` in the command template are substituted
//! # per replica:
//! cargo run --release -p astro-router --bin router -- \
//!     --spawn 2 --base-port 8090 \
//!     --cmd "target/release/astro-gateway {port} {name} micro 42"
//! ```
//!
//! The router serves until the process is killed; the health prober
//! keeps ring membership in sync with replica liveness the whole time
//! (`GET /healthz` on the router shows the live view). Child processes
//! spawned with `--spawn` are killed when the router exits.

use astro_router::{ReplicaSpec, Router, RouterConfig};
use astro_telemetry::info;
use std::time::{Duration, Instant};

struct Options {
    bind: String,
    replicas: Vec<ReplicaSpec>,
    spawn: usize,
    base_port: u16,
    cmd: String,
}

fn usage(err: &str) -> ! {
    info!("router: {err}");
    info!(
        "usage: router [--bind ADDR] (--replica NAME=ADDR)... \
         | [--spawn N --base-port P --cmd TEMPLATE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().collect();
    let mut opts = Options {
        bind: "127.0.0.1:8080".to_string(),
        replicas: Vec::new(),
        spawn: 0,
        base_port: 8090,
        cmd: String::new(),
    };
    let mut i = 1;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(v) => v.clone(),
            None => usage(&format!("{flag} needs a value")),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bind" => opts.bind = value(&mut i, "--bind"),
            "--replica" => {
                let spec = value(&mut i, "--replica");
                let Some((name, addr)) = spec.split_once('=') else {
                    usage(&format!("--replica {spec:?} is not NAME=ADDR"));
                };
                let Ok(addr) = addr.parse() else {
                    usage(&format!("--replica {spec:?}: bad address"));
                };
                opts.replicas.push(ReplicaSpec { name: name.to_string(), addr });
            }
            "--spawn" => match value(&mut i, "--spawn").parse() {
                Ok(n) => opts.spawn = n,
                Err(_) => usage("--spawn needs a replica count"),
            },
            "--base-port" => match value(&mut i, "--base-port").parse() {
                Ok(p) => opts.base_port = p,
                Err(_) => usage("--base-port needs a port number"),
            },
            "--cmd" => opts.cmd = value(&mut i, "--cmd"),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    opts
}

/// Spawn `n` replica children from the command template, substituting
/// `{port}` and `{name}` per replica. The template is split on
/// whitespace — no shell involved.
fn spawn_children(
    n: usize,
    base_port: u16,
    template: &str,
) -> (Vec<std::process::Child>, Vec<ReplicaSpec>) {
    let mut children = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let port = base_port + i as u16;
        let name = format!("replica-{i}");
        let argv: Vec<String> = template
            .split_whitespace()
            .map(|w| w.replace("{port}", &port.to_string()).replace("{name}", &name))
            .collect();
        if argv.is_empty() {
            usage("--cmd template is empty");
        }
        match std::process::Command::new(&argv[0]).args(&argv[1..]).spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                for c in &mut children {
                    let _ = c.kill();
                }
                usage(&format!("spawning {:?}: {e}", argv[0]));
            }
        }
        let addr = match format!("127.0.0.1:{port}").parse() {
            Ok(a) => a,
            Err(e) => usage(&format!("bad replica port {port}: {e}")),
        };
        specs.push(ReplicaSpec { name, addr });
    }
    (children, specs)
}

/// Block until every replica answers `GET /healthz` with 200.
fn await_healthy(specs: &[ReplicaSpec], timeout: Duration) {
    let deadline = Instant::now() + timeout;
    for spec in specs {
        loop {
            if astro_gateway::client::get(spec.addr, "/healthz", Duration::from_millis(500))
                .map(|r| r.status == 200)
                .unwrap_or(false)
            {
                info!("router: replica {} healthy at {}", spec.name, spec.addr);
                break;
            }
            if Instant::now() > deadline {
                info!("router: replica {} never became healthy; continuing — the \
                       prober will admit it if it comes up later", spec.name);
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

fn main() {
    astro_telemetry::init_clock();
    let opts = parse_args();
    let (mut children, mut specs) = if opts.spawn > 0 {
        if !opts.replicas.is_empty() {
            usage("--spawn and --replica are mutually exclusive");
        }
        if opts.cmd.is_empty() {
            usage("--spawn needs --cmd");
        }
        spawn_children(opts.spawn, opts.base_port, &opts.cmd)
    } else {
        (Vec::new(), opts.replicas)
    };
    if specs.is_empty() {
        usage("no replicas: pass --replica NAME=ADDR or --spawn N --cmd TEMPLATE");
    }
    specs.sort_by(|a, b| a.name.cmp(&b.name));
    await_healthy(&specs, Duration::from_secs(120));

    let config = RouterConfig { bind: opts.bind.clone(), ..RouterConfig::default() };
    let router = match Router::spawn(config, specs) {
        Ok(r) => r,
        Err(e) => {
            for c in &mut children {
                let _ = c.kill();
            }
            usage(&format!("router spawn failed: {e:?}"));
        }
    };
    info!(
        "router: listening on {} ({} replicas); GET /healthz for the ring view",
        router.addr(),
        router.ring_members().len()
    );
    // Serve until killed. Children (if any) die with us: the kernel
    // reparents them, but the bench/CI harness kills the process group.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
