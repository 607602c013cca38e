//! `astro-gateway` — park one gateway replica on a port until killed.
//!
//! ```sh
//! cargo run --release --bin astro-gateway -- <port> <name> <preset> <seed>
//! cargo run --release --bin astro-gateway -- 8080 replica-0 smoke 11
//! ```
//!
//! The bound address is the first line on stdout, so port `0` (any free
//! port) is usable from a parent process. The model is an untrained S70b
//! initialised from `seed` — training state does not change the serving
//! path, and preset + seed alone make the tokenizer and weights
//! bit-identical across processes, which is what lets a router front
//! several of these (`router --spawn N --cmd "target/release/astro-gateway
//! {port} {name} micro 42"`) and a test compare their answers against an
//! in-process serial reference. Everything else is
//! `GatewayConfig::default()`: one iteration-level serving loop per core
//! over one prefix cache, 16 slots split between them, a 64-request
//! queue; see docs/SERVING.md § *The serving loop*. A replica uses its
//! machine's cores itself; a router in front of several is for more
//! machines.

use astro_gateway::{Gateway, GatewayConfig, GatewayState};
use astro_telemetry::info;
use astromlab::eval::{InstructEvalConfig, TokenEvalConfig};
use astromlab::model::{Params, Tier};
use astromlab::prng::Rng;
use astromlab::{Study, StudyConfig};
use std::sync::Arc;

fn usage(err: &str) -> ! {
    info!("astro-gateway: {err}");
    info!("usage: astro-gateway <port> <name> <micro|smoke|fast|full> <seed>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [port, name, preset, seed] = args.as_slice() else {
        usage("expected exactly four arguments");
    };
    let Ok(port) = port.parse::<u16>() else { usage("port is not a number in 0..=65535") };
    let Ok(seed) = seed.parse::<u64>() else { usage("seed is not an unsigned integer") };
    let study_config = match preset.as_str() {
        "micro" => StudyConfig::micro(seed),
        "smoke" => StudyConfig::smoke(seed),
        "fast" => StudyConfig::fast(seed),
        "full" => StudyConfig::full(seed),
        other => usage(&format!("unknown preset {other:?}")),
    };
    let study = Study::prepare(study_config).unwrap_or_else(|e| usage(&format!("prepare: {e}")));
    let params = Params::init(study.model_config(Tier::S70b), &mut Rng::seed_from(seed));
    let state = GatewayState {
        params: Arc::new(params),
        draft: None,
        tokenizer: Arc::new(study.tokenizer.clone()),
        exemplars: Arc::new(study.mcq.exemplars.clone()),
        token_config: TokenEvalConfig::default(),
        instruct_config: InstructEvalConfig::default(),
    };
    let config = GatewayConfig {
        bind: format!("127.0.0.1:{port}"),
        replica_name: name.clone(),
        ..GatewayConfig::default()
    };
    let gw = Gateway::spawn(config, state).unwrap_or_else(|e| usage(&format!("spawn: {e:?}")));
    println!("{}", gw.addr());
    info!("astro-gateway {name}: try curl -s http://{}/healthz", gw.addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
