//! Benchmark the astro-quant int8 kernels and speculative decoding
//! against the f32 reference path: decode tokens/sec per tier, and
//! end-to-end instruct-method questions/sec with an S7b draft
//! speculating for an int8 S70b target.
//!
//! ```sh
//! cargo run --release -p astro-bench --bin kernels_bench -- [smoke|fast|full] [seed]
//! ```
//!
//! Two sections:
//!
//! 1. **Kernels** — untrained weights (quantization cost does not depend
//!    on training state): single-session greedy decode tokens/sec on the
//!    f32 and int8 paths for every tier. The int8 S70b path must not be
//!    slower than f32 ([`INT8_DECODE_FLOOR`]).
//! 2. **Speculation** — the draft and target are *pretrained on the same
//!    corpus* (the preset's native recipe) so their greedy continuations
//!    correlate, exactly the small-drafts-large setting of the paper
//!    family. The instruct eval subset is generated three ways: f32
//!    plain, int8 plain, and int8 + speculation. Greedy int8+spec output
//!    must be bitwise-identical to greedy int8 plain (speculation changes
//!    throughput only), and int8+spec must hold [`SPEC_E2E_FLOOR`] of the
//!    f32 questions/sec.
//!
//! Both ratios have f32 as their denominator and were sized (1.8x, 1.3x)
//! when the f32 kernel was one latency-bound `dot` per output element.
//! The register-tiled `matmul_a_bt` (PR 14) more than doubled f32 decode
//! and left the int8 path where it was (smoke, 2-core VM, before -> after:
//! f32 1324 -> 2995 tok/s, int8 3557 -> 3417; e2e f32 9.5 -> 26.3 q/s,
//! int8 26.9 -> 38.2, int8+spec 21.9 -> 27.4), so the 1.8x / 1.3x
//! contracts no longer hold: 13 smoke runs after it measured int8 decode
//! at 1.13-1.47x f32 and int8+spec at 0.91-1.14x. The floors sit just
//! under those. What they still say: int8 decode is not slower than f32,
//! and the speculative stack stays within noise of f32 end to end — which
//! is a finding, not a target (a speculative round does not beat plain
//! int8 here, before or after; ROADMAP item 3).
//!
//! Results land in `BENCH_kernels.json`; `bench_regression` gates them
//! against the floors committed in `goldens/BENCH_kernels.baseline.json`.

use astro_bench::{instrumented_run, JsonObject};
use astro_telemetry::{counter, info};
use astromlab::eval::{generate_job, EvalModel, InstructEvalConfig};
use astromlab::mcq::Mcq;
use astromlab::model::{InferenceSession, Params, SamplerConfig, StepDecoder, Tier};
use astromlab::prng::Rng;
use astromlab::serve::{EngineConfig, EvalEngine};
use astromlab::Study;

/// Draft length for the speculation section; see docs/TUNING.md for how
/// this trades acceptance against wasted verification.
const SPEC_K: usize = 3;

/// Floor on int8 / f32 S70b decode tokens/sec (measured 1.13–1.47).
const INT8_DECODE_FLOOR: f64 = 1.0;
/// Floor on int8+speculation / f32 end-to-end questions/sec (measured
/// 0.91–1.14).
const SPEC_E2E_FLOOR: f64 = 0.85;

/// Greedy single-session decode throughput, prefill excluded.
fn decode_tokens_per_sec(params: &Params, n_tokens: usize) -> f64 {
    let vocab = params.cfg.vocab_size as u32;
    let prompt: Vec<u32> = (0..16u32).map(|i| 1 + i % (vocab - 1)).collect();
    let mut sess = InferenceSession::new(params.cfg);
    sess.feed_prompt(params, &prompt);
    // No stop tokens and a budget covering warmup + the timed run, so
    // the decoder never terminates early on untrained weights.
    let mut dec = StepDecoder::new(
        SamplerConfig::greedy(),
        Rng::seed_from(7),
        Vec::new(),
        16 + n_tokens,
    );
    for _ in 0..16 {
        if dec.step(params, &mut sess).is_none() {
            break;
        }
    }
    let t = std::time::Instant::now();
    let mut produced = 0usize;
    while produced < n_tokens {
        if dec.step(params, &mut sess).is_none() {
            break;
        }
        produced += 1;
    }
    produced as f64 / t.elapsed().as_secs_f64()
}

/// Run the instruct-method generation jobs through one engine, returning
/// the generated token streams and the wall time.
fn run_generate(
    engine: &EvalEngine,
    model: &EvalModel<'_>,
    questions: &[&Mcq],
    icfg: &InstructEvalConfig,
) -> (Vec<Vec<u32>>, f64) {
    let jobs: Vec<_> = questions
        .iter()
        .enumerate()
        .map(|(i, q)| generate_job(model, q, icfg, Rng::seed_from(5000 + i as u64)))
        .collect();
    let t = std::time::Instant::now();
    let outputs: Vec<Vec<u32>> = engine
        .generate_batch(jobs)
        .into_iter()
        .map(|r| r.expect("generation job failed"))
        .collect();
    (outputs, t.elapsed().as_secs_f64())
}

fn main() {
    let (config, mut run) = instrumented_run("kernels_bench");
    let study = Study::prepare(config).expect("prepare");

    // ---- Section 1: per-tier decode kernels, f32 vs int8. ----
    let tiers = [(Tier::S7b, "s7b"), (Tier::S8b, "s8b"), (Tier::S70b, "s70b")];
    let mut obj = JsonObject::new();
    obj.str("bench", "kernels")
        .str(
            "preset",
            &std::env::args().nth(1).unwrap_or_else(|| "fast".into()),
        )
        .num("seed", study.config.seed as f64);
    let mut s70b_speedup = 0.0;
    for (tier, label) in tiers {
        let params = Params::init(
            study.model_config(tier),
            &mut Rng::seed_from(study.config.seed + 13),
        );
        let qparams = params.clone().quantized();
        let f32_tps = decode_tokens_per_sec(&params, 200);
        let int8_tps = decode_tokens_per_sec(&qparams, 200);
        let speedup = int8_tps / f32_tps;
        info!(
            "kernels: {label} decode {f32_tps:.0} tok/s f32, {int8_tps:.0} tok/s int8 \
             ({speedup:.2}x)"
        );
        obj.num(&format!("f32_tokens_per_sec_{label}"), f32_tps)
            .num(&format!("int8_tokens_per_sec_{label}"), int8_tps)
            .num(&format!("int8_speedup_{label}"), speedup);
        if matches!(tier, Tier::S70b) {
            s70b_speedup = speedup;
        }
    }

    // ---- Section 2: speculative decoding end to end. ----
    let (draft_f32, _) = study.pretrain_native(Tier::S7b).expect("pretrain draft");
    let (target_f32, _) = study.pretrain_native(Tier::S70b).expect("pretrain target");
    let draft_int8 = draft_f32.clone().quantized();
    let target_int8 = target_f32.clone().quantized();
    let model = EvalModel {
        params: &target_f32,
        tokenizer: &study.tokenizer,
    };
    let icfg = InstructEvalConfig::default();
    let questions = study.eval_questions();
    let questions: Vec<&Mcq> = questions.into_iter().take(24).collect();
    let n = questions.len();
    info!("kernels: speculation section, {n} questions, k={SPEC_K}");

    let f32_engine = EvalEngine::new(EngineConfig::serial(), &target_f32);
    let (_, f32_wall) = run_generate(&f32_engine, &model, &questions, &icfg);
    let int8_engine = EvalEngine::new(EngineConfig::serial(), &target_int8);
    let (int8_out, int8_wall) = run_generate(&int8_engine, &model, &questions, &icfg);
    let drafted0 = counter("serve.spec.drafted").get();
    let accepted0 = counter("serve.spec.accepted").get();
    let spec_engine = EvalEngine::new(EngineConfig::serial().with_spec_k(SPEC_K), &target_int8)
        .with_draft(&draft_int8);
    let (spec_out, spec_wall) = run_generate(&spec_engine, &model, &questions, &icfg);
    let drafted = counter("serve.spec.drafted").get() - drafted0;
    let accepted = counter("serve.spec.accepted").get() - accepted0;
    let acceptance = accepted as f64 / drafted.max(1) as f64;

    let f32_qps = n as f64 / f32_wall;
    let int8_qps = n as f64 / int8_wall;
    let spec_qps = n as f64 / spec_wall;
    let int8_e2e = int8_qps / f32_qps;
    let spec_e2e = spec_qps / f32_qps;
    let parity = int8_out == spec_out;
    info!(
        "e2e: f32 {f32_qps:.2} q/s, int8 {int8_qps:.2} q/s ({int8_e2e:.2}x), \
         int8+spec {spec_qps:.2} q/s ({spec_e2e:.2}x)"
    );
    info!(
        "speculation: {drafted} drafted, {accepted} accepted \
         (acceptance {acceptance:.2}), parity {}",
        if parity { "bitwise" } else { "FAILED" }
    );

    obj.num("spec_k", SPEC_K as f64)
        .num("n_questions", n as f64)
        .num("e2e_f32_questions_per_sec", f32_qps)
        .num("e2e_int8_questions_per_sec", int8_qps)
        .num("e2e_spec_questions_per_sec", spec_qps)
        .num("e2e_int8_speedup", int8_e2e)
        .num("e2e_spec_speedup", spec_e2e)
        .num("spec_drafted", drafted as f64)
        .num("spec_accepted", accepted as f64)
        .num("spec_acceptance_rate", acceptance)
        .str("spec_parity", if parity { "bitwise" } else { "FAILED" });
    let json = obj.finish();
    if let Err(e) = astromlab::eval::json::Json::parse(&json) {
        info!("kernels_bench: emitted invalid JSON ({e:?})");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => run.add("bench_json", "BENCH_kernels.json"),
        Err(e) => info!("BENCH_kernels.json not written: {e}"),
    }
    run.add("int8_speedup_s70b", &format!("{s70b_speedup:.2}"));
    run.add("e2e_spec_speedup", &format!("{spec_e2e:.2}"));
    run.finish();

    // Contract checks last, so the JSON and manifest always land for
    // diagnosis even when a check fails the run.
    let mut failures = Vec::new();
    if s70b_speedup < INT8_DECODE_FLOOR {
        failures.push(format!(
            "int8 S70b decode must be >= {INT8_DECODE_FLOOR}x f32, got {s70b_speedup:.2}x"
        ));
    }
    if spec_e2e < SPEC_E2E_FLOOR {
        failures.push(format!(
            "int8+speculation must be >= {SPEC_E2E_FLOOR}x f32 questions/sec, got {spec_e2e:.2}x"
        ));
    }
    if !parity {
        failures.push("greedy int8+spec output diverged from greedy int8 plain".to_string());
    }
    if drafted == 0 || accepted == 0 {
        failures.push(format!(
            "speculation never engaged: {drafted} drafted, {accepted} accepted"
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            info!("kernels_bench: FAIL: {f}");
        }
        std::process::exit(1);
    }
    info!(
        "kernels_bench: OK ({s70b_speedup:.2}x int8 decode, {spec_e2e:.2}x e2e spec, \
         acceptance {acceptance:.2})"
    );
}
