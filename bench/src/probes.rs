//! Per-layer probes: time calls into each layer's public functions at the
//! workloads' real shapes. Rates come from the clock; bytes are
//! *computed* from tensor sizes, not measured.

use crate::common::{Fixture, WEIGHT_SEED};
use crate::stats;
use astro_eval::{
    extract_answer, generate_job, score_job, EvalModel, InstructEvalConfig, TokenEvalConfig,
};
use astro_mcq::prompts::token_method_prompt;
use astro_model::{InferenceSession, ModelConfig, Params, SamplerConfig, StepDecoder, Tier};
use astro_prng::Rng;
use astro_serve::PrefixCache;
use astro_tensor::matmul::matmul_a_bt;
use astro_tensor::qmatmul::matmul_q8_a_bt;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Position the decode, chunk and fork probes start from, and the length
/// of the prefill probe: about one token-method prompt.
const POSITION: usize = 128;
const DECODE_STEPS: usize = 32;

/// How long a probe may take: five batches of ~12 ms per timed call,
/// or for the tenth-size check run one of ~1 ms.
#[derive(Clone, Copy)]
pub struct Budget {
    batches: usize,
    batch_s: f64,
}

impl Budget {
    pub const FULL: Budget = Budget {
        batches: 5,
        batch_s: 0.012,
    };
    pub const SMOKE: Budget = Budget {
        batches: 1,
        batch_s: 0.001,
    };
}

/// Median seconds per call of `f` over the budget's batches.
fn time_call(budget: Budget, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((budget.batch_s / one).ceil() as usize).max(1);
    let batches: Vec<f64> = (0..budget.batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    stats::median(&batches)
}

/// Median of the individual call times of `f` over `inputs`, in µs.
fn p50_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times)
}

/// The linear layers one decoded token runs through: `(d_in, d_out, uses)`.
fn token_matvecs(cfg: &ModelConfig) -> [(usize, usize, usize); 4] {
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    [
        (d, d, 4 * cfg.n_layers),  // wq, wk, wv, wo
        (d, ff, 2 * cfg.n_layers), // w_gate, w_up
        (ff, d, cfg.n_layers),     // w_down
        (d, cfg.vocab_size, 1),    // tied LM head
    ]
}

/// One token's worth of linear layers as `rows`-row kernel calls.
struct KernelCost {
    seconds: f64,
    ops: f64,
    bytes: f64,
}

fn f32_kernels(budget: Budget, cfg: &ModelConfig, rows: usize) -> KernelCost {
    let mut cost = KernelCost {
        seconds: 0.0,
        ops: 0.0,
        bytes: 0.0,
    };
    for (k, n, uses) in token_matvecs(cfg) {
        let a = vec![0.5f32; rows * k];
        let b = vec![0.25f32; n * k];
        let mut out = vec![0.0f32; rows * n];
        let t = time_call(budget, || {
            matmul_a_bt(
                black_box(&mut out),
                black_box(&a),
                black_box(&b),
                rows,
                k,
                n,
            )
        });
        cost.seconds += t * uses as f64;
        cost.ops += (2 * rows * k * n * uses) as f64;
        cost.bytes += (4 * (n * k + rows * k + rows * n) * uses) as f64;
    }
    cost
}

fn q8_kernels(budget: Budget, cfg: &ModelConfig, rows: usize) -> KernelCost {
    let mut cost = KernelCost {
        seconds: 0.0,
        ops: 0.0,
        bytes: 0.0,
    };
    for (k, n, uses) in token_matvecs(cfg) {
        let a = vec![3i8; rows * k];
        let a_scales = vec![0.01f32; rows];
        let b = vec![-2i8; n * k];
        let b_scales = vec![0.02f32; n];
        let mut out = vec![0.0f32; rows * n];
        let t = time_call(budget, || {
            matmul_q8_a_bt(
                black_box(&mut out),
                black_box(&a),
                &a_scales,
                black_box(&b),
                &b_scales,
                rows,
                k,
                n,
            )
        });
        cost.seconds += t * uses as f64;
        cost.ops += (2 * rows * k * n * uses) as f64;
        cost.bytes += ((n * k + rows * k + 4 * (n + rows + rows * n)) * uses) as f64;
    }
    cost
}

/// Stream-copy ceiling: 32 MiB source to 32 MiB destination.
fn copy_gbps(budget: Budget) -> f64 {
    let src = vec![1u8; 32 << 20];
    let mut dst = vec![0u8; 32 << 20];
    let t = time_call(budget, || {
        black_box(&mut dst).copy_from_slice(black_box(&src))
    });
    2.0 * src.len() as f64 / t / 1e9
}

/// Multiply-add ceiling of one core at this build's settings: 64
/// independent accumulator lanes the compiler is free to vectorise.
fn fma_gflops(budget: Budget) -> f64 {
    const ITERS: usize = 20_000;
    let mut acc = [[1.0f32; 8]; 8];
    let t = time_call(budget, || {
        let (m, c) = (black_box(0.999_9f32), black_box(1e-4f32));
        for _ in 0..ITERS {
            for lanes in acc.iter_mut() {
                for v in lanes.iter_mut() {
                    *v = *v * m + c;
                }
            }
        }
        black_box(&mut acc);
    });
    (ITERS * 64 * 2) as f64 / t / 1e9
}

/// Prefill, decode and fork rates of one model.
struct ModelRates {
    prefill_tokens_per_s: f64,
    decode_tokens_per_s: f64,
    fork_us: f64,
    /// A session fed `POSITION` prompt tokens.
    base: InferenceSession,
    /// Tokens the decode probe generated (input for the extract probe).
    generated: Vec<u32>,
}

fn model_rates(budget: Budget, params: &Params, prompt: &[u32]) -> ModelRates {
    let mut sess = InferenceSession::new(params.cfg);
    let prefill = time_call(budget, || {
        sess.reset();
        black_box(sess.feed_prompt(params, &prompt[..POSITION]));
    });
    let base = sess.clone();
    let mut generated = Vec::new();
    let decode = time_call(budget, || {
        sess.assign_from(&base);
        let mut dec = StepDecoder::new(
            SamplerConfig::greedy(),
            Rng::seed_from(1),
            Vec::new(),
            DECODE_STEPS,
        );
        while dec.step(params, &mut sess).is_some() {}
        generated = dec.into_tokens();
    });
    let fork = time_call(budget, || sess.assign_from(black_box(&base)));
    ModelRates {
        prefill_tokens_per_s: POSITION as f64 / prefill,
        decode_tokens_per_s: generated.len() as f64 / decode,
        fork_us: fork * 1e6,
        base,
        generated,
    }
}

/// Run every probe: ~2 s at the full budget.
pub fn run_all(seed: u64, budget: Budget) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let fx = Fixture::new(Tier::S70b, false);
    let s70b_int8 = fx.params.clone().quantized();
    let s7b = Params::init(
        fx.study.model_config(Tier::S7b),
        &mut Rng::seed_from(WEIGHT_SEED),
    );
    let model = EvalModel {
        params: &fx.params,
        tokenizer: &fx.study.tokenizer,
    };
    let questions = fx.pick(seed, 64);
    let exemplars = &fx.study.mcq.exemplars;
    let prompt = score_job(&model, questions[0], exemplars, &TokenEvalConfig::default()).prompt;
    assert!(
        prompt.len() >= POSITION,
        "token-method prompt shorter than the probe position"
    );

    m.insert("machine.copy_gbps", copy_gbps(budget));
    m.insert("machine.fma_gflops", fma_gflops(budget));

    // tensor: one token's linear layers, as single-row and 8-row calls.
    let cfg = fx.params.cfg;
    let f32_m1 = f32_kernels(budget, &cfg, 1);
    m.insert(
        "tensor.matvec_f32_gflops",
        f32_m1.ops / f32_m1.seconds / 1e9,
    );
    m.insert(
        "tensor.matvec_f32_gbps",
        f32_m1.bytes / f32_m1.seconds / 1e9,
    );
    let f32_s7b = f32_kernels(budget, &s7b.cfg, 1);
    m.insert(
        "tensor.matvec_f32_s7b_gflops",
        f32_s7b.ops / f32_s7b.seconds / 1e9,
    );
    let q8_m1 = q8_kernels(budget, &cfg, 1);
    m.insert("tensor.matvec_q8_gops", q8_m1.ops / q8_m1.seconds / 1e9);
    m.insert("tensor.matvec_q8_gbps", q8_m1.bytes / q8_m1.seconds / 1e9);
    let f32_m8 = f32_kernels(budget, &cfg, 8);
    m.insert(
        "tensor.matmul_f32_m8_gflops",
        f32_m8.ops / f32_m8.seconds / 1e9,
    );
    let q8_m8 = q8_kernels(budget, &cfg, 8);
    m.insert("tensor.matmul_q8_m8_gops", q8_m8.ops / q8_m8.seconds / 1e9);

    // model: prefill / decode / fork per tier and precision.
    let r70 = model_rates(budget, &fx.params, &prompt);
    let r70q = model_rates(budget, &s70b_int8, &prompt);
    let r7 = model_rates(budget, &s7b, &prompt);
    m.insert(
        "model.prefill_tokens_per_s.s70b_f32",
        r70.prefill_tokens_per_s,
    );
    m.insert(
        "model.prefill_tokens_per_s.s70b_int8",
        r70q.prefill_tokens_per_s,
    );
    m.insert(
        "model.prefill_tokens_per_s.s7b_f32",
        r7.prefill_tokens_per_s,
    );
    m.insert(
        "model.decode_tokens_per_s.s70b_f32",
        r70.decode_tokens_per_s,
    );
    m.insert(
        "model.decode_tokens_per_s.s70b_int8",
        r70q.decode_tokens_per_s,
    );
    m.insert("model.decode_tokens_per_s.s7b_f32", r7.decode_tokens_per_s);
    m.insert("model.fork_us.s70b", r70.fork_us);
    m.insert("model.fork_us.s7b", r7.fork_us);
    m.insert("model.session_bytes.s70b", cfg.session_bytes() as f64);
    // Useful-work ratio of the decoder: standalone matvec time for one
    // token over the measured step time.
    m.insert(
        "model.decode_kernel_share.s70b_f32",
        f32_m1.seconds * r70.decode_tokens_per_s,
    );
    let mut chunk_sess = InferenceSession::new(s70b_int8.cfg);
    let chunk = time_call(budget, || {
        chunk_sess.assign_from(&r70q.base);
        black_box(
            chunk_sess
                .try_feed_chunk(&s70b_int8, &prompt[..4])
                .expect("room for four tokens"),
        );
    });
    m.insert("model.chunk4_tokens_per_s.s70b_int8", 4.0 / chunk);

    // serve: trie read and write paths with an S70b session.
    let mut dst = InferenceSession::new(cfg);
    let mut cache = PrefixCache::new(&cfg, 0);
    cache.insert(&prompt[..POSITION], &r70.base, true);
    let fork = time_call(budget, || {
        black_box(cache.fork_into(&mut dst, &prompt));
    });
    m.insert("serve.trie_fork_us", fork * 1e6);
    // Budget two snapshots, cycle three prefixes: every insert clones a
    // session in and evicts the least recently used one.
    let mut small = PrefixCache::new(&cfg, 2 * cfg.session_bytes());
    let prefixes: Vec<Vec<u32>> = (0..3u32)
        .map(|i| {
            std::iter::once(i)
                .chain(prompt[1..POSITION].iter().copied())
                .collect()
        })
        .collect();
    let mut turn = 0;
    let insert = time_call(budget, || {
        assert!(
            small.insert(&prefixes[turn % 3], &r70.base, false),
            "insert refused"
        );
        turn += 1;
    });
    m.insert("serve.trie_insert_us", insert * 1e6);

    // eval / tokenizer: job builders, extraction, encoding.
    m.insert(
        "eval.build_score_job_us_p50",
        p50_us(&questions, |q| {
            drop(black_box(score_job(
                &model,
                q,
                exemplars,
                &TokenEvalConfig::default(),
            )))
        }),
    );
    m.insert(
        "eval.build_generate_job_us_p50",
        p50_us(&questions, |q| {
            drop(black_box(generate_job(
                &model,
                q,
                &InstructEvalConfig::default(),
                Rng::seed_from(1),
            )))
        }),
    );
    let raw = fx.study.tokenizer.decode(&r70.generated);
    m.insert(
        "eval.extract_us_p50",
        p50_us(&questions, |q| {
            black_box(extract_answer(&raw, &q.options));
        }),
    );
    let texts: Vec<String> = questions
        .iter()
        .map(|q| token_method_prompt(q, exemplars, 2))
        .collect();
    let tokens: usize = texts
        .iter()
        .map(|t| fx.study.tokenizer.encode(t).len())
        .sum();
    let encode = time_call(budget, || {
        for t in &texts {
            black_box(fx.study.tokenizer.encode(t));
        }
    });
    m.insert("tokenizer.encode_tokens_per_s", tokens as f64 / encode);
    m
}
