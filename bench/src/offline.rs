//! The two offline workloads: the paper's token method (`token_shared`)
//! and full-instruct method (`instruct_generate`) over a question batch,
//! on the shipped default engine (`study.config.eval_engine`).
//!
//! Untraced repetitions call the public entry points
//! (`token_method_outcomes`, `instruct_method`). The traced repetition
//! makes the same calls those functions make — build jobs, build an
//! engine, run the batch, post-process — with a span around each, so
//! `trace.overhead_pct` doubles as the check that the decomposition
//! still matches the entry point.

use crate::common::{self, counter, Args, Fixture, Outcome, Rep};
use crate::spans::Recorder;
use astro_eval::{
    extract_answer, generate_job, instruct_method, instruct_method_answer, score_job,
    token_method_outcomes, token_method_predict, EvalModel, InstructEvalConfig, TokenEvalConfig,
};
use astro_mcq::Mcq;
use astro_model::Tier;
use astro_prng::Rng;
use astro_serve::{EvalEngine, ScoreReadout};
use std::time::Instant;

/// Frozen nominal rates of the committing machine (2 cores), questions/s.
const TOKEN_NOMINAL_QPS: f64 = 40.0;
const INSTRUCT_NOMINAL_QPS: f64 = 18.0;

/// One term of the reconciliation: `count` units of work at the cost the
/// named probe metric measured for one unit.
pub struct Term {
    pub probe: &'static str,
    pub count: f64,
    /// Spread over the engine's workers (else serial in the caller).
    pub parallel: bool,
}

/// Σ(probe cost × exact count) for one traced repetition, to be divided
/// by that repetition's measured wall time once the probes have run.
pub struct Reconcile {
    pub terms: Vec<Term>,
    pub workers: f64,
    pub wall_s: f64,
}

/// Global-registry counters the engine publishes per batch.
struct EngineCounters {
    encoded: u64,
    saved: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl EngineCounters {
    fn now() -> Self {
        EngineCounters {
            encoded: counter("serve.tokens.encoded"),
            saved: counter("serve.tokens.saved"),
            hits: counter("serve.prefix.hits"),
            misses: counter("serve.prefix.misses"),
            evictions: counter("serve.cache.evictions"),
        }
    }

    /// Record the cache metrics of the work done since `before`.
    fn record_since(before: &EngineCounters, out: &mut Outcome) {
        let now = EngineCounters::now();
        let (encoded, saved) = (now.encoded - before.encoded, now.saved - before.saved);
        let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
        out.layer.insert(
            "serve.prefix_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.layer.insert(
            "serve.tokens_reused_share",
            saved as f64 / (saved + encoded).max(1) as f64,
        );
        out.layer.insert("serve.tokens_encoded", encoded as f64);
        out.layer
            .insert("serve.evictions", (now.evictions - before.evictions) as f64);
        out.layer.insert(
            "serve.resident_bytes_peak",
            astro_telemetry::gauge("serve.cache.resident_bytes").get() as f64,
        );
    }
}

/// Paper methods 2/3: score every option's continuation after a two-shot
/// prompt. ~111 of ~136 prompt tokens are the shared preamble, so the
/// work is a trie hit, a fork per continuation and a short tail prefill.
pub fn token_shared(args: &Args, rec: &mut Recorder) -> (Outcome, Option<Reconcile>) {
    let n = args.rep_ops(TOKEN_NOMINAL_QPS, 8);
    let mut out = Outcome::default();
    let mut scores = Vec::new();
    let mut reconcile = None;
    let setup = || {
        let fx = Fixture::new(Tier::S70b, false);
        // Warm-up: first-touch the weights and the allocator.
        run_token(&fx, &fx.pick(args.seed, 8), &mut Recorder::new(false));
        fx
    };
    let fx = common::instances(args, &mut out, setup, |fx, rep, out| {
        let questions = fx.pick(args.seed, n);
        let traced = args.traces(rep);
        let before = EngineCounters::now();
        let t = Instant::now();
        let mut quiet = Recorder::new(false);
        let run = run_token(fx, &questions, if traced { &mut *rec } else { &mut quiet });
        let wall_s = t.elapsed().as_secs_f64();
        out.reps.push(Rep {
            ops: n,
            wall_s,
            traced,
        });
        if rep == 0 {
            EngineCounters::record_since(&before, out);
        }
        if traced {
            let encoded = counter("serve.tokens.encoded") - before.encoded;
            out.layer
                .insert("serve.engine_busy_share", run.batch_s / wall_s);
            reconcile = Some(Reconcile {
                terms: vec![
                    Term {
                        probe: "eval.build_score_job_us_p50",
                        count: n as f64,
                        parallel: false,
                    },
                    Term {
                        probe: "model.prefill_tokens_per_s.s70b_f32",
                        count: run.anchor_tokens as f64,
                        parallel: false,
                    },
                    // Tails and continuations are fed one token at a time
                    // from position ~111 on: the decode-position cost.
                    Term {
                        probe: "model.decode_tokens_per_s.s70b_f32",
                        count: (encoded + run.continuation_tokens) as f64,
                        parallel: true,
                    },
                    Term {
                        probe: "model.fork_us.s70b",
                        count: run.continuations as f64,
                        parallel: true,
                    },
                    Term {
                        probe: "serve.trie_fork_us",
                        count: n as f64,
                        parallel: true,
                    },
                ],
                workers: fx.study.config.eval_engine.resolved_parallelism() as f64,
                wall_s,
            });
        }
        out.attempted += n as u64;
        out.failed += run.scores.iter().filter(|s| s.is_none()).count() as u64;
        scores = run.scores;
    });
    let questions = fx.pick(args.seed, n);

    let checks = common::check_indices(n, args.oracle_checks());
    let model = EvalModel {
        params: &fx.params,
        tokenizer: &fx.study.tokenizer,
    };
    out.failed += common::oracle_mismatches(&checks, |i| {
        let (_, want) = token_method_predict(
            &model,
            questions[i],
            &fx.study.mcq.exemplars,
            &TokenEvalConfig::default(),
        );
        scores[i]
            .as_ref()
            .is_none_or(|got| *got == common::score_bits(&want))
    });
    out.layer.insert("loadgen.checked_ops", checks.len() as f64);
    (out, reconcile)
}

struct TokenRun {
    /// Per question: the four scores' bit patterns, `None` on an engine error.
    scores: Vec<Option<Vec<u32>>>,
    batch_s: f64,
    anchor_tokens: usize,
    continuations: u64,
    continuation_tokens: u64,
}

fn run_token(fx: &Fixture, questions: &[&Mcq], rec: &mut Recorder) -> TokenRun {
    let model = EvalModel {
        params: &fx.params,
        tokenizer: &fx.study.tokenizer,
    };
    let cfg = TokenEvalConfig {
        engine: fx.study.config.eval_engine,
        ..Default::default()
    };
    let exemplars = &fx.study.mcq.exemplars;
    if !rec.enabled() {
        let scores = token_method_outcomes(&model, questions, exemplars, &cfg)
            .into_iter()
            .map(|o| o.error.is_none().then(|| common::score_bits(&o.scores)))
            .collect();
        return TokenRun {
            scores,
            batch_s: 0.0,
            anchor_tokens: 0,
            continuations: 0,
            continuation_tokens: 0,
        };
    }
    let root = rec.open("token_method_outcomes", None, 0);
    let build = rec.open("eval.build_jobs", root, 0);
    let jobs: Vec<_> = questions
        .iter()
        .map(|q| {
            rec.within("eval.score_job", build, || {
                score_job(&model, q, exemplars, &cfg)
            })
        })
        .collect();
    rec.close(build);
    let prompts: Vec<&[u32]> = jobs.iter().map(|j| j.prompt.as_slice()).collect();
    let anchor_tokens = common::common_prefix(&prompts).len();
    let (mut continuations, mut continuation_tokens) = (0u64, 0u64);
    for job in &jobs {
        if let ScoreReadout::ContinuationGroups(groups) = &job.readout {
            for variant in groups.iter().flatten() {
                continuations += 1;
                continuation_tokens += variant.len() as u64;
            }
        }
    }
    let engine = rec.within("serve.engine_new", root, || {
        EvalEngine::new(cfg.engine, model.params)
    });
    let t = Instant::now();
    let results = rec.within("serve.score_batch", root, || engine.score_batch(jobs));
    let batch_s = t.elapsed().as_secs_f64();
    let scores = rec.within("eval.collect", root, || {
        results
            .into_iter()
            .map(|r| r.ok().map(|s| common::score_bits(&s)))
            .collect()
    });
    rec.close(root);
    TokenRun {
        scores,
        batch_s,
        anchor_tokens,
        continuations,
        continuation_tokens,
    }
}

/// Paper method 1: generate 48 tokens greedily from a chat prompt and run
/// the extraction cascade. Only a 33-token system prefix is shared, so
/// prefill and decode dominate and the prefix cache matters little.
pub fn instruct_generate(args: &Args, rec: &mut Recorder) -> (Outcome, Option<Reconcile>) {
    let n = args.rep_ops(INSTRUCT_NOMINAL_QPS, 8);
    let mut out = Outcome::default();
    let mut answers = Vec::new();
    let mut reconcile = None;
    let setup = || {
        let fx = Fixture::new(Tier::S70b, false);
        run_instruct(
            &fx,
            &fx.pick(args.seed, 4),
            args.seed,
            &mut Recorder::new(false),
        );
        fx
    };
    let fx = common::instances(args, &mut out, setup, |fx, rep, out| {
        let questions = fx.pick(args.seed, n);
        let traced = args.traces(rep);
        let before = EngineCounters::now();
        let t = Instant::now();
        let mut quiet = Recorder::new(false);
        let run = run_instruct(
            fx,
            &questions,
            args.seed,
            if traced { &mut *rec } else { &mut quiet },
        );
        let wall_s = t.elapsed().as_secs_f64();
        out.reps.push(Rep {
            ops: n,
            wall_s,
            traced,
        });
        if rep == 0 {
            EngineCounters::record_since(&before, out);
        }
        if traced {
            let encoded = counter("serve.tokens.encoded") - before.encoded;
            out.layer
                .insert("serve.engine_busy_share", run.batch_s / wall_s);
            reconcile = Some(Reconcile {
                terms: vec![
                    Term {
                        probe: "eval.build_generate_job_us_p50",
                        count: n as f64,
                        parallel: false,
                    },
                    Term {
                        probe: "model.prefill_tokens_per_s.s70b_f32",
                        count: run.anchor_tokens as f64,
                        parallel: false,
                    },
                    Term {
                        probe: "model.prefill_tokens_per_s.s70b_f32",
                        count: encoded as f64,
                        parallel: true,
                    },
                    Term {
                        probe: "model.decode_tokens_per_s.s70b_f32",
                        count: run.generated_tokens as f64,
                        parallel: true,
                    },
                    Term {
                        probe: "serve.trie_fork_us",
                        count: n as f64,
                        parallel: true,
                    },
                    Term {
                        probe: "eval.extract_us_p50",
                        count: n as f64,
                        parallel: false,
                    },
                ],
                workers: fx.study.config.eval_engine.resolved_parallelism() as f64,
                wall_s,
            });
        }
        out.attempted += n as u64;
        out.failed += run.answers.iter().filter(|a| a.is_none()).count() as u64;
        answers = run.answers;
    });
    let questions = fx.pick(args.seed, n);

    let checks = common::check_indices(n, args.oracle_checks());
    let model = EvalModel {
        params: &fx.params,
        tokenizer: &fx.study.tokenizer,
    };
    let rng = Rng::seed_from(args.seed);
    out.failed += common::oracle_mismatches(&checks, |i| {
        let mut qrng = rng.substream_idx("instruct-q", i as u64);
        let want = instruct_method_answer(
            &model,
            questions[i],
            &InstructEvalConfig::default(),
            &mut qrng,
        );
        answers[i]
            .as_ref()
            .is_none_or(|got| *got == (want.raw, want.prediction))
    });
    out.layer.insert("loadgen.checked_ops", checks.len() as f64);
    (out, reconcile)
}

struct InstructRun {
    /// Per question: generated text and extracted option, `None` on error.
    answers: Vec<Option<(String, Option<usize>)>>,
    batch_s: f64,
    anchor_tokens: usize,
    generated_tokens: u64,
}

fn run_instruct(fx: &Fixture, questions: &[&Mcq], seed: u64, rec: &mut Recorder) -> InstructRun {
    let model = EvalModel {
        params: &fx.params,
        tokenizer: &fx.study.tokenizer,
    };
    let cfg = InstructEvalConfig {
        engine: fx.study.config.eval_engine,
        ..Default::default()
    };
    let mut rng = Rng::seed_from(seed);
    if !rec.enabled() {
        let answers = instruct_method(&model, questions, &cfg, &mut rng)
            .into_iter()
            .map(|a| a.error.is_none().then_some((a.raw, a.prediction)))
            .collect();
        return InstructRun {
            answers,
            batch_s: 0.0,
            anchor_tokens: 0,
            generated_tokens: 0,
        };
    }
    let root = rec.open("instruct_method", None, 0);
    let build = rec.open("eval.build_jobs", root, 0);
    let jobs: Vec<_> = questions
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let qrng = rng.substream_idx("instruct-q", i as u64);
            rec.within("eval.generate_job", build, || {
                generate_job(&model, q, &cfg, qrng)
            })
        })
        .collect();
    rec.close(build);
    let prompts: Vec<&[u32]> = jobs.iter().map(|j| j.prompt.as_slice()).collect();
    let anchor_tokens = common::common_prefix(&prompts).len();
    let engine = rec.within("serve.engine_new", root, || {
        EvalEngine::new(cfg.engine, model.params)
    });
    let t = Instant::now();
    let results = rec.within("serve.generate_batch", root, || engine.generate_batch(jobs));
    let batch_s = t.elapsed().as_secs_f64();
    let mut generated_tokens = 0u64;
    let post = rec.open("eval.postprocess", root, 0);
    let answers = results
        .into_iter()
        .zip(questions)
        .map(|(r, q)| {
            let tokens = r.ok()?;
            generated_tokens += tokens.len() as u64;
            let raw = rec.within("tokenizer.decode", post, || model.tokenizer.decode(&tokens));
            let (prediction, _) =
                rec.within("eval.extract", post, || extract_answer(&raw, &q.options));
            Some((raw, prediction))
        })
        .collect();
    rec.close(post);
    rec.close(root);
    InstructRun {
        answers,
        batch_s,
        anchor_tokens,
        generated_tokens,
    }
}
