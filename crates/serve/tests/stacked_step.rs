//! The stacked decode step against the oracle, at its edges.
//!
//! A scheduler step *samples* one token per decoding sequence and then
//! feeds all of them through one stacked forward, one lane per sequence
//! at its own position; the token after which nothing more is sampled is
//! never fed. Here, f32 and int8: 1–8 generate jobs with different prompt
//! lengths (lanes at different positions) and different budgets (lanes
//! leave at different steps), `max_new` of 0 and 1 (nothing is ever fed),
//! a stop token mid-batch, a lane that reaches `max_seq` mid-decode, and
//! score jobs admitted and retired between decode steps. Every token and
//! score equals the `common` oracle's (each job alone, one plain
//! `StepDecoder::step` per token), `serve.decode.forwards` grows by
//! exactly one per step that had a decoding sequence and
//! `serve.decode.rows` by the tokens fed.
//!
//! One test, its own binary: it reads exact deltas of process-global
//! counters.

use astro_model::{ModelConfig, Params, SamplerConfig, Tier, WeightPrecision};
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, SchedulerConfig, ScoreJob, ScoreReadout, SeqOutcome,
};
use std::collections::HashMap;

mod common;

const VOCAB: usize = 24;

fn decode_counters() -> (u64, u64) {
    let get = |name| astro_telemetry::counter(name).get();
    (get("serve.decode.forwards"), get("serve.decode.rows"))
}

fn tokens(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.index(VOCAB) as u32).collect()
}

fn generate_job(rng: &mut Rng, prompt_len: usize, max_new: usize, seed: u64) -> GenerateJob {
    let sampler = if seed.is_multiple_of(2) {
        SamplerConfig::greedy()
    } else {
        SamplerConfig { temperature: 0.9, top_k: 6 }
    };
    GenerateJob {
        prompt: tokens(rng, prompt_len),
        group: None,
        max_new,
        sampler,
        rng: Rng::seed_from(seed),
        stop: vec![],
        trace: None,
    }
}

/// The rows a job's decode must feed, given the tokens the oracle emitted
/// for it: all of them, except the one that spent the budget.
fn rows_fed(job: &GenerateJob, emitted: &[u32]) -> u64 {
    (emitted.len() - usize::from(job.max_new > 0 && emitted.len() == job.max_new)) as u64
}

/// Submit `gens` up front and one of `scores` after every second step,
/// step a fresh scheduler to completion and hold every result to the
/// oracle; returns the `(forwards, rows)` each step added to the decode
/// counters.
fn run(
    params: &Params,
    gens: &[GenerateJob],
    scores: &[ScoreJob],
    label: &str,
) -> Vec<(u64, u64)> {
    let engine = EvalEngine::new(EngineConfig::pooled_with(1), params);
    let mut sched = engine.iter_scheduler(SchedulerConfig {
        prefill_chunk: 5,
        ..SchedulerConfig::default()
    });
    let mut want: HashMap<usize, Vec<u32>> = HashMap::new();
    for job in gens {
        let id = sched.submit_generate(job.clone()).expect("submit");
        want.insert(id, common::generate(params, job));
    }
    let mut late = scores.iter();
    let mut per_step = Vec::new();
    let mut retired = 0;
    while !sched.is_idle() || late.len() > 0 {
        if per_step.len() % 2 == 0 {
            if let Some(job) = late.next() {
                let id = sched.submit_score(job.clone()).expect("submit");
                want.insert(id, common::score_bits(params, job));
            }
        }
        let before = decode_counters();
        for (id, result) in sched.step() {
            let got = match result.unwrap_or_else(|e| panic!("{label}: job {id}: {e}")) {
                SeqOutcome::Tokens(t) => t,
                SeqOutcome::Scores(s) => s.iter().map(|v| v.to_bits()).collect(),
            };
            assert_eq!(Some(&got), want.get(&id), "{label}: job {id} left the oracle");
            retired += 1;
        }
        let after = decode_counters();
        per_step.push((after.0 - before.0, after.1 - before.1));
        assert!(per_step.len() < 1000, "{label}: no forward progress");
    }
    assert_eq!(retired, want.len(), "{label}: every job retires exactly once");
    assert_eq!(sched.ledger().active_blocks(), 0, "{label}: ledger leaked blocks");
    // One forward per step that fed anything, never more than a lane per
    // generate job.
    for (step, &(forwards, rows)) in per_step.iter().enumerate() {
        assert_eq!(forwards, u64::from(rows > 0), "{label}: step {step} fed {rows} rows");
        assert!(rows as usize <= gens.len(), "{label}: step {step} fed {rows} rows");
    }
    let fed: u64 = gens.iter().map(|j| rows_fed(j, &common::generate(params, j))).sum();
    let rows: u64 = per_step.iter().map(|s| s.1).sum();
    assert_eq!(rows, fed, "{label}: rows fed vs the tokens that needed feeding");
    per_step
}

#[test]
fn stacked_decode_step_matches_the_oracle_at_its_edges() {
    for precision in [WeightPrecision::F32, WeightPrecision::Int8] {
        let params = Params::init(ModelConfig::tier(Tier::S7b, VOCAB), &mut Rng::seed_from(23));
        let params = match precision {
            WeightPrecision::F32 => params,
            WeightPrecision::Int8 => params.quantized(),
        };
        let max_seq = params.cfg.max_seq;
        let mut rng = Rng::seed_from(0x57ac);

        // A schedule small enough to count by hand: three prompts of one
        // chunk, budgets 3 / 5 / 8. Step 1 prefills and installs the
        // decoders; a job of budget b is sampled in steps 2..=b+1 and fed
        // in all of them but the last. So 9 steps, forwards in steps 2–8
        // at 3 3 2 2 1 1 1 lanes, 13 rows.
        let by_hand: Vec<GenerateJob> =
            [3, 5, 8].iter().map(|&b| generate_job(&mut rng, 4, b, 2)).collect();
        let got = run(&params, &by_hand, &[], &format!("{precision:?} by hand"));
        let lanes: Vec<u64> = got.iter().map(|s| s.1).collect();
        assert_eq!(lanes, [0, 3, 3, 2, 2, 1, 1, 1, 0], "{precision:?}");

        // `max_new` 0 and 1 alone: the decoder is installed and nothing is
        // ever fed.
        let unfed: Vec<GenerateJob> =
            [0, 1].iter().map(|&b| generate_job(&mut rng, 6, b, 3)).collect();
        let got = run(&params, &unfed, &[], &format!("{precision:?} unfed"));
        assert!(got.iter().all(|&s| s == (0, 0)), "{precision:?}: {got:?}");

        // 1–8 lanes, every edge in one batch.
        let budgets = [6, 0, 1, 9, 12, 3, 11, 2];
        for n in 1..=8 {
            let mut gens: Vec<GenerateJob> = (0..n)
                .map(|i| generate_job(&mut rng, 1 + 3 * i + n % 3, budgets[i], (n * 8 + i) as u64))
                .collect();
            // A stop token mid-batch: the third token job 3 would emit.
            if let Some(job) = gens.get_mut(3) {
                job.stop = vec![common::generate(&params, job)[2]];
                assert!(common::generate(&params, job).len() <= 2);
            }
            // A lane that reaches `max_seq` mid-decode: room for 4 of its
            // 12 tokens, all four fed, while the others continue.
            if let Some(job) = gens.get_mut(4) {
                job.prompt = tokens(&mut rng, max_seq - 4);
                assert_eq!(common::generate(&params, job).len(), 4);
            }
            // Score jobs admitted and retired between the decode steps.
            let scores: Vec<ScoreJob> = (0..4)
                .map(|i| {
                    let readout = if i % 2 == 0 {
                        ScoreReadout::LogitGroups((0..4).map(|o| vec![o, o + 4]).collect())
                    } else {
                        let variants = |rng: &mut Rng| vec![tokens(rng, 3), tokens(rng, 1)];
                        ScoreReadout::ContinuationGroups((0..4).map(|_| variants(&mut rng)).collect())
                    };
                    ScoreJob { prompt: tokens(&mut rng, 3 + 4 * i), group: None, readout, trace: None }
                })
                .collect();
            run(&params, &gens, &scores, &format!("{precision:?} {n} lanes"));
        }
    }
}
