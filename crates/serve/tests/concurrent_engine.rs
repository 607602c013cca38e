//! Concurrency property: a single shared [`EvalEngine`] hammered by
//! interleaved `score_batch` and `generate_batch` calls from many
//! threads must return **bitwise identical** results to the
//! fresh-session oracle (`common`: each job alone, no engine) —
//! including while a `serve.cache_full` fault plan is armed. This is the exact contract
//! the gateway's micro-batching scheduler relies on: whatever batch
//! composition the wall clock produces across concurrent clients, the
//! answers cannot change.
//!
//! A fault test's plan is its own (`Faults::enter`), inherited by the
//! engine's threads and the client threads, so the tests run in parallel.

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, SchedulerConfig, ScoreJob, ScoreReadout, ServeError,
};
use astro_telemetry::fault::{self, FaultPlan, Faults};
use std::sync::Arc;

mod common;

fn setup(seed: u64) -> (ModelConfig, Params) {
    let cfg = ModelConfig::tiny(24);
    let params = Params::init(cfg, &mut Rng::seed_from(seed));
    (cfg, params)
}

/// Synthetic score jobs with a shared preamble so the prefix cache is
/// actually exercised (and contended) across threads.
fn score_jobs(rng: &mut Rng, n: usize, vocab: usize) -> Vec<ScoreJob> {
    let groups: Vec<Vec<Vec<u32>>> = vec![
        vec![vec![1, 2], vec![3]],
        vec![vec![4]],
        vec![vec![5, 6]],
        vec![vec![7]],
    ];
    (0..n)
        .map(|i| {
            let mut prompt = vec![9u32, 8, 7, (i % 3) as u32];
            for _ in 0..(2 + rng.next_u64() % 4) {
                prompt.push((rng.next_u64() % vocab as u64) as u32);
            }
            ScoreJob {
                prompt,
                group: Some((i % 3) as u64),
                readout: ScoreReadout::ContinuationGroups(groups.clone()),
                trace: None,
            }
        })
        .collect()
}

/// Synthetic generate jobs; per-job deterministic RNG seeds.
fn generate_jobs(rng: &mut Rng, n: usize, vocab: usize) -> Vec<GenerateJob> {
    (0..n)
        .map(|i| {
            let mut prompt = vec![9u32, 8, 7, (i % 3) as u32];
            for _ in 0..(1 + rng.next_u64() % 4) {
                prompt.push((rng.next_u64() % vocab as u64) as u32);
            }
            GenerateJob {
                prompt,
                group: Some((i % 3) as u64),
                max_new: 5,
                sampler: SamplerConfig::greedy(),
                rng: Rng::seed_from(1000 + i as u64),
                stop: vec![0],
                trace: None,
            }
        })
        .collect()
}

/// Reference results: every job alone in fresh sessions — the strongest
/// possible isolation between jobs, and no engine code at all.
fn reference_scores(params: &Params, jobs: &[ScoreJob]) -> Vec<Vec<f32>> {
    jobs.iter().map(|j| common::score(params, j)).collect()
}

fn reference_generations(params: &Params, jobs: &[GenerateJob]) -> Vec<Vec<u32>> {
    jobs.iter().map(|j| common::generate(params, j)).collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Run `threads` workers against one shared engine. Each worker
/// interleaves score and generate calls over its own job slice, in
/// small batches, and asserts bitwise parity against the references.
#[allow(clippy::too_many_arguments)]
fn hammer(
    params: &Params,
    engine_cfg: EngineConfig,
    threads: usize,
    score: &[ScoreJob],
    score_ref: &[Vec<f32>],
    generate: &[GenerateJob],
    gen_ref: &[Vec<u32>],
    label: &str,
) {
    let engine = Arc::new(EvalEngine::new(engine_cfg, params));
    let per_s = score.len() / threads;
    let per_g = generate.len() / threads;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = Arc::clone(&engine);
            let s_jobs = &score[t * per_s..(t + 1) * per_s];
            let s_refs = &score_ref[t * per_s..(t + 1) * per_s];
            let g_jobs = &generate[t * per_g..(t + 1) * per_g];
            let g_refs = &gen_ref[t * per_g..(t + 1) * per_g];
            scope.spawn(fault::inherit(move || {
                // Interleave: score pair, generate pair, repeat — so both
                // kinds of work contend for the same prefix cache at once.
                let mut si = 0;
                let mut gi = 0;
                while si < s_jobs.len() || gi < g_jobs.len() {
                    if si < s_jobs.len() {
                        let hi = (si + 2).min(s_jobs.len());
                        let got = engine.score_batch(s_jobs[si..hi].to_vec());
                        for (k, r) in got.into_iter().enumerate() {
                            let scores = r.expect("score job errored");
                            assert_eq!(
                                bits(&scores),
                                bits(&s_refs[si + k]),
                                "{label}: thread {t} score job {} diverged",
                                si + k
                            );
                        }
                        si = hi;
                    }
                    if gi < g_jobs.len() {
                        let hi = (gi + 2).min(g_jobs.len());
                        let got = engine.generate_batch(g_jobs[gi..hi].to_vec());
                        for (k, r) in got.into_iter().enumerate() {
                            let tokens = r.expect("generate job errored");
                            assert_eq!(
                                tokens,
                                g_refs[gi + k],
                                "{label}: thread {t} generate job {} diverged",
                                gi + k
                            );
                        }
                        gi = hi;
                    }
                }
            }));
        }
    });
}

#[test]
fn four_threads_interleaved_match_serial_bitwise() {
    let (cfg, params) = setup(31);
    let mut rng = Rng::seed_from(32);
    let score = score_jobs(&mut rng, 16, cfg.vocab_size);
    let generate = generate_jobs(&mut rng, 16, cfg.vocab_size);
    let score_ref = reference_scores(&params, &score);
    let gen_ref = reference_generations(&params, &generate);
    for engine_cfg in [
        EngineConfig {
            parallelism: 1,
            prefix_cache: true,
            max_cache_bytes: 0,
        },
        EngineConfig::pooled_with(2),
        EngineConfig::pooled_with(4),
    ] {
        hammer(
            &params,
            engine_cfg,
            4,
            &score,
            &score_ref,
            &generate,
            &gen_ref,
            &format!("{engine_cfg:?}"),
        );
    }
}

#[test]
fn concurrency_parity_survives_cache_full_injection() {
    let (cfg, params) = setup(33);
    let mut rng = Rng::seed_from(34);
    let score = score_jobs(&mut rng, 12, cfg.vocab_size);
    let generate = generate_jobs(&mut rng, 12, cfg.vocab_size);
    let score_ref = reference_scores(&params, &score);
    let gen_ref = reference_generations(&params, &generate);
    // Arm the fault at several hit counts so the retry path fires at
    // different points in the interleaving; results must never change.
    let faults = Faults::default().enter();
    for hit in [1u64, 3, 9] {
        faults.install(FaultPlan::single("serve.cache_full", hit));
        hammer(
            &params,
            EngineConfig::pooled_with(4),
            4,
            &score,
            &score_ref,
            &generate,
            &gen_ref,
            &format!("cache_full hit {hit}"),
        );
        assert!(
            faults.fired("serve.cache_full"),
            "hit {hit}: plan never fired — injection not exercised"
        );
        faults.clear();
    }
}

/// An injected worker panic costs exactly the job it hit: that job
/// reports `WorkerPanic`, the shard carries on claiming, and every other
/// job still matches the oracle.
#[test]
fn injected_worker_panic_fails_one_job_and_spares_the_rest() {
    let (cfg, params) = setup(39);
    let mut rng = Rng::seed_from(40);
    let jobs = score_jobs(&mut rng, 6, cfg.vocab_size);
    let want = reference_scores(&params, &jobs);
    let faults = Faults::default().enter();
    for hit in [1u64, 4] {
        faults.install(FaultPlan::single("pool.worker_panic", hit));
        let engine = EvalEngine::new(EngineConfig::pooled_with(2), &params);
        let got = engine.score_batch(jobs.clone());
        assert!(faults.fired("pool.worker_panic"), "hit {hit}: plan never fired");
        faults.clear();
        let panicked: Vec<usize> =
            (0..got.len()).filter(|&i| got[i] == Err(ServeError::WorkerPanic)).collect();
        assert_eq!(panicked.len(), 1, "hit {hit}: {got:?}");
        for (i, r) in got.iter().enumerate() {
            if i != panicked[0] {
                let scores = r.as_ref().unwrap_or_else(|e| panic!("hit {hit}: job {i}: {e}"));
                assert_eq!(bits(scores), bits(&want[i]), "hit {hit}: job {i} diverged");
            }
        }
    }
}

/// More shards configured than jobs: however the claims fall, every job
/// is run (one cache lookup each) and reported exactly once.
#[test]
fn more_shards_than_jobs_claim_each_job_exactly_once() {
    let (cfg, params) = setup(41);
    let mut rng = Rng::seed_from(42);
    let jobs = score_jobs(&mut rng, 3, cfg.vocab_size);
    let want = reference_scores(&params, &jobs);
    let engine = EvalEngine::new(EngineConfig::pooled_with(8), &params);
    let got = engine.score_batch(jobs);
    assert_eq!(got.len(), want.len());
    for (i, r) in got.iter().enumerate() {
        assert_eq!(bits(r.as_ref().expect("score job errored")), bits(&want[i]), "job {i}");
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, 3, "one lookup per job: {stats:?}");
}

/// Lifecycle edge, offline batch on 1 and 2 shards: when a batch's common
/// prefix is the *entire* prompt (duplicate requests), every job forks the
/// cache at full depth and its prefill loop never runs — the readout /
/// decoder installation must still happen. (`scheduler_differential.rs`
/// holds the standalone-scheduler twin.)
#[test]
fn full_depth_cache_fork_still_reads_out_and_decodes_on_every_shard_count() {
    let (cfg, params) = setup(35);
    let mut rng = Rng::seed_from(36);
    let score = score_jobs(&mut rng, 1, cfg.vocab_size).remove(0);
    let generate = generate_jobs(&mut rng, 1, cfg.vocab_size).remove(0);
    let score_ref = bits(&common::score(&params, &score));
    let gen_ref = common::generate(&params, &generate);
    for shards in [1, 2] {
        let engine = EvalEngine::new(EngineConfig::pooled_with(shards), &params);
        for r in engine.score_batch(vec![score.clone(); 3]) {
            assert_eq!(bits(&r.expect("score job errored")), score_ref, "{shards} shards");
        }
        for r in engine.generate_batch(vec![generate.clone(); 3]) {
            assert_eq!(r.expect("generate job errored"), gen_ref, "{shards} shards");
        }
        // Every job forked its whole prompt: nothing was left to encode.
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (6, 0), "{shards} shards");
        assert_eq!(
            stats.tokens_reused as usize,
            3 * (score.prompt.len() + generate.prompt.len()),
            "{shards} shards"
        );
    }
}

/// Regression: `prime_anchors` pinned every batch's common prefix and
/// nothing ever unpinned it, so a long-lived engine (the gateway's window
/// path: one `score_batch` per coalesced batch, each with its own common
/// prefix) grew resident snapshots without bound — and once they filled
/// the iteration ledger, every job was refused with `CacheFull`.
#[test]
fn batch_anchor_pins_are_released_when_the_batch_returns() {
    let (cfg, params) = setup(37);
    let capacity = 4;
    let engine = EvalEngine::new(
        EngineConfig {
            max_cache_bytes: capacity * cfg.session_bytes(),
            ..EngineConfig::pooled_with(2)
        },
        &params,
    );
    let batch = |stem: u32| -> Vec<ScoreJob> {
        (0..2)
            .map(|tail| ScoreJob {
                prompt: vec![stem, 5, 6, tail],
                group: None,
                readout: ScoreReadout::LogitGroups(vec![vec![1], vec![2]]),
                trace: None,
            })
            .collect()
    };
    // 3x the cache's capacity in batches with pairwise-distinct prefixes.
    for stem in 1..=(3 * capacity as u32) {
        let jobs = batch(stem);
        for (r, j) in engine.score_batch(jobs.clone()).into_iter().zip(&jobs) {
            assert_eq!(bits(&r.expect("score job errored")), bits(&common::score(&params, j)));
        }
        let resident = engine.cache_stats().resident_sessions as usize;
        assert!(resident <= capacity, "after batch {stem}: {resident} resident > {capacity}");
    }
    // The iteration scheduler shares the cache and charges its residency
    // to the KV ledger: leaked pins would leave no room to admit anything.
    let mut sched = engine.iter_scheduler(SchedulerConfig::default());
    let jobs = batch(20);
    for j in &jobs {
        sched.submit_score(j.clone()).expect("submit");
    }
    let results = sched.run_to_completion();
    assert_eq!(results.len(), jobs.len());
    for (id, r) in results {
        assert!(r.is_ok(), "job {id} was not admitted: {r:?}");
    }
}
