//! Differential proof of the iteration scheduler's determinism contract:
//! **any** interleaving of score and generate jobs through
//! [`astro_serve::IterScheduler`] is bitwise-identical to running each
//! job alone in fresh sessions (the `common` oracle — no engine code).
//!
//! 100+ seeded mixed workloads vary every axis that changes the
//! schedule — job mix, prompt sharing/groups, batch slots, prefill chunk,
//! block budget, cache byte budget — and compare every score
//! (`f32::to_bits`) and every generated token against the per-job
//! reference. On a mismatch the recorded [`astro_serve::SchedLog`] is
//! dumped to `counterexamples/scheduler_replay.jsonl` so the exact
//! admission schedule can be replayed.

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, IterScheduler, SchedulerConfig, ScoreJob, ScoreReadout,
    SeqOutcome, ServeError,
};
use std::collections::HashMap;

mod common;
use common::{generate as reference_generate, score_bits as reference_score};

const SEEDS: u64 = 100;

/// One randomly generated mixed workload.
struct Workload {
    scores: Vec<ScoreJob>,
    generates: Vec<GenerateJob>,
    sched: SchedulerConfig,
    cache_bytes: usize,
}

fn prompt_for(rng: &mut Rng, vocab: usize, preamble: &[u32], max_seq: usize) -> Vec<u32> {
    let mut p = preamble.to_vec();
    let extra = 1 + rng.index(max_seq.saturating_sub(preamble.len() + 8).max(2));
    for _ in 0..extra {
        p.push(rng.index(vocab) as u32);
    }
    p
}

fn build_workload(seed: u64, cfg: ModelConfig) -> Workload {
    let mut rng = Rng::seed_from(seed).substream("sched-diff");
    let vocab = cfg.vocab_size;
    // A batch-wide shared preamble (sometimes empty) plus per-group stems.
    let preamble: Vec<u32> = if rng.chance(0.8) {
        (0..(1 + rng.index(6))).map(|_| rng.index(vocab) as u32).collect()
    } else {
        Vec::new()
    };
    let n_groups = 1 + rng.index(3) as u64;
    let mut stems: HashMap<u64, Vec<u32>> = HashMap::new();
    for g in 0..n_groups {
        let mut stem = preamble.clone();
        for _ in 0..(1 + rng.index(4)) {
            stem.push(rng.index(vocab) as u32);
        }
        stems.insert(g, stem);
    }
    let n_score = 2 + rng.index(8);
    let n_gen = 1 + rng.index(4);
    let mut scores = Vec::new();
    for _ in 0..n_score {
        let group = rng.chance(0.7).then(|| rng.below(n_groups));
        let base = group.map(|g| stems[&g].clone()).unwrap_or_else(|| preamble.clone());
        let prompt = prompt_for(&mut rng, vocab, &base, cfg.max_seq);
        let readout = if rng.chance(0.5) {
            ScoreReadout::LogitGroups(
                (0..4).map(|_| vec![rng.index(vocab) as u32]).collect(),
            )
        } else {
            ScoreReadout::ContinuationGroups(
                (0..4)
                    .map(|_| {
                        (0..(1 + rng.index(2)))
                            .map(|_| {
                                (0..(1 + rng.index(3)))
                                    .map(|_| rng.index(vocab) as u32)
                                    .collect()
                            })
                            .collect()
                    })
                    .collect(),
            )
        };
        scores.push(ScoreJob { prompt, group, readout, trace: None });
    }
    let mut generates = Vec::new();
    for i in 0..n_gen {
        let group = rng.chance(0.5).then(|| rng.below(n_groups));
        let base = group.map(|g| stems[&g].clone()).unwrap_or_else(|| preamble.clone());
        let prompt = prompt_for(&mut rng, vocab, &base, cfg.max_seq);
        let sampler = if rng.chance(0.5) {
            SamplerConfig::greedy()
        } else {
            SamplerConfig { temperature: 0.7 + 0.1 * rng.index(8) as f32, top_k: rng.index(5) }
        };
        generates.push(GenerateJob {
            prompt,
            group,
            max_new: 1 + rng.index(10),
            sampler,
            rng: Rng::seed_from(seed).substream_idx("sched-diff-gen", i as u64),
            stop: if rng.chance(0.5) { vec![0] } else { vec![] },
            trace: None,
        });
    }
    let sched = SchedulerConfig {
        max_active: 1 + rng.index(4),
        prefill_chunk: 1 + rng.index(4),
        block_tokens: 1 + rng.index(16),
        budget_blocks: 0,
        admit_capacity: 64,
        record_log: true,
    };
    // Occasionally squeeze the cache byte budget so LRU eviction and the
    // uncached degradation paths get exercised mid-schedule.
    let cache_bytes = if rng.chance(0.3) { cfg.session_bytes() * 2 } else { 0 };
    Workload { scores, generates, sched, cache_bytes }
}

fn dump_replay(sched: &IterScheduler, seed: u64) {
    let Some(log) = sched.sched_log() else { return };
    let _ = std::fs::create_dir_all("counterexamples");
    let path = format!("counterexamples/scheduler_replay_seed{seed}.jsonl");
    let _ = std::fs::write(&path, log.to_jsonl());
    eprintln!("replay schedule written to {path}");
}

#[test]
fn hundred_seeded_interleavings_match_serial_bitwise() {
    let cfg = ModelConfig::tiny(24);
    let params = Params::init(cfg, &mut Rng::seed_from(7));
    for seed in 0..SEEDS {
        let w = build_workload(seed, cfg);
        let score_refs: Vec<Vec<u32>> =
            w.scores.iter().map(|j| reference_score(&params, j)).collect();
        let gen_refs: Vec<Vec<u32>> =
            w.generates.iter().map(|j| reference_generate(&params, j)).collect();

        let engine = EvalEngine::new(
            EngineConfig {
                parallelism: 1,
                prefix_cache: true,
                max_cache_bytes: w.cache_bytes,
            },
            &params,
        );
        let mut sched = engine.iter_scheduler(w.sched);
        // Submit in a seed-dependent interleaved order.
        let mut order: Vec<(bool, usize)> = (0..w.scores.len())
            .map(|i| (true, i))
            .chain((0..w.generates.len()).map(|i| (false, i)))
            .collect();
        let mut rng = Rng::seed_from(seed).substream("sched-diff-order");
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let mut id_map: HashMap<usize, (bool, usize)> = HashMap::new();
        let mut results: HashMap<usize, Result<SeqOutcome, ServeError>> = HashMap::new();
        for (k, &(is_score, i)) in order.iter().enumerate() {
            let id = if is_score {
                sched.submit_score(w.scores[i].clone()).expect("submit")
            } else {
                sched.submit_generate(w.generates[i].clone()).expect("submit")
            };
            id_map.insert(id, (is_score, i));
            // Interleave stepping with submission on some seeds so
            // admission happens both en-masse and incrementally.
            if k % 3 == 2 && seed % 2 == 0 {
                for (rid, r) in sched.step() {
                    results.insert(rid, r);
                }
            }
        }
        for (rid, r) in sched.run_to_completion() {
            results.insert(rid, r);
        }

        assert_eq!(
            results.len(),
            order.len(),
            "seed {seed}: {} results for {} jobs",
            results.len(),
            order.len()
        );
        for (id, (is_score, i)) in &id_map {
            let r = results.get(id).expect("missing result");
            let ok = match (r, *is_score) {
                (Ok(SeqOutcome::Scores(s)), true) => {
                    let bits: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
                    bits == score_refs[*i]
                }
                (Ok(SeqOutcome::Tokens(t)), false) => *t == gen_refs[*i],
                _ => false,
            };
            if !ok {
                dump_replay(&sched, seed);
                panic!(
                    "seed {seed}: job {i} (score={is_score}) diverged from the serial \
                     reference: {r:?}"
                );
            }
        }
        // No schedule may leak ledger blocks.
        assert_eq!(
            sched.ledger().active_blocks(),
            0,
            "seed {seed}: ledger leaked blocks after drain"
        );
    }
}

#[test]
fn full_depth_cache_fork_still_emits_readout_and_decoder() {
    // When the group anchor is the *entire* prompt (identical prompts,
    // as the gateway's duplicate requests produce), a follower forks the
    // cache at full depth and its prefill loop never runs. The readout /
    // decoder installation must still happen — this was a real bug: the
    // follower fell through to decode with no decoder and retired as
    // `WorkerPanic`.
    let cfg = ModelConfig::tiny(24);
    let params = Params::init(cfg, &mut Rng::seed_from(7));
    let w = build_workload(3, cfg);
    let score = ScoreJob { group: Some(0), ..w.scores[0].clone() };
    let generate = GenerateJob { group: Some(1), ..w.generates[0].clone() };
    let score_ref = reference_score(&params, &score);
    let gen_ref = reference_generate(&params, &generate);

    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(SchedulerConfig::default());
    let mut anchors = HashMap::new();
    anchors.insert(0u64, score.prompt.clone());
    anchors.insert(1u64, generate.prompt.clone());
    sched.set_anchors(anchors);

    // Leaders populate the cache with snapshots at full prompt depth.
    let lead_s = sched.submit_score(score.clone()).expect("submit");
    let lead_g = sched.submit_generate(generate.clone()).expect("submit");
    let first: HashMap<usize, _> = sched.run_to_completion().into_iter().collect();
    assert_eq!(first.len(), 2);

    // Followers with identical prompts must fork at full depth and still
    // retire with bitwise-identical results, not WorkerPanic.
    let foll_s = sched.submit_score(score).expect("submit");
    let foll_g = sched.submit_generate(generate).expect("submit");
    let second: HashMap<usize, _> = sched.run_to_completion().into_iter().collect();
    for (label, id, map) in
        [("leader", lead_s, &first), ("follower", foll_s, &second)]
    {
        match map.get(&id) {
            Some(Ok(SeqOutcome::Scores(s))) => {
                let bits: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, score_ref, "{label} score diverged");
            }
            other => panic!("{label} score did not retire with scores: {other:?}"),
        }
    }
    for (label, id, map) in
        [("leader", lead_g, &first), ("follower", foll_g, &second)]
    {
        match map.get(&id) {
            Some(Ok(SeqOutcome::Tokens(t))) => {
                assert_eq!(*t, gen_ref, "{label} generate diverged");
            }
            other => panic!("{label} generate did not retire with tokens: {other:?}"),
        }
    }
    assert_eq!(sched.ledger().active_blocks(), 0, "ledger leaked blocks");
}

#[test]
fn one_shard_matches_two_shards_bitwise() {
    // A batch on one scheduler shard (`EngineConfig::iteration()`) must
    // agree with the same jobs on two shards over the shared trie: one
    // driver of the one job lifecycle, however the claims fall (each is
    // checked against the oracle elsewhere).
    let cfg = ModelConfig::tiny(24);
    let params = Params::init(cfg, &mut Rng::seed_from(9));
    for seed in 0..10 {
        let w = build_workload(seed, cfg);
        let sharded = EvalEngine::new(EngineConfig::pooled_with(2), &params);
        let single = EvalEngine::new(EngineConfig::iteration(), &params);
        let a = sharded.score_batch(w.scores.clone());
        let b = single.score_batch(w.scores.clone());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            let xb: Option<Vec<u32>> =
                x.as_ref().ok().map(|v| v.iter().map(|f| f.to_bits()).collect());
            let yb: Option<Vec<u32>> =
                y.as_ref().ok().map(|v| v.iter().map(|f| f.to_bits()).collect());
            assert_eq!(xb, yb, "seed {seed} score job {i}");
            assert_eq!(xb, Some(reference_score(&params, &w.scores[i])), "seed {seed} score job {i}");
        }
        let a = sharded.generate_batch(w.generates.clone());
        let b = single.generate_batch(w.generates.clone());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.as_ref().ok(), y.as_ref().ok(), "seed {seed} generate job {i}");
            let want = reference_generate(&params, &w.generates[i]);
            assert_eq!(x.as_ref().ok(), Some(&want), "seed {seed} generate job {i}");
        }
    }
}

#[test]
fn group_anchor_is_snapshotted_at_its_exact_length_for_any_chunk() {
    // Prefill runs in `prefill_chunk`-token stretches of 16-row blocks. An
    // anchor of 19 tokens is a multiple of neither, so the stretch that
    // reaches it must be cut there: a snapshot is only ever taken at
    // `fed == anchor.len()`. Every later hit then reuses exactly 19
    // tokens, sharded and standalone, and every result equals the oracle.
    const ANCHOR: usize = 19;
    let cfg = ModelConfig::tier(astro_model::Tier::S7b, 24);
    let params = Params::init(cfg, &mut Rng::seed_from(19));
    let mut rng = Rng::seed_from(0xa2c);
    let mut tokens = |n: usize| -> Vec<u32> { (0..n).map(|_| rng.index(23) as u32).collect() };
    // Two groups whose anchors differ in their first token, so the batch
    // has no common prefix and the anchors are snapshotted mid-feed.
    let mut anchors: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut scores = Vec::new();
    let mut generates = Vec::new();
    for g in 0..2u64 {
        let mut anchor = tokens(ANCHOR);
        anchor[0] = 23 - g as u32;
        for i in 0..4u32 {
            // Tails differ in their first token: the group's common
            // prefix is the anchor and nothing more.
            let mut prompt = anchor.clone();
            prompt.push(i);
            prompt.extend(tokens(2 + i as usize * 5));
            if i < 3 {
                let readout = ScoreReadout::ContinuationGroups(
                    (0..4).map(|_| vec![tokens(3), tokens(1)]).collect(),
                );
                scores.push(ScoreJob { prompt, group: Some(g), readout, trace: None });
            } else {
                generates.push(GenerateJob {
                    prompt,
                    group: Some(g),
                    max_new: 6,
                    sampler: SamplerConfig::greedy(),
                    rng: Rng::seed_from(g),
                    stop: vec![],
                    trace: None,
                });
            }
        }
        anchors.insert(g, anchor);
    }
    let score_refs: Vec<Vec<u32>> = scores.iter().map(|j| reference_score(&params, j)).collect();
    let gen_refs: Vec<Vec<u32>> = generates.iter().map(|j| reference_generate(&params, j)).collect();
    let check_cache = |engine: &EvalEngine, what: &str| {
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_sessions, 2, "{what}: one snapshot per anchor");
        assert!(stats.hits >= 1, "{what}: later jobs of a group fork its anchor");
        assert_eq!(stats.tokens_reused, stats.hits * ANCHOR as u64, "{what}: every hit is {ANCHOR} deep");
    };

    // 2 shards of an offline batch, at the engine's own chunk.
    let engine = EvalEngine::new(EngineConfig::pooled_with(2), &params);
    for (i, got) in engine.score_batch(scores.clone()).iter().enumerate() {
        let bits = got.as_ref().ok().map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
        assert_eq!(bits.as_ref(), Some(&score_refs[i]), "2 shards: score job {i}");
    }
    check_cache(&engine, "2 shards");

    // A standalone scheduler, at chunks below, between and above the
    // row block.
    for prefill_chunk in [1, 7, 32] {
        let engine = EvalEngine::new(EngineConfig::iteration(), &params);
        let mut sched = engine.iter_scheduler(SchedulerConfig {
            max_active: 2,
            prefill_chunk,
            ..SchedulerConfig::default()
        });
        sched.set_anchors(anchors.clone());
        let mut want: HashMap<usize, Vec<u32>> = HashMap::new();
        for (job, bits) in scores.iter().zip(&score_refs) {
            want.insert(sched.submit_score(job.clone()).expect("submit"), bits.clone());
        }
        for (job, toks) in generates.iter().zip(&gen_refs) {
            want.insert(sched.submit_generate(job.clone()).expect("submit"), toks.clone());
        }
        for (id, result) in sched.run_to_completion() {
            let got = match result.expect("job") {
                SeqOutcome::Scores(v) => v.iter().map(|f| f.to_bits()).collect(),
                SeqOutcome::Tokens(t) => t,
            };
            assert_eq!(Some(&got), want.get(&id), "chunk {prefill_chunk} job {id}");
        }
        check_cache(&engine, &format!("iteration, chunk {prefill_chunk}"));
    }
}
