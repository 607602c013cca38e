//! Property tests for the iteration scheduler's operational guarantees,
//! complementing the bitwise differential suite
//! (`scheduler_differential.rs`):
//!
//! * **Memory bound** — while more prompt groups thrash than the prefix
//!   cache holds, resident snapshots never exceed the cache's
//!   `capacity_sessions()` at any step, eviction happens, and every job
//!   still retires with the oracle's result (eviction never touches a
//!   running sequence: its session is owned, not resident in the cache).
//! * **Starvation bound** — under adversarial long-decode load, FIFO
//!   admission bounds every job's wait: position `k` is admitted within
//!   `ceil((k + 1) / m) * L + 1` steps (`m` slots, `L` the longest
//!   possible sequence lifetime in steps).
//! * **Deterministic replay** — identical submissions produce identical
//!   per-step batch compositions ([`astro_serve::SchedLog`] equality).
//! * **Bounded backlog** — `admit_capacity` waiting submissions, and the
//!   next one is refused without consuming a sequence id.

mod common;

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, IterScheduler, PrefixCache, SchedLog,
    SchedulerConfig, ScoreJob, ScoreReadout, SeqOutcome, SubmitError,
};
use std::collections::HashMap;

fn setup() -> Params {
    Params::init(ModelConfig::tiny(24), &mut Rng::seed_from(3))
}

fn score_job(prompt: Vec<u32>, group: Option<u64>) -> ScoreJob {
    ScoreJob {
        prompt,
        group,
        readout: ScoreReadout::LogitGroups(vec![vec![1], vec![2]]),
        trace: None,
    }
}

fn generate_job(prompt: Vec<u32>, max_new: usize, seed: u64) -> GenerateJob {
    GenerateJob {
        prompt,
        group: None,
        max_new,
        sampler: SamplerConfig::greedy(),
        rng: Rng::seed_from(seed),
        stop: vec![],
        trace: None,
    }
}

/// Step the scheduler to completion, asserting after every step that it
/// holds no more sessions than its bounds allow; returns the number of
/// steps taken.
fn drain_checked(sched: &mut IterScheduler, label: &str) -> usize {
    let mut steps = 0;
    while !sched.is_idle() {
        let _ = sched.step();
        steps += 1;
        let held = sched.ledger();
        assert!(
            held.in_use() <= held.budget_blocks(),
            "{label}: step {steps}: {} sessions held, bound {}",
            held.in_use(),
            held.budget_blocks()
        );
        assert!(steps < 10_000, "{label}: no forward progress");
    }
    steps
}

/// `gateway_thrash` in miniature: six prompt groups cycle through a cache
/// that holds two snapshots, so nearly every anchor insert evicts. The
/// cache's byte cap is the only bound on cached memory: it holds after
/// every step, eviction happens, and every job — scores and generates —
/// retires `Ok` with exactly the oracle's result.
#[test]
fn the_cache_cap_bounds_snapshots_while_more_groups_thrash_than_it_holds() {
    let params = setup();
    let cache_bytes = 2 * params.cfg.session_bytes();
    let capacity = PrefixCache::new(&params.cfg, cache_bytes).capacity_sessions();
    assert_eq!(capacity, 2);
    let engine = EvalEngine::new(
        EngineConfig { parallelism: 1, prefix_cache: true, max_cache_bytes: cache_bytes },
        &params,
    );
    let cfg = SchedulerConfig {
        max_active: 3,
        prefill_chunk: 2,
        admit_capacity: 64,
        record_log: false,
    };
    let mut sched = engine.iter_scheduler(cfg);
    let groups = 6u32;
    let stem = |g: u32| vec![9, 8, g + 1, (g * 5) % 24, 7];
    sched.set_anchors((0..groups).map(|g| (u64::from(g), stem(g))).collect());
    let mut want: HashMap<usize, Vec<u32>> = HashMap::new();
    for i in 0..24u32 {
        let g = i % groups;
        let mut prompt = stem(g);
        prompt.extend([i % 24, (i * 7) % 24]);
        let (id, bits) = if i % 3 == 2 {
            let job = GenerateJob { group: Some(u64::from(g)), ..generate_job(prompt, 5, i.into()) };
            let tokens = common::generate(&params, &job);
            (sched.submit_generate(job).expect("submit"), tokens)
        } else {
            let job = score_job(prompt, Some(u64::from(g)));
            let bits = common::score_bits(&params, &job);
            (sched.submit_score(job).expect("submit"), bits)
        };
        want.insert(id, bits);
    }
    let mut steps = 0;
    while !sched.is_idle() {
        for (id, r) in sched.step() {
            let got = match r {
                Ok(SeqOutcome::Scores(s)) => s.iter().map(|v| v.to_bits()).collect(),
                Ok(SeqOutcome::Tokens(t)) => t,
                Err(e) => panic!("job {id} failed: {e:?}"),
            };
            let expected = want.remove(&id).unwrap_or_else(|| panic!("job {id} retired twice"));
            assert_eq!(got, expected, "job {id} left the oracle");
        }
        steps += 1;
        let stats = engine.cache_stats();
        assert!(
            stats.resident_sessions as usize <= capacity,
            "step {steps}: {} snapshots resident, cap {capacity}",
            stats.resident_sessions
        );
        let held = sched.ledger();
        assert_eq!(held.in_use(), sched.active_len() + stats.resident_sessions as usize);
        assert_eq!(held.budget_blocks(), cfg.max_active + capacity);
        assert!(steps < 10_000, "no forward progress");
    }
    assert!(want.is_empty(), "jobs never retired: {:?}", want.keys());
    let evictions = engine.cache_stats().evictions;
    assert!(evictions > 0, "six groups through a two-snapshot cache never evicted");
}

#[test]
fn fifo_admission_bounds_wait_under_adversarial_long_decodes() {
    let params = setup();
    let m = 2usize; // slots
    let chunk = 2usize;
    let max_new = 16usize;
    let cfg = SchedulerConfig {
        max_active: m,
        prefill_chunk: chunk,
        admit_capacity: 64,
        record_log: true,
    };
    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(cfg);
    // Adversarial load: long decodes first, cheap scores queued behind.
    let mut max_prompt = 0usize;
    let mut order = Vec::new();
    for i in 0..4u64 {
        let prompt = vec![7, 7, 7, (i as u32) + 1, 2, 3];
        max_prompt = max_prompt.max(prompt.len());
        order.push(sched.submit_generate(generate_job(prompt, max_new, i)).expect("submit"));
    }
    for i in 0..8u32 {
        let prompt = vec![5, 4, i + 1];
        max_prompt = max_prompt.max(prompt.len());
        order.push(sched.submit_score(score_job(prompt, None)).expect("submit"));
    }
    while !sched.is_idle() {
        let _ = sched.step();
    }
    // Longest possible lifetime in steps: chunked prefill + one decode
    // step per token + one step to install the decoder + one to retire.
    let l_max = max_prompt.div_ceil(chunk) + max_new + 2;
    let log = sched.sched_log().expect("log recorded").clone();
    let mut admit_step: HashMap<usize, u64> = HashMap::new();
    for rec in &log.steps {
        for &id in &rec.admitted {
            admit_step.insert(id, rec.step);
        }
    }
    for (k, id) in order.iter().enumerate() {
        let step = *admit_step.get(id).unwrap_or_else(|| panic!("job {id} never admitted"));
        let bound = ((k + 1).div_ceil(m) * l_max + 1) as u64;
        assert!(
            step <= bound,
            "job at queue position {k} admitted at step {step}, bound {bound} \
             (m={m}, L={l_max})"
        );
    }
}

#[test]
fn identical_submissions_replay_identical_schedules() {
    let params = setup();
    let run = |params: &Params| -> (SchedLog, Vec<(usize, String)>) {
        let cfg = SchedulerConfig {
            max_active: 3,
            prefill_chunk: 2,
            admit_capacity: 32,
            record_log: true,
        };
        let engine = EvalEngine::new(EngineConfig::iteration(), params);
        let mut sched = engine.iter_scheduler(cfg);
        for i in 0..6u32 {
            sched
                .submit_score(score_job(vec![9, 8, i + 1, i + 2], None))
                .expect("submit");
        }
        for i in 0..2u64 {
            sched
                .submit_generate(generate_job(vec![9, 8, (i as u32) + 1], 10, i))
                .expect("submit");
        }
        let mut results = Vec::new();
        while !sched.is_idle() {
            for (id, r) in sched.step() {
                results.push((id, format!("{r:?}")));
            }
        }
        results.sort();
        (sched.sched_log().expect("log").clone(), results)
    };
    let (log_a, res_a) = run(&params);
    let (log_b, res_b) = run(&params);
    assert_eq!(log_a, log_b, "per-step batch compositions diverged between identical runs");
    assert_eq!(res_a, res_b, "results diverged between identical runs");
    assert!(!log_a.steps.is_empty());
    // And the JSONL serialization round-trips stably for CI artifacts.
    assert_eq!(log_a.to_jsonl(), log_b.to_jsonl());
}

#[test]
fn submission_at_capacity_is_refused_until_a_step_admits() {
    let params = setup();
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 4,
        admit_capacity: 3,
        record_log: true,
    };
    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(cfg);
    let ids: Vec<usize> = (0..3u32)
        .map(|i| sched.submit_score(score_job(vec![5, 4, i + 1], None)).expect("below capacity"))
        .collect();
    assert_eq!(ids, vec![0, 1, 2]);
    assert_eq!(sched.backlog(), sched.admit_capacity());
    assert_eq!(
        sched.submit_score(score_job(vec![5, 4, 9], None)),
        Err(SubmitError::Backlog)
    );
    assert_eq!(sched.backlog(), 3, "a refused submission must not be queued");

    // One step admits two (max_active), leaving one waiting: room again,
    // and the refusal consumed no id.
    let _ = sched.step();
    assert_eq!(sched.backlog(), 1);
    let id = sched.submit_score(score_job(vec![5, 4, 9], None)).expect("room after a step");
    assert_eq!(id, 3);
    let steps = drain_checked(&mut sched, "after backlog");
    assert!(steps > 0);
    let admitted: Vec<usize> = sched
        .sched_log()
        .expect("record_log is on")
        .steps
        .iter()
        .flat_map(|s| s.admitted.iter().copied())
        .collect();
    assert_eq!(admitted, vec![0, 1, 2, 3], "admission stays FIFO across the refusal");
}
