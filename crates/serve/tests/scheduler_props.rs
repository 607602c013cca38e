//! Property tests for the iteration scheduler's operational guarantees,
//! complementing the bitwise differential suite
//! (`scheduler_differential.rs`):
//!
//! * **KV-ledger invariants** — blocks never leak, `active + cached`
//!   never exceeds the budget at any step, and eviction only ever
//!   reclaims unpinned cache snapshots (a running sequence is never
//!   touched: its session is owned, not resident in the cache).
//! * **Starvation bound** — under adversarial long-decode load, FIFO
//!   admission bounds every job's wait: position `k` is admitted within
//!   `ceil((k + 1) / m) * L + 1` steps (`m` slots, `L` the longest
//!   possible sequence lifetime in steps).
//! * **Deterministic replay** — identical submissions produce identical
//!   per-step batch compositions ([`astro_serve::SchedLog`] equality).
//! * **Bounded backlog** — `admit_capacity` waiting submissions, and the
//!   next one is refused without consuming a sequence id.

use astro_model::{ModelConfig, Params, SamplerConfig};
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, IterScheduler, SchedLog, SchedulerConfig, ScoreJob,
    ScoreReadout, SubmitError,
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

/// Step the scheduler to completion, asserting the ledger's invariants
/// after every step; returns the number of steps taken.
fn drain_checked(sched: &mut IterScheduler, label: &str) -> usize {
    let budget = sched.ledger().budget_blocks();
    let mut steps = 0;
    while !sched.is_idle() {
        let _ = sched.step();
        steps += 1;
        sched.refresh_cached_blocks();
        sched.ledger().check().unwrap_or_else(|e| panic!("{label}: step {steps}: {e}"));
        assert!(
            sched.ledger().in_use() <= budget,
            "{label}: step {steps}: in_use {} > budget {budget}",
            sched.ledger().in_use()
        );
        assert!(steps < 10_000, "{label}: no forward progress");
    }
    steps
}

#[test]
fn ledger_never_leaks_and_respects_the_budget_under_pressure() {
    let params = setup();
    let bps = params.cfg.max_seq.div_ceil(8); // blocks per worst-case seq
    // Room for two worst-case sequences plus two cached snapshots —
    // tighter than the 4 slots, so admission is budget-limited.
    let cfg = SchedulerConfig {
        max_active: 4,
        prefill_chunk: 2,
        block_tokens: 8,
        budget_blocks: 4 * bps,
        admit_capacity: 64,
        record_log: true,
    };
    let engine = EvalEngine::new(
        EngineConfig {
            parallelism: 1,
            prefix_cache: true,
            max_cache_bytes: 3 * params.cfg.session_bytes(),
        },
        &params,
    );
    let mut sched = engine.iter_scheduler(cfg);
    // Grouped prompts with a shared stem so mid-prefill anchor snapshots
    // make the cache genuinely occupy ledger blocks.
    let mut anchors = HashMap::new();
    anchors.insert(1u64, vec![9, 8, 7, 6]);
    anchors.insert(2u64, vec![9, 8, 5, 4]);
    sched.set_anchors(anchors);
    let mut ids = Vec::new();
    for i in 0..10u32 {
        let (group, stem): (u64, &[u32]) =
            if i % 2 == 0 { (1, &[9, 8, 7, 6]) } else { (2, &[9, 8, 5, 4]) };
        let mut prompt = stem.to_vec();
        prompt.extend([i, i + 1, i + 2]);
        ids.push(sched.submit_score(score_job(prompt, Some(group))).expect("submit"));
    }
    for i in 0..3u64 {
        ids.push(
            sched
                .submit_generate(generate_job(vec![9, 8, (i as u32) + 1], 12, i))
                .expect("submit"),
        );
    }
    let mut results = Vec::new();
    let budget = sched.ledger().budget_blocks();
    let mut budget_limited = false;
    while !sched.is_idle() {
        results.extend(sched.step());
        sched.refresh_cached_blocks();
        sched.ledger().check().unwrap_or_else(|e| panic!("ledger: {e}"));
        assert!(sched.ledger().in_use() <= budget);
        // Slots free but backlog waiting => the *budget* is the limiter.
        if sched.active_len() < 4 && sched.backlog() > 0 {
            budget_limited = true;
        }
        assert!(results.len() <= ids.len());
    }
    assert_eq!(results.len(), ids.len(), "every submission must retire exactly once");
    for (id, r) in &results {
        assert!(r.is_ok(), "job {id} failed: {r:?}");
    }
    assert_eq!(sched.ledger().active_blocks(), 0, "ledger leaked active blocks");
    assert_eq!(sched.ledger().active_sequences(), 0);
    assert!(budget_limited, "budget never constrained admission — test is vacuous");
    // Anchor snapshots were inserted (cache occupied) and the unified
    // accounting saw them.
    let stats = engine.cache_stats();
    assert!(stats.resident_sessions > 0, "{stats:?}");
}

#[test]
fn eviction_reclaims_unpinned_snapshots_but_never_running_sequences() {
    let params = setup();
    let bps = params.cfg.max_seq.div_ceil(8);
    let engine = EvalEngine::new(
        EngineConfig {
            parallelism: 1,
            prefix_cache: true,
            max_cache_bytes: 3 * params.cfg.session_bytes(),
        },
        &params,
    );
    // Phase 1: leave unpinned anchor snapshots resident.
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 4,
        block_tokens: 8,
        budget_blocks: 5 * bps,
        admit_capacity: 16,
        record_log: false,
    };
    let mut sched = engine.iter_scheduler(cfg);
    let mut anchors = HashMap::new();
    anchors.insert(1u64, vec![9, 8, 7, 6]);
    sched.set_anchors(anchors);
    for i in 0..4u32 {
        sched
            .submit_score(score_job(vec![9, 8, 7, 6, i + 1], Some(1)))
            .expect("submit");
    }
    drain_checked(&mut sched, "phase 1");
    let resident_before = engine.cache_stats().resident_sessions;
    assert!(resident_before > 0, "phase 1 left nothing resident");

    // Phase 2: each generate below reserves 2 blocks (prompt 4 + 8 new,
    // 8-token blocks) while every resident snapshot is charged the full
    // `bps`. A budget of `bps + 1` cannot hold even one reservation next
    // to one snapshot, so admission must evict.
    let tight = SchedulerConfig {
        budget_blocks: bps + 1,
        ..cfg
    };
    let mut sched = engine.iter_scheduler(tight);
    let evictions_before = engine.cache_stats().evictions;
    for i in 0..4u64 {
        sched
            .submit_generate(generate_job(vec![3, 1, 4, (i as u32) + 1], 8, i))
            .expect("submit");
    }
    let mut results = Vec::new();
    while !sched.is_idle() {
        results.extend(sched.step());
        sched.refresh_cached_blocks();
        sched.ledger().check().unwrap_or_else(|e| panic!("phase 2 ledger: {e}"));
    }
    // Every running sequence completed despite the evictions — eviction
    // only ever touched cache snapshots.
    assert_eq!(results.len(), 4);
    for (id, r) in &results {
        assert!(r.is_ok(), "job {id} failed: {r:?}");
    }
    let stats = engine.cache_stats();
    assert!(
        stats.evictions > evictions_before,
        "tight budget never evicted: {stats:?}"
    );
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
        block_tokens: 16,
        budget_blocks: 0, // ample: admission limited by slots only
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
            block_tokens: 8,
            budget_blocks: 0,
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
fn unadmittable_job_is_rejected_not_spun_on() {
    let params = setup();
    // A budget of one block can never hold any sequence's worst case
    // (block_tokens 8 < any prompt+decode footprint needs >= 1 block but
    // prompt of 12 tokens needs 2): the scheduler must fail the job
    // instead of live-locking.
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 4,
        block_tokens: 8,
        budget_blocks: 1,
        admit_capacity: 8,
        record_log: true,
    };
    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(cfg);
    let id = sched
        .submit_score(score_job(vec![1; 12], None))
        .expect("submit");
    let mut out = Vec::new();
    let mut steps = 0;
    while !sched.is_idle() {
        out.extend(sched.step());
        steps += 1;
        assert!(steps < 100, "live-lock on unadmittable job");
    }
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, id);
    assert!(out[0].1.is_err(), "impossible reservation must surface as an error");
    assert_eq!(sched.ledger().active_blocks(), 0);
}

#[test]
fn submission_at_capacity_is_refused_until_a_step_admits() {
    let params = setup();
    let cfg = SchedulerConfig {
        max_active: 2,
        prefill_chunk: 4,
        block_tokens: 8,
        budget_blocks: 0,
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
