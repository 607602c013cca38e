//! Head-of-line blocking regression for the iteration scheduler.
//!
//! The scenario that motivated iteration-level scheduling: one
//! maximum-length generation sharing the engine with a pile of cheap
//! score jobs. Under the coalescing engine the scores ride the same
//! batch as the generate and nothing returns until it finishes; under
//! [`astromlab::serve::IterScheduler`] every score must retire while the
//! long decode is still running. The recorded schedule log is the proof:
//! each score's retirement step strictly precedes the generate's.

use astromlab::model::{ModelConfig, Params, SamplerConfig};
use astromlab::prng::Rng;
use astromlab::serve::{
    EngineConfig, EvalEngine, GenerateJob, SchedulerConfig, ScoreJob, ScoreReadout, SeqOutcome,
};
use std::collections::HashMap;

#[test]
fn scores_complete_before_a_max_length_generate() {
    let cfg = ModelConfig::tiny(24);
    let params = Params::init(cfg, &mut Rng::seed_from(17));
    let engine = EvalEngine::new(EngineConfig::iteration(), &params);
    let mut sched = engine.iter_scheduler(SchedulerConfig {
        max_active: 8,
        prefill_chunk: 4,
        admit_capacity: 64,
        record_log: true,
    });

    // One maximum-length generation: short prompt, decode to the context
    // limit with no stop token.
    let long = GenerateJob {
        prompt: vec![9, 8, 7],
        group: None,
        max_new: cfg.max_seq, // capped by the KV cache — the longest possible decode
        sampler: SamplerConfig::greedy(),
        rng: Rng::seed_from(1),
        stop: vec![],
        trace: None,
    };
    let long_id = sched.submit_generate(long).expect("submit generate");

    // 32 cheap score jobs queued *behind* it.
    let mut score_ids = Vec::new();
    for i in 0..32u32 {
        let job = ScoreJob {
            prompt: vec![9, 8, i % 16, (i / 16) + 1],
            group: Some((i % 4) as u64),
            readout: ScoreReadout::LogitGroups(vec![vec![1], vec![2], vec![3], vec![4]]),
            trace: None,
        };
        score_ids.push(sched.submit_score(job).expect("submit score"));
    }

    let mut results = Vec::new();
    while !sched.is_idle() {
        results.extend(sched.step());
    }
    assert_eq!(results.len(), 33);
    for (id, r) in &results {
        match r {
            Ok(SeqOutcome::Scores(s)) => assert_eq!(s.len(), 4, "job {id}"),
            Ok(SeqOutcome::Tokens(t)) => {
                assert_eq!(*id, long_id);
                assert!(!t.is_empty(), "the long generate emitted nothing");
            }
            Err(e) => panic!("job {id} failed: {e}"),
        }
    }

    // The schedule log pins down *when* each sequence retired.
    let log = sched.sched_log().expect("log recorded");
    let mut retire_step: HashMap<usize, u64> = HashMap::new();
    for rec in &log.steps {
        for &id in &rec.retired {
            retire_step.insert(id, rec.step);
        }
    }
    let long_done = *retire_step
        .get(&long_id)
        .expect("the long generate never retired");
    for id in &score_ids {
        let done = *retire_step.get(id).unwrap_or_else(|| panic!("score {id} never retired"));
        assert!(
            done < long_done,
            "score {id} retired at step {done}, not before the long generate's {long_done} \
             — head-of-line blocking is back"
        );
    }
    // Sanity: the long decode really did span most of the schedule.
    assert!(
        long_done >= u64::try_from(cfg.max_seq).unwrap_or(u64::MAX) / 2,
        "long generate finished suspiciously early (step {long_done})"
    );
}
