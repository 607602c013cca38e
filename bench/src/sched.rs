//! The two in-process scheduler workloads: `sched_closed8` (eight
//! virtual closed-loop clients) and `sched_open` (seeded Poisson
//! arrivals), both driving `EvalEngine::iter_scheduler` from ONE thread
//! with no sockets in the way. S70b int8, three scores to one generate.

use crate::common::{self, counter, Args, Fixture, Kind, Outcome, Rep, Sample};
use crate::spans::Recorder;
use crate::stats;
use astro_eval::{
    generate_job, instruct_method_answer, score_job, token_method_predict, EvalModel,
    InstructEvalConfig, TokenEvalConfig,
};
use astro_mcq::Mcq;
use astro_model::Tier;
use astro_prng::Rng;
use astro_serve::{
    EngineConfig, EvalEngine, GenerateJob, IterScheduler, SchedulerConfig, ScoreJob, SeqOutcome,
};
use std::collections::HashMap;
use std::time::Instant;

/// Frozen nominal closed-loop rate of the committing machine, requests/s.
const CLOSED_NOMINAL_RPS: f64 = 42.0;
/// Open-loop arrival rate, frozen: 0.6 x the closed-loop rate (27/s) of
/// the slowest state this shared machine was seen in, rounded down. In
/// its fast state (closed loop ~50/s) that is a third of capacity; the
/// rate is kept where no observed state of the machine overloads it.
pub const OPEN_RATE_RPS: f64 = 16.0;
/// Latency limits of the open loop, ~4x the unloaded p50 of each kind in
/// that same slow state, frozen.
pub const SCORE_LIMIT_MS: f64 = 150.0;
pub const GENERATE_LIMIT_MS: f64 = 800.0;
const CLIENTS: usize = 8;
/// Anchor groups: one shared-prefix anchor per prompt family, as the
/// engine's batch priming would find for a batch of these jobs.
const SCORE_GROUP: u64 = 0;
const GENERATE_GROUP: u64 = 1;

#[derive(Clone)]
enum Job {
    Score(ScoreJob),
    Generate(GenerateJob),
}

impl Job {
    fn kind(&self) -> Kind {
        match self {
            Job::Score(_) => Kind::Score,
            Job::Generate(_) => Kind::Generate,
        }
    }
}

struct SchedFixture {
    fx: Fixture,
    /// `(question id, job)` per request, in request order.
    requests: Vec<(usize, Job)>,
    anchors: HashMap<u64, Vec<u32>>,
}

fn request_rng(seed: u64, i: usize) -> Rng {
    Rng::seed_from(seed).substream_idx("instruct-q", i as u64)
}

/// `n` requests for each repetition, on distinct questions: four kept
/// repetitions then put `4 n` different questions behind a latency
/// percentile, which is what keeps it from moving with the seed.
fn setup(seed: u64, n: usize) -> SchedFixture {
    let fx = Fixture::new(Tier::S70b, true);
    let model = EvalModel {
        params: &fx.params,
        tokenizer: &fx.study.tokenizer,
    };
    // Exactly three scores to one generate, in a fixed order: the seed
    // picks the questions, not the shape of the load.
    let kinds = (0..n * common::REPS).map(|i| {
        if i % 4 == 3 {
            Kind::Generate
        } else {
            Kind::Score
        }
    });
    let requests: Vec<(usize, Job)> = fx
        .pick(seed, n * common::REPS)
        .into_iter()
        .zip(kinds)
        .enumerate()
        .map(|(i, (q, kind))| {
            let job = match kind {
                Kind::Score => {
                    let mut job = score_job(
                        &model,
                        q,
                        &fx.study.mcq.exemplars,
                        &TokenEvalConfig::default(),
                    );
                    job.group = Some(SCORE_GROUP);
                    Job::Score(job)
                }
                Kind::Generate => {
                    let mut job = generate_job(
                        &model,
                        q,
                        &InstructEvalConfig::default(),
                        request_rng(seed, i),
                    );
                    job.group = Some(GENERATE_GROUP);
                    Job::Generate(job)
                }
            };
            (q.id, job)
        })
        .collect();
    let prompts_of = |kind: Kind| -> Vec<&[u32]> {
        requests
            .iter()
            .filter(|(_, j)| j.kind() == kind)
            .map(|(_, j)| match j {
                Job::Score(j) => j.prompt.as_slice(),
                Job::Generate(j) => j.prompt.as_slice(),
            })
            .collect()
    };
    let anchors = HashMap::from([
        (SCORE_GROUP, common::common_prefix(&prompts_of(Kind::Score))),
        (
            GENERATE_GROUP,
            common::common_prefix(&prompts_of(Kind::Generate)),
        ),
    ]);
    let sf = SchedFixture {
        fx,
        requests,
        anchors,
    };
    // Warm-up: a short closed loop touches weights, sessions and the trie.
    run_closed(&sf, 0, n.min(8), &mut Recorder::new(false));
    sf
}

/// One repetition's observations.
#[derive(Default)]
struct RepRun {
    wall_s: f64,
    /// Per request: its result and when it retired (seconds into the rep).
    results: Vec<Option<(Result<SeqOutcome, astro_serve::ServeError>, f64)>>,
    submit_s: Vec<f64>,
    step_ms: Vec<f64>,
    active_sum: usize,
    admit_wait_ms: Vec<f64>,
    kv_blocks_peak: usize,
    kv_budget_blocks: usize,
    cache: astro_serve::CacheStats,
}

/// Wraps the scheduler with the from-outside sampling done around every
/// `submit` and `step` call.
struct Driver<'a> {
    sched: IterScheduler,
    rec: &'a mut Recorder,
    root: Option<usize>,
    t0: Instant,
    /// Recorder time of `t0`.
    origin_us: f64,
    run: RepRun,
    /// Sequence id -> request index.
    seq_to_req: HashMap<usize, usize>,
    /// This repetition's requests.
    requests: &'a [(usize, Job)],
}

impl<'a> Driver<'a> {
    /// A fresh scheduler for repetition `rep` of `n` requests.
    fn new(
        sf: &'a SchedFixture,
        engine: &EvalEngine,
        rep: usize,
        n: usize,
        rec: &'a mut Recorder,
        root_name: &'static str,
    ) -> Self {
        let mut sched = engine.iter_scheduler(SchedulerConfig::default());
        sched.set_anchors(sf.anchors.clone());
        let root = rec.open(root_name, None, 0);
        let run = RepRun {
            results: (0..n).map(|_| None).collect(),
            submit_s: vec![0.0; n],
            kv_budget_blocks: sched.ledger().budget_blocks(),
            ..RepRun::default()
        };
        let t0 = Instant::now();
        let origin_us = rec.at_us(t0);
        Driver {
            sched,
            rec,
            root,
            t0,
            origin_us,
            run,
            seq_to_req: HashMap::new(),
            requests: &sf.requests[rep * n..][..n],
        }
    }

    fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn submit(&mut self, req: usize) {
        let start_us = self.rec.now_us();
        self.run.submit_s[req] = self.now_s();
        let submitted = match self.requests[req].1.clone() {
            Job::Score(j) => self.sched.submit_score(j),
            Job::Generate(j) => self.sched.submit_generate(j),
        };
        // The admission queue holds 1024; a refusal here is a failed request.
        if let Ok(id) = submitted {
            self.seq_to_req.insert(id, req);
        }
        let end_us = self.rec.now_us();
        self.rec
            .record("serve.submit", self.root, req as u64 + 1, start_us, end_us);
    }

    /// One scheduler step; returns how many requests retired.
    fn step(&mut self) -> usize {
        let (start_us, start_s) = (self.rec.now_us(), self.now_s());
        let retired = self.sched.step();
        let (end_us, end_s) = (self.rec.now_us(), self.now_s());
        self.rec
            .record("serve.step", self.root, 0, start_us, end_us);
        self.run.step_ms.push((end_s - start_s) * 1e3);
        if let Some(record) = self.sched.sched_log().and_then(|log| log.steps.last()) {
            self.run.active_sum += record.batch.len();
            for id in &record.admitted {
                if let Some(&req) = self.seq_to_req.get(id) {
                    self.run
                        .admit_wait_ms
                        .push((start_s - self.run.submit_s[req]) * 1e3);
                }
            }
        }
        self.run.kv_blocks_peak = self.run.kv_blocks_peak.max(self.sched.ledger().in_use());
        let n = retired.len();
        for (id, result) in retired {
            let Some(req) = self.seq_to_req.remove(&id) else {
                continue;
            };
            let name = match self.requests[req].1.kind() {
                Kind::Score => "request.score",
                Kind::Generate => "request.generate",
            };
            self.rec.record(
                name,
                self.root,
                req as u64 + 1,
                self.run.submit_s[req] * 1e6 + self.origin_us,
                end_us,
            );
            self.run.results[req] = Some((result, end_s));
        }
        n
    }

    fn finish(mut self, engine: &EvalEngine) -> RepRun {
        self.run.wall_s = self.now_s();
        self.rec.close(self.root);
        self.run.cache = engine.cache_stats();
        self.run
    }
}

/// Closed loop: each of the eight virtual clients submits its next
/// request the moment its previous one retires.
fn run_closed(sf: &SchedFixture, rep: usize, n: usize, rec: &mut Recorder) -> RepRun {
    let engine = EvalEngine::new(EngineConfig::iteration(), &sf.fx.params);
    let mut d = Driver::new(sf, &engine, rep, n, rec, "sched_closed8");
    let (mut next, mut in_flight) = (0usize, 0usize);
    loop {
        while in_flight < CLIENTS && next < n {
            d.submit(next);
            in_flight += 1;
            next += 1;
        }
        if in_flight == 0 {
            break;
        }
        in_flight -= d.step();
        if d.sched.is_idle() {
            // Every in-flight request was refused at submission.
            in_flight = 0;
        }
    }
    d.finish(&engine)
}

/// Open loop: admit everything due, step, wait only when idle.
/// Returns the run, the due times and how late each request was sent.
fn run_open(
    sf: &SchedFixture,
    rep: usize,
    n: usize,
    seed: u64,
    rec: &mut Recorder,
) -> (RepRun, Vec<f64>, Vec<f64>) {
    let due = stats::poisson_schedule(seed, rep as u64, OPEN_RATE_RPS, n);
    let engine = EvalEngine::new(EngineConfig::iteration(), &sf.fx.params);
    let mut d = Driver::new(sf, &engine, rep, n, rec, "sched_open");
    let mut lag_ms = Vec::with_capacity(n);
    let mut next = 0usize;
    loop {
        let now = d.now_s();
        while next < n && due[next] <= now {
            d.submit(next);
            lag_ms.push((d.run.submit_s[next] - due[next]) * 1e3);
            next += 1;
        }
        if d.sched.is_idle() {
            if next == n {
                break;
            }
            // Spin to the next due time: a sleeping generator oversleeps by
            // milliseconds, and latency is timed from the due time.
            while d.now_s() < due[next] {
                std::hint::spin_loop();
            }
            continue;
        }
        d.step();
    }
    (d.finish(&engine), due, lag_ms)
}

/// Serial int8 reference for request `i`, compared bitwise.
fn matches_oracle(sf: &SchedFixture, seed: u64, i: usize, got: &SeqOutcome) -> bool {
    let model = EvalModel {
        params: &sf.fx.params,
        tokenizer: &sf.fx.study.tokenizer,
    };
    let (qid, job) = &sf.requests[i];
    let q: &Mcq = &sf.fx.study.mcq.questions[*qid];
    match (job, got) {
        (Job::Score(_), SeqOutcome::Scores(s)) => {
            let (_, want) = token_method_predict(
                &model,
                q,
                &sf.fx.study.mcq.exemplars,
                &TokenEvalConfig::default(),
            );
            common::score_bits(s) == common::score_bits(&want)
        }
        (Job::Generate(_), SeqOutcome::Tokens(t)) => {
            let want = instruct_method_answer(
                &model,
                q,
                &InstructEvalConfig::default(),
                &mut request_rng(seed, i),
            );
            model.tokenizer.decode(t) == want.raw
        }
        _ => false,
    }
}

/// Fold the repetitions into the outcome: per-layer scheduler metrics
/// from repetition 0 (exact counts repeat), oracle checks on the last.
fn summarize(args: &Args, sf: &SchedFixture, runs: &[RepRun], out: &mut Outcome) {
    let first = &runs[0];
    let steps = first.step_ms.len();
    let strict = !args.smoke;
    let all_steps: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    let all_waits: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.admit_wait_ms.iter().copied())
        .collect();
    let cache = first.cache;
    out.layer.insert("serve.sched_steps", steps as f64);
    out.layer.insert(
        "serve.sched_mean_active",
        first.active_sum as f64 / steps.max(1) as f64,
    );
    out.layer.insert(
        "serve.sched_step_ms_p50",
        stats::percentile(&all_steps, 50.0, strict).unwrap_or(0.0),
    );
    match stats::percentile(&all_steps, 95.0, strict) {
        Ok(v) => drop(out.layer.insert("serve.sched_step_ms_p95", v)),
        Err(e) => out.broken.push(format!("serve.sched_step_ms_p95: {e}")),
    }
    out.layer.insert(
        "serve.admit_wait_ms_p50",
        stats::percentile(&all_waits, 50.0, strict).unwrap_or(0.0),
    );
    out.layer
        .insert("serve.kv_blocks_peak", first.kv_blocks_peak as f64);
    out.layer
        .insert("serve.kv_budget_blocks", first.kv_budget_blocks as f64);
    out.layer.insert("serve.prefix_hit_rate", cache.hit_rate());
    out.layer.insert("serve.evictions", cache.evictions as f64);
    out.layer
        .insert("serve.resident_bytes_peak", cache.resident_bytes as f64);

    for run in runs {
        out.attempted += run.results.len() as u64;
        out.failed += run
            .results
            .iter()
            .filter(|r| !matches!(r, Some((Ok(_), _))))
            .count() as u64;
    }
    // Oracle: the last repetition's results against the serial reference.
    let last = runs.last().expect("at least one repetition");
    let first_request = (runs.len() - 1) * last.results.len();
    let checks = common::check_indices(last.results.len(), args.oracle_checks());
    out.failed += common::oracle_mismatches(&checks, |i| match &last.results[i] {
        Some((Ok(got), _)) => matches_oracle(sf, args.seed, first_request + i, got),
        _ => true, // already counted as failed
    });
    out.layer.insert("loadgen.checked_ops", checks.len() as f64);
}

/// Record `serve.tokens_encoded` / reuse for the work since `encoded_before`.
fn record_tokens(out: &mut Outcome, encoded_before: u64, run: &RepRun) {
    let encoded = counter("serve.tokens.encoded") - encoded_before;
    out.layer.insert("serve.tokens_encoded", encoded as f64);
    let reused = run.cache.tokens_reused;
    out.layer.insert(
        "serve.tokens_reused_share",
        reused as f64 / (reused + encoded).max(1) as f64,
    );
}

/// Saturated continuous batching at occupancy ~7: where batching compute
/// across sequences and the int8 kernels must show, and where HTTP or
/// router changes must not.
pub fn sched_closed8(args: &Args, rec: &mut Recorder) -> Outcome {
    // At least 50 a repetition: the four kept repetitions then pool 200
    // requests, the fewest that support a p95.
    let n = args.rep_ops(CLOSED_NOMINAL_RPS, 50);
    let mut out = Outcome::default();
    let mut runs = Vec::new();
    let sf = common::instances(
        args,
        &mut out,
        || setup(args.seed, n),
        |sf, rep, out| {
            let kind = |i: usize| sf.requests[rep * n + i].1.kind();
            let traced = args.traces(rep);
            let encoded_before = counter("serve.tokens.encoded");
            let mut quiet = Recorder::new(false);
            let run = run_closed(sf, rep, n, if traced { &mut *rec } else { &mut quiet });
            if rep == 0 {
                record_tokens(out, encoded_before, &run);
            }
            out.reps.push(Rep {
                ops: n,
                wall_s: run.wall_s,
                traced,
            });
            for (i, r) in run.results.iter().enumerate() {
                if let Some((Ok(_), done_s)) = r {
                    out.samples.push(Sample {
                        rep,
                        kind: kind(i),
                        latency_ms: (done_s - run.submit_s[i]) * 1e3,
                        in_limit: true,
                    });
                }
            }
            runs.push(run);
        },
    );
    summarize(args, &sf, &runs, &mut out);
    out
}

/// Independent users make an open loop; this is the one workload with a
/// queue. Latency is timed from each request's due time.
pub fn sched_open(args: &Args, rec: &mut Recorder) -> Outcome {
    // At least 50 a repetition: the four kept repetitions then pool 200
    // requests, the fewest that support a p95.
    let n = args.rep_ops(OPEN_RATE_RPS, 50);
    let mut out = Outcome {
        rate_is_scheduled: true,
        ..Outcome::default()
    };
    let mut runs = Vec::new();
    let (mut lags, mut backlog_end) = (Vec::new(), 0usize);
    let sf = common::instances(
        args,
        &mut out,
        || setup(args.seed, n),
        |sf, rep, out| {
            let kind = |i: usize| sf.requests[rep * n + i].1.kind();
            let traced = args.traces(rep);
            let encoded_before = counter("serve.tokens.encoded");
            let mut quiet = Recorder::new(false);
            let (run, due, lag_ms) = run_open(
                sf,
                rep,
                n,
                args.seed,
                if traced { &mut *rec } else { &mut quiet },
            );
            if rep == 0 {
                record_tokens(out, encoded_before, &run);
            }
            out.reps.push(Rep {
                ops: n,
                wall_s: run.wall_s,
                traced,
            });
            // Whatever is still unfinished one generate limit after the last
            // arrival is backlog: a system that keeps up has none.
            let cutoff_s = due[n - 1] + GENERATE_LIMIT_MS / 1e3;
            for (i, r) in run.results.iter().enumerate() {
                match r {
                    Some((Ok(_), done_s)) => {
                        let latency_ms = stats::due_latency_ms(due[i], *done_s);
                        let limit = match kind(i) {
                            Kind::Score => SCORE_LIMIT_MS,
                            Kind::Generate => GENERATE_LIMIT_MS,
                        };
                        out.samples.push(Sample {
                            rep,
                            kind: kind(i),
                            latency_ms,
                            in_limit: latency_ms <= limit,
                        });
                        backlog_end += usize::from(*done_s > cutoff_s);
                    }
                    _ => backlog_end += 1,
                }
            }
            lags.extend(lag_ms);
            runs.push(run);
        },
    );
    summarize(args, &sf, &runs, &mut out);
    out.layer.insert(
        "loadgen.send_lag_ms_p95",
        stats::percentile(&lags, 95.0, false).unwrap_or(0.0),
    );
    out.layer.insert("loadgen.backlog_end", backlog_end as f64);
    out.layer.insert("loadgen.offered_rps", OPEN_RATE_RPS);
    let sent = (n * common::REPS) as f64;
    out.layer.insert(
        "loadgen.slo_met_share",
        out.samples.iter().filter(|s| s.in_limit).count() as f64 / sent,
    );
    out.require(backlog_end == 0, || {
        format!("loadgen.backlog_end = {backlog_end}, the open loop did not keep up")
    });
    out
}
