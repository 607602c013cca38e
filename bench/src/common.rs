//! What every workload shares: arguments, the fixed world and weights,
//! seeded question picks, repetition bookkeeping and the oracle runner.

use crate::stats;
use astro_mcq::Mcq;
use astro_model::{Params, Tier};
use astro_prng::Rng;
use astromlab::{Study, StudyConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The world (articles, tokenizer, benchmark questions) is the fast
/// preset at one fixed seed, so token counts per question do not move
/// between workload seeds; the workload seed picks the question subset,
/// the request order and the arrival schedule.
pub const WORLD_SEED: u64 = 42;
/// Untrained weights: serving cost does not depend on training state,
/// and greedy generation then always runs its full token budget.
pub const WEIGHT_SEED: u64 = 7;
/// Repetitions per run, each of the same size on a fresh engine.
/// Other tenants of the machine only ever slow a repetition down, so a
/// run reports the upper quartile of the six rates, and takes latency
/// percentiles over the samples of the `KEPT_REPS` fastest repetitions.
pub const REPS: usize = 6;
pub const KEPT_REPS: usize = 4;
/// Operations per workload whose output is compared bitwise with the
/// serial oracle.
pub const ORACLE_CHECKS: usize = 32;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tenth-size check run: traced, percentile guard off, four oracle
    /// checks, one set-up, both metric sets in one result line. Results
    /// are not comparable with full runs.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Args {
    /// Whether repetition `rep` records spans: two of the six, each
    /// between untraced ones.
    pub fn traces(&self, rep: usize) -> bool {
        self.trace && rep % 3 == 1
    }

    /// Operations per repetition: a frozen nominal rate of the committing
    /// machine times a sixth of `--seconds`, so that sizes — and with
    /// them every exact count — depend on the arguments, never the clock.
    pub fn rep_ops(&self, nominal_per_s: f64, at_least: usize) -> usize {
        let at_least = if self.smoke {
            (at_least / 10).max(4)
        } else {
            at_least
        };
        ((nominal_per_s * self.seconds / REPS as f64).round() as usize).max(at_least)
    }

    pub fn oracle_checks(&self) -> usize {
        if self.smoke {
            4
        } else {
            ORACLE_CHECKS
        }
    }

    /// How many times set-up runs; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Score,
    Generate,
}

/// One request as the load generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into `Outcome::reps`.
    pub rep: usize,
    pub kind: Kind,
    pub latency_ms: f64,
    /// Finished within its latency limit (workloads without a limit: true).
    pub in_limit: bool,
}

#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub ops: usize,
    pub wall_s: f64,
    pub traced: bool,
}

/// Everything a workload hands back to `main` for reporting.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub reps: Vec<Rep>,
    /// Per-request samples, pooled over all repetitions. Empty for the
    /// offline workloads, whose caller gets the whole batch back at once.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Engine errors, non-200s and oracle mismatches.
    pub failed: u64,
    /// Workload-observed per-layer metrics (probe metrics are added later).
    pub layer: BTreeMap<&'static str, f64>,
    /// Workload invariants that did not hold; any entry fails the run.
    pub broken: Vec<String>,
    /// The open loop: its schedule, not its speed, sets its rate.
    pub rate_is_scheduled: bool,
}

impl Outcome {
    /// Operations per second of repetition `rep`.
    pub fn rate(&self, rep: usize) -> f64 {
        self.reps[rep].ops as f64 / self.reps[rep].wall_s
    }

    /// Latencies of the requests of the given repetitions, optionally of
    /// one kind.
    pub fn latencies_ms(&self, reps: &[usize], kind: Option<Kind>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| reps.contains(&s.rep) && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.latency_ms)
            .collect()
    }

    /// How fast repetition `rep` ran: its rate, or for the open loop
    /// (whose rate its schedule sets) the inverse of its median latency.
    pub fn speed(&self, rep: usize) -> f64 {
        if self.rate_is_scheduled {
            1e3 / stats::median(&self.latencies_ms(&[rep], None))
        } else {
            self.rate(rep)
        }
    }

    /// Upper quartile of the repetitions' rates.
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = (0..self.reps.len()).map(|r| self.rate(r)).collect();
        stats::percentile(&rates, 75.0, false).expect("at least one repetition")
    }

    /// The `KEPT_REPS` fastest repetitions.
    pub fn kept_reps(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.reps.len()).collect();
        order.sort_by(|a, b| self.speed(*b).total_cmp(&self.speed(*a)));
        order.truncate(KEPT_REPS);
        order
    }

    /// Share by which the fastest traced repetition ran slower than the
    /// fastest untraced one.
    pub fn trace_overhead(&self) -> f64 {
        let best = |traced: bool| {
            (0..self.reps.len())
                .filter(|r| self.reps[*r].traced == traced)
                .map(|r| self.speed(r))
                .fold(f64::NAN, f64::max)
        };
        1.0 - best(true) / best(false)
    }

    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.broken.push(what());
        }
    }
}

/// The prepared study plus one tier's untrained weights.
pub struct Fixture {
    pub study: Study,
    pub params: Params,
}

impl Fixture {
    pub fn new(tier: Tier, int8: bool) -> Fixture {
        let study = Study::prepare(StudyConfig::fast(WORLD_SEED)).expect("fast preset is valid");
        let params = Params::init(study.model_config(tier), &mut Rng::seed_from(WEIGHT_SEED));
        let params = if int8 { params.quantized() } else { params };
        Fixture { study, params }
    }

    /// `n` distinct benchmark questions in a seeded order.
    pub fn pick(&self, seed: u64, n: usize) -> Vec<&Mcq> {
        let mut rng = Rng::seed_from(seed).substream("questions");
        self.study.mcq.subset(n, &mut rng)
    }
}

/// Set up `args.setups()` times and share the `REPS` repetitions out
/// evenly over the instances that builds (three set-ups: two repetitions
/// on each), so that whatever a set-up fixes for an instance's lifetime —
/// where its server threads were placed, how its heap fell — is drawn
/// afresh within a run rather than once per run. Each instance is dropped
/// before the next is built; the last one is returned for the oracle.
///
/// After the first set-up the kernel's peak-RSS watermark is restarted,
/// so `process.peak_rss_mb` is the peak of the measured phases over what
/// set-up left resident, not of set-up's transients (where `clear_refs`
/// is not writable it includes them).
pub fn instances<F>(
    args: &Args,
    out: &mut Outcome,
    setup: impl Fn() -> F,
    mut repetition: impl FnMut(&F, usize, &mut Outcome),
) -> F {
    let n = args.setups();
    let mut last = None;
    for instance in 0..n {
        drop(last.take());
        let t = Instant::now();
        let fixture = setup();
        out.setup_s.push(t.elapsed().as_secs_f64());
        if instance == 0 {
            let _ = std::fs::write("/proc/self/clear_refs", "5");
        }
        for rep in 0..REPS / n {
            repetition(&fixture, instance * (REPS / n) + rep, out);
        }
        last = Some(fixture);
    }
    last.expect("at least one set-up")
}

/// Indices of the operations to check against the oracle: every k-th of
/// `n`, `want` in total (all of them when `n <= want`).
pub fn check_indices(n: usize, want: usize) -> Vec<usize> {
    let want = want.min(n);
    (0..want).map(|i| i * n / want).collect()
}

/// Count the `indices` for which `matches_oracle` is false, spreading the
/// (serial, slow) reference computations over the machine's cores.
pub fn oracle_mismatches(indices: &[usize], matches_oracle: impl Fn(usize) -> bool + Sync) -> u64 {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(indices.len().max(1));
    let bad = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (bad, matches_oracle) = (&bad, &matches_oracle);
            scope.spawn(move || {
                for &i in indices.iter().skip(t).step_by(threads) {
                    if !matches_oracle(i) {
                        bad.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    bad.into_inner()
}

pub fn counter(name: &str) -> u64 {
    astro_telemetry::counter(name).get()
}

pub fn score_bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Longest common prefix of a set of token sequences.
pub fn common_prefix(prompts: &[&[u32]]) -> Vec<u32> {
    let Some(first) = prompts.first() else {
        return Vec::new();
    };
    let len = prompts
        .iter()
        .map(|p| {
            p.iter()
                .zip(first.iter())
                .take_while(|(a, b)| a == b)
                .count()
        })
        .min()
        .unwrap_or(0);
    first[..len].to_vec()
}
