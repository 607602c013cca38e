//! The metric table (mirrored in `BENCHMARK.json`), result emission, and
//! the `check` and `compare` tools that read results back.

use crate::stats;
use astro_eval::json::Json;
use std::collections::BTreeMap;

pub const WORKLOADS: &[(&str, &str)] = &[
    ("token_shared", "paper methods 2/3 over a question batch: ~111 of ~136 prompt tokens are a shared preamble, so prefix-cache reads and session forks dominate and decode is absent"),
    ("instruct_generate", "paper method 1 over a question batch: 48 greedy decode steps and ~76 unshared prompt tokens per question, so prefill and decode dominate and the prefix cache matters little"),
    ("sched_closed8", "in-process iteration scheduler, int8, 8 closed-loop clients on one thread: saturated continuous batching with no sockets, where batched compute and kernels must show"),
    ("gateway_thrash", "real sockets to one gateway over 40 prompt groups, more than its 32-session cache holds: every request misses, evicts and re-inserts, a full long prefill each"),
];

/// Run like the workloads above and recorded in `history.jsonl`, but not
/// in `BENCHMARK.json`: on the shared two-core committing machine their
/// run-to-run spread, with nothing changed, is wider than the widest bound
/// a gated workload may have (README, "Measured run-to-run spread").
pub const EXTRA_WORKLOADS: &[(&str, &str)] = &[
    ("sched_open", "same scheduler and mix under seeded Poisson arrivals at a frozen 16/s: the one workload with a queue and latency limits, latency timed from each request's due time"),
    ("cluster_affinity", "identical traffic through the router and two replicas: each holds its hash share resident, so requests hit and HTTP, queueing and forwarding dominate"),
];

/// `(name, unit, better, bound)`: the metrics a user of the system sees,
/// each defined on every workload. `bound` is the share of the parent's
/// median by which the metric may worsen before it is a regression: the
/// widest the contract allows, because the shared committing machine
/// moves between states 30-50 % apart for minutes at a time (README).
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("requests_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: metrics of single layers, from the traced run.
/// A metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("machine.copy_gbps", "GB/s", "higher"),
    ("machine.fma_gflops", "GFLOP/s", "higher"),
    ("tensor.matvec_f32_gflops", "GFLOP/s", "higher"),
    ("tensor.matvec_f32_gbps", "GB/s", "higher"),
    ("tensor.matvec_f32_s7b_gflops", "GFLOP/s", "higher"),
    ("tensor.matvec_q8_gops", "GOP/s", "higher"),
    ("tensor.matvec_q8_gbps", "GB/s", "higher"),
    ("tensor.matmul_f32_m8_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_q8_m8_gops", "GOP/s", "higher"),
    ("model.prefill_tokens_per_s.s70b_f32", "1/s", "higher"),
    ("model.prefill_tokens_per_s.s70b_int8", "1/s", "higher"),
    ("model.prefill_tokens_per_s.s7b_f32", "1/s", "higher"),
    ("model.decode_tokens_per_s.s70b_f32", "1/s", "higher"),
    ("model.decode_tokens_per_s.s70b_int8", "1/s", "higher"),
    ("model.decode_tokens_per_s.s7b_f32", "1/s", "higher"),
    ("model.chunk4_tokens_per_s.s70b_int8", "1/s", "higher"),
    ("model.fork_us.s70b", "us", "lower"),
    ("model.fork_us.s7b", "us", "lower"),
    ("model.session_bytes.s70b", "B", "lower"),
    ("model.decode_kernel_share.s70b_f32", "share", "higher"),
    ("serve.prefix_hit_rate", "share", "higher"),
    ("serve.tokens_reused_share", "share", "higher"),
    ("serve.tokens_encoded", "count", "lower"),
    ("serve.evictions", "count", "lower"),
    ("serve.resident_bytes_peak", "B", "lower"),
    ("serve.engine_busy_share", "share", "higher"),
    ("serve.sched_steps", "count", "lower"),
    ("serve.sched_mean_active", "count", "higher"),
    ("serve.sched_step_ms_p50", "ms", "lower"),
    ("serve.sched_step_ms_p95", "ms", "lower"),
    ("serve.admit_wait_ms_p50", "ms", "lower"),
    ("serve.kv_blocks_peak", "count", "lower"),
    ("serve.kv_budget_blocks", "count", "higher"),
    ("serve.trie_fork_us", "us", "lower"),
    ("serve.trie_insert_us", "us", "lower"),
    ("eval.build_score_job_us_p50", "us", "lower"),
    ("eval.build_generate_job_us_p50", "us", "lower"),
    ("eval.extract_us_p50", "us", "lower"),
    ("tokenizer.encode_tokens_per_s", "1/s", "higher"),
    ("gateway.healthz_ms_p50", "ms", "lower"),
    ("gateway.connect_ms_p50", "ms", "lower"),
    ("gateway.overhead_ms_p50", "ms", "lower"),
    ("gateway.useful_work_share", "share", "higher"),
    ("gateway.batch_occupancy_mean", "count", "higher"),
    ("gateway.accepted", "count", "higher"),
    ("gateway.completed", "count", "higher"),
    ("gateway.shed_429", "count", "lower"),
    ("gateway.shed_503", "count", "lower"),
    ("router.forward_overhead_ms_p50", "ms", "lower"),
    ("router.affinity_share", "share", "higher"),
    ("router.replica_load_ratio", "ratio", "lower"),
    ("router.forwarded", "count", "higher"),
    ("router.failovers", "count", "lower"),
    ("router.redispatches", "count", "lower"),
    ("router.lost", "count", "lower"),
    ("loadgen.latency_p95_ms", "ms", "lower"),
    ("loadgen.score_latency_p95_ms", "ms", "lower"),
    ("loadgen.generate_latency_p50_ms", "ms", "lower"),
    ("loadgen.slo_met_share", "share", "higher"),
    ("loadgen.send_lag_ms_p95", "ms", "lower"),
    ("loadgen.backlog_end", "count", "lower"),
    ("loadgen.offered_rps", "1/s", "higher"),
    ("loadgen.checked_ops", "count", "higher"),
    ("process.peak_rss_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("reconcile.ratio", "ratio", "higher"),
];

/// Counts that must repeat exactly between runs with equal arguments.
const EXACT_COUNTS: &[&str] = &[
    "serve.tokens_encoded",
    "serve.sched_steps",
    "gateway.accepted",
];

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}"))
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {run_seconds},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn names_of(manifest: &Json, key: &str) -> Result<Vec<String>, String> {
    let Some(Json::Array(items)) = manifest.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    items
        .iter()
        .map(|i| {
            i.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{key} entry without a name"))
        })
        .collect()
}

/// One run-set line: `{"workload": .., "seed": .., "result": {..}, "layers": {..}|null, ..}`.
struct Line {
    workload: String,
    result: Json,
    layers: Option<Json>,
}

fn parse_lines(path: &str) -> Result<Vec<Line>, String> {
    read(path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let j = Json::parse(l).map_err(|e| format!("{path}: {e}"))?;
            let workload = j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(format!("{path}: line without workload"))?;
            let result = j
                .get("result")
                .cloned()
                .ok_or(format!("{path}: line without result"))?;
            let layers = j.get("layers").cloned().filter(|l| *l != Json::Null);
            Ok(Line {
                workload: workload.to_string(),
                result,
                layers,
            })
        })
        .collect()
}

fn metric_values(run: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Object(metrics)) = run.get("metrics") {
        for (name, m) in metrics {
            if let Some(Json::Number(v)) = m.get("value") {
                out.insert(name.clone(), *v);
            }
        }
    }
    out
}

fn number(run: &Json, key: &str) -> f64 {
    match run.get(key) {
        Some(Json::Number(n)) => *n,
        _ => f64::NAN,
    }
}

/// `check`: every metric named in `BENCHMARK.json` is emitted exactly
/// once per workload with a finite value and a legal name, and every
/// result parses with `astro_eval::json`.
pub fn check(manifest_path: &str, results_path: &str) -> Result<String, String> {
    let manifest =
        Json::parse(&read(manifest_path)?).map_err(|e| format!("{manifest_path}: {e}"))?;
    let lines = parse_lines(results_path)?;
    let mut problems = Vec::new();
    let mut seen = 0;
    for workload in names_of(&manifest, "workloads")? {
        let Some(line) = lines.iter().find(|l| l.workload == workload) else {
            problems.push(format!("{workload}: no result"));
            continue;
        };
        for (key, run) in [
            ("end_to_end", Some(&line.result)),
            ("per_layer", line.layers.as_ref()),
        ] {
            let Some(run) = run else {
                problems.push(format!("{workload}: no {key} run"));
                continue;
            };
            let want = names_of(&manifest, key)?;
            let Some(Json::Object(got)) = run.get("metrics") else {
                problems.push(format!("{workload}: {key} run has no metrics"));
                continue;
            };
            for name in &want {
                let legal = !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                let finite = matches!(got.get(name).and_then(|m| m.get("value")), Some(Json::Number(v)) if v.is_finite());
                if !legal || !finite {
                    problems.push(format!(
                        "{workload}: {name} missing, not finite or illegally named"
                    ));
                }
                seen += 1;
            }
            for name in got.keys().filter(|n| !want.contains(n)) {
                problems.push(format!(
                    "{workload}: {name} emitted but not in BENCHMARK.json {key}"
                ));
            }
            if run.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{workload}: {key} run is not correct"));
            }
        }
    }
    if problems.is_empty() {
        Ok(format!("check: {seen} metric values over {} workloads, all present, finite and named in BENCHMARK.json", lines.len()))
    } else {
        Err(problems.join("\n"))
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Agree,
    Regressed,
    /// The run-to-run spread is wider than the bound, so neither
    /// "unchanged" nor "regressed" can be said.
    Unresolved,
}

/// Compare B against A for one metric. `worse` is the relative change in
/// the metric's bad direction. With spread wider than the bound the
/// verdict is `Unresolved`, unless every B run reads better than every A.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (mb - ma) / ma.abs();
    let spread = stats::spread(a).max(stats::spread(b));
    let all_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    let v = if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Agree
    };
    (worse, spread, v)
}

/// `compare`: per workload x end-to-end metric, both medians, the
/// relative difference, the bound and the verdict; `failed_share` may not
/// increase at all; the exact counts must be identical.
pub fn compare(manifest_path: &str, a_path: &str, b_path: &str) -> Result<String, String> {
    let manifest =
        Json::parse(&read(manifest_path)?).map_err(|e| format!("{manifest_path}: {e}"))?;
    let (a, b) = (parse_lines(a_path)?, parse_lines(b_path)?);
    let Some(Json::Array(e2e)) = manifest.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    let mut table = format!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    let mut bad = 0;
    // The gated workloads must be in both sets; the ungated ones are
    // compared where both sets have them, and never fail the comparison.
    let gated = names_of(&manifest, "workloads")?;
    let mut ungated: Vec<String> = a
        .iter()
        .map(|l| l.workload.clone())
        .filter(|w| !gated.contains(w) && b.iter().any(|l| l.workload == *w))
        .collect();
    ungated.sort();
    ungated.dedup();
    for (workload, counts) in gated
        .iter()
        .map(|w| (w, 1))
        .chain(ungated.iter().map(|w| (w, 0)))
    {
        let note = if counts == 1 { "" } else { " (ungated)" };
        let runs = |set: &[Line]| -> Vec<BTreeMap<String, f64>> {
            set.iter()
                .filter(|l| l.workload == *workload)
                .map(|l| metric_values(&l.result))
                .collect()
        };
        let (ra, rb) = (runs(&a), runs(&b));
        if ra.is_empty() || rb.is_empty() {
            return Err(format!("{workload}: missing from one of the run sets"));
        }
        for m in e2e {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = number(m, "bound");
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(name).copied()).collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}: {name} missing from one of the run sets"
                ));
            }
            let (worse, spread, v) = verdict(&va, &vb, higher, bound);
            bad += counts * usize::from(v != Verdict::Agree);
            table.push_str(&format!(
                "{workload:<18} {name:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.0}%  {}{note}\n",
                stats::median(&va),
                stats::median(&vb),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            ));
        }
        // failed_share: (errors + non-200 + oracle mismatches) / attempted.
        let failed_share = |set: &[Line]| -> f64 {
            let of = |key| {
                set.iter()
                    .filter(|l| l.workload == *workload)
                    .map(|l| number(&l.result, key))
                    .sum::<f64>()
            };
            of("failed") / of("attempted")
        };
        let (fa, fb) = (failed_share(&a), failed_share(&b));
        let ok = fb <= fa;
        bad += counts * usize::from(!ok);
        table.push_str(&format!(
            "{workload:<18} {:<16} {fa:>12.4} {fb:>12.4} {:>8} {:>7} {:>7}  {}{note}\n",
            "failed_share",
            "",
            "",
            "any",
            if ok { "agree" } else { "regressed" }
        ));
        // Exact counts, where both sets carry a traced run.
        let layers = |set: &[Line]| {
            set.iter()
                .find(|l| l.workload == *workload)
                .and_then(|l| l.layers.as_ref())
                .map(metric_values)
        };
        if let (Some(la), Some(lb)) = (layers(&a), layers(&b)) {
            for name in EXACT_COUNTS {
                let (x, y) = (
                    la.get(*name).copied().unwrap_or(0.0),
                    lb.get(*name).copied().unwrap_or(0.0),
                );
                bad += counts * usize::from(x != y);
                table.push_str(&format!(
                    "{workload:<18} {name:<22} {x:>9} {y:>9} {:>25}  {}{note}\n",
                    "exact",
                    if x == y { "identical" } else { "differs" }
                ));
            }
        }
    }
    if bad == 0 {
        Ok(table)
    } else {
        Err(format!(
            "{table}\n{bad} pairing(s) regressed, unresolved or differing"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_bound_and_the_spread() {
        // Throughput down 4 % under a 10 % bound, tight runs: agree.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[96.0, 97.0, 95.0], true, 0.10).2,
            Verdict::Agree
        );
        // Down 20 %: regressed.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], true, 0.10).2,
            Verdict::Regressed
        );
        // Latency up 20 % is worse; latency down 20 % is not.
        assert_eq!(verdict(&[10.0], &[12.0], false, 0.15).2, Verdict::Regressed);
        assert_eq!(verdict(&[10.0], &[8.0], false, 0.15).2, Verdict::Agree);
        // Runs of A scatter by 30 %: wider than the bound, unresolved ...
        assert_eq!(
            verdict(&[100.0, 130.0, 115.0], &[110.0, 112.0, 111.0], true, 0.10).2,
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(&[100.0, 130.0, 115.0], &[140.0, 141.0, 150.0], true, 0.10).2,
            Verdict::Agree
        );
    }

    #[test]
    fn manifest_and_result_lines_parse_with_the_repo_json_parser() {
        let manifest = Json::parse(&manifest_json(13)).expect("manifest parses");
        assert_eq!(
            names_of(&manifest, "workloads").unwrap().len(),
            WORKLOADS.len()
        );
        assert_eq!(
            names_of(&manifest, "per_layer").unwrap().len(),
            PER_LAYER.len()
        );
        let line = result_json(true, 10, 0, &[("setup_s", "s", 0.25)]);
        let parsed = Json::parse(&line).expect("result parses");
        assert_eq!(metric_values(&parsed)["setup_s"], 0.25);
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
    }
}
