//! One layered, noise-aware benchmark for the three eval methods and the
//! serving stack. See `bench/README.md`; `bench/run.sh` is the entry point.
//!
//! ```text
//! astro-perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! astro-perfbench manifest                     # print BENCHMARK.json
//! astro-perfbench workloads                    # every workload name, the extra one last
//! astro-perfbench check BENCHMARK.json RESULTS.jsonl
//! astro-perfbench compare BENCHMARK.json A.jsonl B.jsonl
//! ```

mod common;
mod offline;
mod probes;
mod report;
mod sched;
mod serving;
mod spans;
mod stats;

use common::{Args, Kind, Outcome};
use offline::Reconcile;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Matches `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;

fn workload_names() -> Vec<&'static str> {
    report::WORKLOADS
        .iter()
        .chain(report::EXTRA_WORKLOADS)
        .map(|w| w.0)
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: astro-perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n       \
         astro-perfbench manifest | workloads | check BENCHMARK.json RESULTS | compare BENCHMARK.json A B",
        workload_names().join("|")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("bench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            (args.smoke, args.trace) = (true, true);
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            "--out" => args.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !workload_names().contains(&args.workload.as_str())
        || args.seconds.is_nan()
        || args.seconds <= 0.0
    {
        usage();
    }
    args
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A percentile of request latencies, failing the run when the sample
/// cannot support it (fix the size, not the percentile).
fn latency_percentile(out: &mut Outcome, what: &str, values: &[f64], p: f64, strict: bool) -> f64 {
    match stats::percentile(values, p, strict) {
        Ok(v) => v,
        Err(e) => {
            out.broken.push(format!("{what}: {e}"));
            0.0
        }
    }
}

fn end_to_end(args: &Args, out: &mut Outcome) -> BTreeMap<&'static str, f64> {
    let strict = !args.smoke;
    let rps = out.ops_per_s();
    let all = out.latencies_ms(&out.kept_reps(), None);
    // The offline caller gets its whole batch back at once, so no request
    // has a latency of its own: report the amortised time per question.
    let p50 = if all.is_empty() {
        1e3 / rps
    } else {
        latency_percentile(out, "latency_p50_ms", &all, 50.0, strict)
    };
    BTreeMap::from([
        ("setup_s", stats::median(&out.setup_s)),
        ("requests_per_s", rps),
        ("latency_p50_ms", p50),
    ])
}

/// Seconds one unit of work costs according to a probe metric.
fn unit_cost_s(probe: &str, value: f64) -> f64 {
    if probe.contains("_per_s") {
        1.0 / value
    } else {
        value * 1e-6 // the `_us` probes
    }
}

fn per_layer(
    args: &Args,
    out: &mut Outcome,
    reconcile: Option<Reconcile>,
) -> BTreeMap<&'static str, f64> {
    let strict = !args.smoke;
    let budget = if args.smoke {
        probes::Budget::SMOKE
    } else {
        probes::Budget::FULL
    };
    // Before the probes, which allocate models of their own.
    let peak_rss_mb = peak_rss_mb();
    let mut m = probes::run_all(args.seed, budget);
    m.append(&mut out.layer);
    m.insert("process.peak_rss_mb", peak_rss_mb);

    // The split by request kind has no bound and needs the sample count,
    // so it pools every repetition.
    let every: Vec<usize> = (0..out.reps.len()).collect();
    let all = out.latencies_ms(&out.kept_reps(), None);
    if !all.is_empty() {
        m.insert(
            "loadgen.latency_p95_ms",
            latency_percentile(out, "loadgen.latency_p95_ms", &all, 95.0, strict),
        );
    }
    let scores = out.latencies_ms(&every, Some(Kind::Score));
    let generates = out.latencies_ms(&every, Some(Kind::Generate));
    if !scores.is_empty() {
        m.insert(
            "loadgen.score_latency_p95_ms",
            latency_percentile(out, "loadgen.score_latency_p95_ms", &scores, 95.0, strict),
        );
    }
    if !generates.is_empty() {
        m.insert(
            "loadgen.generate_latency_p50_ms",
            latency_percentile(
                out,
                "loadgen.generate_latency_p50_ms",
                &generates,
                50.0,
                strict,
            ),
        );
    }

    m.insert("trace.overhead_pct", out.trace_overhead() * 100.0);

    if let Some(r) = reconcile {
        let predicted: f64 = r
            .terms
            .iter()
            .map(|t| {
                t.count * unit_cost_s(t.probe, m[t.probe])
                    / if t.parallel { r.workers } else { 1.0 }
            })
            .sum();
        m.insert("reconcile.ratio", predicted / r.wall_s);
    }
    m
}

fn run_workload(args: &Args) -> i32 {
    astro_telemetry::log::set_level(astro_telemetry::log::Level::Quiet);
    let started = Instant::now();
    let mut rec = Recorder::new(args.trace);
    let (mut out, reconcile) = match args.workload.as_str() {
        "token_shared" => offline::token_shared(args, &mut rec),
        "instruct_generate" => offline::instruct_generate(args, &mut rec),
        "sched_closed8" => (sched::sched_closed8(args, &mut rec), None),
        "sched_open" => (sched::sched_open(args, &mut rec), None),
        "gateway_thrash" => (
            serving::run(serving::Topology::Single, args, &mut rec),
            None,
        ),
        _ => (
            serving::run(serving::Topology::Cluster, args, &mut rec),
            None,
        ),
    };

    // Per-layer first: it drains the workload's own layer metrics.
    let layers = args.trace.then(|| per_layer(args, &mut out, reconcile));
    let e2e = (!args.trace || args.smoke).then(|| end_to_end(args, &mut out));
    if args.trace {
        let path = args.out_dir.join(format!("trace.{}.jsonl", args.workload));
        if let Err(e) = rec.write_jsonl(&path) {
            out.broken.push(format!("{}: {e}", path.display()));
        }
        for (name, us) in rec.self_time_by_name() {
            eprintln!("  self time {name:<28} {:>10.3} ms", us / 1e3);
        }
    }

    // A layer a workload does not exercise reads 0.
    let mut tabulate = |table: Vec<(&'static str, &'static str)>,
                        values: &BTreeMap<&'static str, f64>|
     -> Vec<(&'static str, &'static str, f64)> {
        table
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    out.broken.push(format!("{name} is not finite"));
                }
                (name, unit, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    };
    let layers =
        layers.map(|v| tabulate(report::PER_LAYER.iter().map(|m| (m.0, m.1)).collect(), &v));
    let e2e = e2e.map(|v| tabulate(report::END_TO_END.iter().map(|m| (m.0, m.1)).collect(), &v));

    eprintln!(
        "{} seed {} seconds {} trace {}: {} repetitions, {} attempted, {} failed, {:.1} s in all",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.reps.len(),
        out.attempted,
        out.failed,
        started.elapsed().as_secs_f64()
    );
    let rates: Vec<String> = out
        .reps
        .iter()
        .map(|r| format!("{:.2}", r.ops as f64 / r.wall_s))
        .collect();
    eprintln!(
        "  operations/s by repetition: {} (kept for latency: {:?})",
        rates.join(" "),
        out.kept_reps()
    );
    for (name, unit, v) in layers.iter().chain(e2e.iter()).flatten() {
        eprintln!("  {name:<40} {v:>16.4} {unit}");
    }
    for b in &out.broken {
        eprintln!("  BROKEN: {b}");
    }
    let correct = out.failed == 0 && out.broken.is_empty();
    let line = |metrics: &[(&str, &str, f64)]| {
        report::result_json(correct, out.attempted.max(1), out.failed, metrics)
    };
    match (&e2e, &layers) {
        // A smoke run carries both metric sets in one run-set line.
        (Some(e2e), Some(layers)) => {
            println!(
                "{{\"workload\": \"{}\", \"result\": {}, \"layers\": {}}}",
                args.workload,
                line(e2e),
                line(layers)
            )
        }
        (Some(metrics), None) | (None, Some(metrics)) => println!("{}", line(metrics)),
        (None, None) => unreachable!("one metric set is always computed"),
    }
    i32::from(!correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tool = |r: Result<String, String>| match r {
        Ok(text) => {
            println!("{text}");
            0
        }
        Err(text) => {
            eprintln!("{text}");
            1
        }
    };
    let code = match argv
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["manifest"] => {
            print!("{}", report::manifest_json(RUN_SECONDS));
            0
        }
        ["workloads"] => {
            println!("{}", workload_names().join("\n"));
            0
        }
        ["check", manifest, results] => tool(report::check(manifest, results)),
        ["compare", manifest, a, b] => tool(report::compare(manifest, a, b)),
        _ => run_workload(&parse_args(&argv)),
    };
    std::process::exit(code);
}
