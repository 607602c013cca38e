//! Bench-regression gate: compare the machine-portable metrics of a
//! fresh bench run against committed baselines.
//!
//! ```sh
//! cargo run --release -p astro-bench --bin bench_regression -- \
//!     [--current DIR] [--baseline DIR]
//! ```
//!
//! Reads `BENCH_gateway.json`, `BENCH_eval_throughput.json`,
//! `BENCH_cluster.json` and `BENCH_kernels.json` from the current
//! directory (or `--current`) and
//! their `.baseline.json` counterparts from `goldens/` (or
//! `--baseline`). Only **relative** metrics are compared — speedups,
//! ratios, overhead percentages and boolean contracts — never absolute
//! req/sec, so the gate holds across machines of different raw speed:
//!
//! * batched-vs-serial `speedup` may not regress more than 10% below its
//!   baseline (both benches);
//! * the mixed-load `mixed_score_p95_improvement` (iteration scheduler
//!   vs coalescing, score tail latency) and `mixed_throughput_ratio` may
//!   not regress more than 10% below their baselines;
//! * `trace_overhead_pct` must stay under the 2% tracing budget;
//! * `phase_sum_ratio_{min,max}` must stay within the tiling band;
//! * `parity` must remain `bitwise` and `drain_clean` true;
//! * `prefix_hit_rate` may not regress more than 10% below baseline;
//! * cluster `scaling_2x`/`scaling_4x` must stay at or above the
//!   committed floors (absolute ratios, zero tolerance — the baseline
//!   records floors, not measurements), with zero lost requests in both
//!   chaos phases and cluster-wide bitwise parity;
//! * kernels `int8_speedup_s70b`, `e2e_spec_speedup` and
//!   `spec_acceptance_rate` must stay at or above their committed floors
//!   (also absolute), and greedy speculative output must remain
//!   bitwise-identical to the plain int8 path.
//!
//! Missing current files fail the gate (the bench did not run); the
//! comparison report lands in `BENCH_regression.json` and the process
//! exits non-zero on any violation.
//!
//! When refreshing a baseline, record the conservative **floor** of
//! several quiet-machine runs in its `speedup` field, not a single
//! lucky run — micro-preset speedups swing ±25% run-to-run, and a
//! top-of-range baseline turns the 10% band into noise.

use astro_bench::JsonObject;
use astro_telemetry::info;
use astro_eval::json::Json;

struct Loaded {
    label: String,
    value: Json,
}

fn load(dir: &str, name: &str) -> Result<Loaded, String> {
    let path = format!("{dir}/{name}");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    Ok(Loaded { label: path, value })
}

fn num(doc: &Loaded, key: &str) -> Result<f64, String> {
    match doc.value.get(key) {
        Some(Json::Number(n)) => Ok(*n),
        Some(_) => Err(format!("{}: field {key:?} is not a number", doc.label)),
        None => Err(format!("{}: missing field {key:?}", doc.label)),
    }
}

fn text(doc: &Loaded, key: &str) -> Result<String, String> {
    doc.value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{}: missing string field {key:?}", doc.label))
}

/// `current` must be at least `1 - tolerance` of `baseline`.
fn check_floor(
    failures: &mut Vec<String>,
    bench: &str,
    key: &str,
    current: f64,
    baseline: f64,
    tolerance: f64,
) {
    let floor = baseline * (1.0 - tolerance);
    if current < floor {
        failures.push(format!(
            "{bench}: {key} regressed {current:.3} < {floor:.3} \
             (baseline {baseline:.3}, tolerance {:.0}%)",
            tolerance * 100.0
        ));
    } else {
        info!("bench_regression: {bench}: {key} {current:.3} vs baseline {baseline:.3} ok");
    }
}

fn gateway_checks(cur: &Loaded, base: &Loaded, failures: &mut Vec<String>) -> Result<(), String> {
    check_floor(failures, "gateway", "speedup", num(cur, "speedup")?, num(base, "speedup")?, 0.10);
    // Mixed-load headline of the iteration scheduler: score tail latency
    // must keep beating the coalescing path, and mixed throughput must
    // not collapse. Both are same-run ratios, hence machine-portable.
    check_floor(
        failures,
        "gateway",
        "mixed_score_p95_improvement",
        num(cur, "mixed_score_p95_improvement")?,
        num(base, "mixed_score_p95_improvement")?,
        0.10,
    );
    check_floor(
        failures,
        "gateway",
        "mixed_throughput_ratio",
        num(cur, "mixed_throughput_ratio")?,
        num(base, "mixed_throughput_ratio")?,
        0.10,
    );
    let overhead = num(cur, "trace_overhead_pct")?;
    // NaN must fail too, hence not a plain `>= 2.0`.
    if overhead >= 2.0 || overhead.is_nan() {
        failures.push(format!(
            "gateway: trace_overhead_pct {overhead:.3} exceeds the 2% tracing budget"
        ));
    }
    let ratio_min = num(cur, "phase_sum_ratio_min")?;
    let ratio_max = num(cur, "phase_sum_ratio_max")?;
    if !(0.95..=1.05).contains(&ratio_min) || !(0.95..=1.05).contains(&ratio_max) {
        failures.push(format!(
            "gateway: phase attribution ratio band {ratio_min:.3}..{ratio_max:.3} \
             outside 0.95..=1.05"
        ));
    }
    if text(cur, "parity")? != "bitwise" {
        failures.push("gateway: parity is no longer bitwise".to_string());
    }
    if !matches!(cur.value.get("drain_clean"), Some(Json::Bool(true))) {
        failures.push("gateway: drain_clean is not true".to_string());
    }
    Ok(())
}

fn eval_checks(cur: &Loaded, base: &Loaded, failures: &mut Vec<String>) -> Result<(), String> {
    check_floor(failures, "eval", "speedup", num(cur, "speedup")?, num(base, "speedup")?, 0.10);
    check_floor(
        failures,
        "eval",
        "prefix_hit_rate",
        num(cur, "prefix_hit_rate")?,
        num(base, "prefix_hit_rate")?,
        0.10,
    );
    if text(cur, "parity")? != "bitwise" {
        failures.push("eval: parity is no longer bitwise".to_string());
    }
    Ok(())
}

fn cluster_checks(cur: &Loaded, base: &Loaded, failures: &mut Vec<String>) -> Result<(), String> {
    // The baseline records *floors*, not measured ratios (see its note
    // for those), so the comparison is absolute: zero tolerance.
    check_floor(
        failures,
        "cluster",
        "scaling_2x",
        num(cur, "scaling_2x")?,
        num(base, "scaling_2x")?,
        0.0,
    );
    check_floor(
        failures,
        "cluster",
        "scaling_4x",
        num(cur, "scaling_4x")?,
        num(base, "scaling_4x")?,
        0.0,
    );
    if text(cur, "parity")? != "bitwise" {
        failures.push("cluster: parity is no longer bitwise".to_string());
    }
    for key in ["chaos_lost", "procs_lost"] {
        let lost = num(cur, key)?;
        if lost != 0.0 {
            failures.push(format!("cluster: {key} is {lost}, zero-loss contract broken"));
        }
    }
    for key in ["chaos_survivors_clean", "procs_ok"] {
        if !matches!(cur.value.get(key), Some(Json::Bool(true))) {
            failures.push(format!("cluster: {key} is not true"));
        }
    }
    Ok(())
}

fn kernels_checks(cur: &Loaded, base: &Loaded, failures: &mut Vec<String>) -> Result<(), String> {
    // The baseline records *floors* (see its note for the measured
    // values), so the comparison is absolute: zero tolerance.
    check_floor(
        failures,
        "kernels",
        "int8_speedup_s70b",
        num(cur, "int8_speedup_s70b")?,
        num(base, "int8_speedup_s70b")?,
        0.0,
    );
    check_floor(
        failures,
        "kernels",
        "e2e_spec_speedup",
        num(cur, "e2e_spec_speedup")?,
        num(base, "e2e_spec_speedup")?,
        0.0,
    );
    check_floor(
        failures,
        "kernels",
        "spec_acceptance_rate",
        num(cur, "spec_acceptance_rate")?,
        num(base, "spec_acceptance_rate")?,
        0.0,
    );
    if text(cur, "spec_parity")? != "bitwise" {
        failures.push(
            "kernels: greedy speculative output is no longer bitwise-identical \
             to the plain int8 path"
                .to_string(),
        );
    }
    Ok(())
}

fn arg_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let current_dir = arg_value(&args, "--current", ".");
    let baseline_dir = arg_value(&args, "--baseline", "goldens");

    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0u32;
    for (name, check) in [
        (
            "BENCH_gateway.json",
            gateway_checks as fn(&Loaded, &Loaded, &mut Vec<String>) -> Result<(), String>,
        ),
        ("BENCH_eval_throughput.json", eval_checks),
        ("BENCH_cluster.json", cluster_checks),
        ("BENCH_kernels.json", kernels_checks),
    ] {
        let baseline_name = name.replace(".json", ".baseline.json");
        let pair = load(&current_dir, name)
            .and_then(|cur| load(&baseline_dir, &baseline_name).map(|base| (cur, base)));
        match pair {
            Ok((cur, base)) => {
                compared += 1;
                if let Err(e) = check(&cur, &base, &mut failures) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
    }

    let mut obj = JsonObject::new();
    obj.str("bench", "bench_regression")
        .num("benches_compared", f64::from(compared))
        .num("violations", failures.len() as f64);
    let mut list = String::from("[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            list.push(',');
        }
        astro_telemetry::event::write_json_string(&mut list, f);
    }
    list.push(']');
    obj.raw("failures", &list);
    let json = obj.finish();
    if let Err(e) = std::fs::write("BENCH_regression.json", &json) {
        info!("BENCH_regression.json not written: {e}");
    }

    if failures.is_empty() {
        info!("bench_regression: OK ({compared} benches within tolerance)");
    } else {
        for f in &failures {
            info!("bench_regression: FAIL: {f}");
        }
        std::process::exit(1);
    }
}
