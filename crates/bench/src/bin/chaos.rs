//! Chaos smoke: sweep one injected fault per fault site through the
//! resumable study pipeline and assert that nothing escapes as a panic
//! and nothing perturbs the scores.
//!
//! ```sh
//! cargo run --release -p astro-bench --bin chaos -- [micro|smoke|fast|full] [seed]
//! ```
//!
//! For every site in [`astro_resilience::SITES`] the run arms a one-shot
//! [`FaultPlan`], executes `Study::run_study` into a fresh directory
//! under `catch_unwind`, and classifies the outcome:
//!
//! * **absorbed** — the run completed despite the fault (degraded pool,
//!   uncached cache-full retry, eval retry); the result must be bitwise
//!   identical to the uninterrupted baseline.
//! * **typed + resumed** — the fault surfaced as a typed `StudyError`;
//!   a fault-free resume over the same ledger must then complete and be
//!   bitwise identical to the baseline.
//! * **panic** — always a violation; the bin exits non-zero.
//!
//! Results land in `BENCH_chaos.json`. CI runs this at the micro preset
//! as its chaos smoke step; docs/RESILIENCE.md documents the fault
//! sites and the determinism-after-resume argument this bin enforces.

use astro_bench::{instrumented_run, JsonObject};
use astro_resilience::fault::{self, FaultPlan};
use astro_resilience::SITES;
use astro_telemetry::info;
use astromlab::study::StudyResult;
use astromlab::Study;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// One deterministic hit count per site, spread so the faults land in
/// different pipeline phases (early training, mid-run, deep eval). The
/// gateway.* sites are exercised separately by `gateway_load` and the
/// gateway integration tests, the poison/admit sites by their dedicated
/// suites, the replica.*/router.* sites by `cluster_load` and the
/// cluster chaos sweep, and quant.spec_reject_storm by the
/// spec-equivalence suite; here their plans must simply never fire.
const HITS: [u64; 15] = [3, 1, 5, 2, 7, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1];

fn score_bits(r: &StudyResult) -> Vec<[Option<u64>; 3]> {
    r.scores.iter().map(|(_, s)| s.map(|v| v.map(f64::to_bits))).collect()
}

fn identical(got: &StudyResult, want: &StudyResult) -> bool {
    got.figure1_csv == want.figure1_csv && score_bits(got) == score_bits(want)
}

fn fresh_dir(site: &str) -> PathBuf {
    let slug = site.replace('.', "-");
    let dir = std::env::temp_dir().join(format!("astro-chaos-bin-{}-{slug}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let (config, mut run) = instrumented_run("chaos");
    let seed = config.seed;
    let study = Study::prepare(config).expect("prepare");
    fault::clear();
    info!("chaos: computing uninterrupted baseline");
    let baseline = study.run_table1().expect("fault-free baseline");

    assert_eq!(HITS.len(), SITES.len(), "one planned hit per fault site");
    let mut site_reports = Vec::new();
    let mut violations = Vec::new();
    for (site, &hit) in SITES.iter().zip(HITS.iter()) {
        let dir = fresh_dir(site);
        fault::install(FaultPlan::single(site, hit));
        let outcome = catch_unwind(AssertUnwindSafe(|| study.run_study(&dir)));
        fault::clear();
        let outcome = match outcome {
            Ok(o) => o,
            Err(_) => {
                violations.push(format!("{site}@{hit}: escaped as a panic"));
                site_reports.push((site, hit, "PANIC".to_string()));
                continue;
            }
        };
        let label = match outcome {
            Ok(r) if identical(&r, &baseline) => "absorbed".to_string(),
            Ok(_) => {
                violations.push(format!("{site}@{hit}: absorbed but scores diverged"));
                "DIVERGED".to_string()
            }
            Err(err) => match study.run_study(&dir) {
                Ok(r) if identical(&r, &baseline) => format!("typed({err}) + resumed"),
                Ok(_) => {
                    violations.push(format!("{site}@{hit}: resume diverged after {err}"));
                    "RESUME-DIVERGED".to_string()
                }
                Err(e) => {
                    violations.push(format!("{site}@{hit}: resume failed after {err}: {e}"));
                    "RESUME-FAILED".to_string()
                }
            },
        };
        info!("chaos: {site}@{hit}: {label}");
        site_reports.push((site, hit, label));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let sites_json: Vec<String> = site_reports
        .iter()
        .map(|(site, hit, label)| {
            let mut o = JsonObject::new();
            o.str("site", site).num("hit", *hit as f64).str("outcome", label);
            o.finish()
        })
        .collect();
    let mut obj = JsonObject::new();
    obj.str("bench", "chaos")
        .str(
            "preset",
            &std::env::args().nth(1).unwrap_or_else(|| "fast".into()),
        )
        .num("seed", seed as f64)
        .num("n_sites", SITES.len() as f64)
        .num("violations", violations.len() as f64)
        .raw("sites", &format!("[{}]", sites_json.join(",")));
    let json = obj.finish();
    if let Err(e) = astromlab::eval::json::Json::parse(&json) {
        info!("chaos: emitted invalid JSON ({e:?})");
        std::process::exit(1);
    }
    match std::fs::write("BENCH_chaos.json", &json) {
        Ok(()) => run.add("bench_json", "BENCH_chaos.json"),
        Err(e) => info!("BENCH_chaos.json not written: {e}"),
    }
    run.add("violations", &violations.len().to_string());
    run.finish();

    if !violations.is_empty() {
        for v in &violations {
            info!("chaos: FAIL: {v}");
        }
        std::process::exit(1);
    }
    info!("chaos: OK ({} fault sites, 0 violations)", SITES.len());
}
