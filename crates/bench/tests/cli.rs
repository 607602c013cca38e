//! The `astro-bench` binary at its argument surface.
//!
//! `trace` reads back what the telemetry emitter writes: `phases` and
//! `chrome` succeed on a ring dump and the Chrome export validates; a file
//! with no trace events is exit 1. Every malformed argument is exit 2
//! with one usage line, before any training. A second `table1` in the
//! same working directory resumes every stage from `runs/<preset>-<seed>`
//! and prints the same bytes.

use astro_telemetry::trace;
use astromlab::eval::json::Json;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_astro-bench");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run astro-bench")
}

/// Exit 2 with exactly one `usage: astro-bench ...` line on stderr and
/// nothing on stdout.
fn assert_usage(args: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("usage: astro-bench "), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn phases_and_chrome_round_trip_a_ring_dump_and_reject_a_traceless_file() {
    let dir = std::env::temp_dir().join(format!("astro_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let jsonl = dir.join("traces.jsonl");
    let chrome = dir.join("trace_chrome.json");

    trace::reset();
    for status in [200, 503] {
        let id = trace::mint();
        trace::start(id, "gateway./v1/score", None, astro_telemetry::elapsed_us());
        for name in ["recv", "queue_wait", "write"] {
            trace::phase_since_last(id, name);
        }
        trace::finish(id, status);
    }
    assert_eq!(trace::write_ring_jsonl(&jsonl).expect("write ring"), 2);

    let phases =
        Command::new(BIN).arg("trace").arg("phases").arg(&jsonl).output().expect("run phases");
    assert!(phases.status.success(), "{}", String::from_utf8_lossy(&phases.stderr));
    assert!(String::from_utf8_lossy(&phases.stdout).contains("queue_wait"));

    let export = Command::new(BIN)
        .arg("trace")
        .arg("chrome")
        .arg(&jsonl)
        .arg(&chrome)
        .output()
        .expect("run chrome");
    assert!(export.status.success(), "{}", String::from_utf8_lossy(&export.stderr));
    let traces =
        astro_bench::trace::parse_jsonl(&std::fs::read_to_string(&jsonl).expect("jsonl")).traces;
    let written = std::fs::read_to_string(&chrome).expect("chrome file");
    let events = astro_bench::trace::validate_chrome_json(&written, &traces)
        .expect("chrome file validates");
    assert!(events >= traces.len());

    std::fs::write(&jsonl, "{\"event\":\"span\",\"t_us\":1}\n").expect("overwrite");
    let empty = Command::new(BIN)
        .arg("trace")
        .arg("phases")
        .arg(&jsonl)
        .output()
        .expect("run on no traces");
    assert_eq!(empty.status.code(), Some(1), "{}", String::from_utf8_lossy(&empty.stderr));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_arguments_exit_2_with_one_usage_line() {
    assert_usage(&[]);
    assert_usage(&["table2"]);
    assert_usage(&["table1", "bogus"]);
    assert_usage(&["costs", "smoke", "42", "extra"]);
    assert_usage(&["ablation", "sft"]);
    assert_usage(&["ablation", "eval-method", "smoke", "x"]);
    assert_usage(&["trace", "phases"]);
    assert_usage(&["trace", "waterfall", "traces.jsonl", "ten"]);
    assert_usage(&["trace", "phases", "traces.jsonl", "extra"]);
}

#[test]
fn a_bad_seed_exits_2_before_any_training() {
    let t0 = Instant::now();
    assert_usage(&["table1", "smoke", "4x2"]);
    assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
}

#[test]
fn a_second_table1_run_resumes_every_stage_and_prints_the_same_bytes() {
    let dir = std::env::temp_dir().join(format!("astro_table1_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let table1 = || {
        let out = Command::new(BIN)
            .args(["table1", "micro", "11"])
            .current_dir(&dir)
            .env("ASTRO_LOG", "quiet")
            .output()
            .expect("run table1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let first = table1();
    assert_eq!(first, table1());

    let bench = std::fs::read_to_string(dir.join("BENCH_table1.json")).expect("BENCH_table1.json");
    let bench = Json::parse(&bench).expect("BENCH_table1.json parses");
    let field = |k: &str| {
        bench
            .get(k)
            .cloned()
            .unwrap_or_else(|| panic!("no {k}: {bench:?}"))
    };
    assert_eq!(field("run_dir").as_str(), Some("runs/micro-11"));
    // 3 natives + 5 CPT + 7 SFT checkpoints + 22 score cells.
    assert_eq!(field("stages_resumed"), Json::Number(37.0));
    assert!(matches!(field("train_secs"), Json::Number(s) if s.to_bits() == 0), "{bench:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
