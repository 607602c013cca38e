//! Run the astro-check concurrency suite and record exploration stats.
//!
//! ```sh
//! cargo run --release -p astro-bench --bin check_explore
//! RUSTFLAGS="--cfg astro_check" cargo run -p astro-bench --bin check_explore
//! ```
//!
//! Three sections, all deterministic:
//!
//! 1. **models** — exhaustive exploration (preemption bound 2) of the
//!    reference protocol models in `astro_check::models`; any violation
//!    is a build-stopping failure.
//! 2. **mutants** — the seeded protocol bugs (dropped notify, wait-`if`,
//!    skipped drain handshake) must each produce a violation; every
//!    counterexample schedule is written to `counterexamples/<name>.jsonl`
//!    and re-verified by replay.
//! 3. **harnesses** (only under `--cfg astro_check`) — the real
//!    `BoundedQueue` protocol explored through the `astro_telemetry::sync`
//!    shim.
//!
//! Results (explored/pruned schedule counts, max steps, mutant verdicts)
//! land in `BENCH_check.json`. Exits non-zero if a correct protocol
//! fails, a mutant escapes detection, or a counterexample fails to
//! replay.

use astro_bench::JsonObject;
use astro_check::models::{self, QueueMutant};
use astro_check::{explore, replay, CheckConfig, Report, Schedule, ViolationKind};
use std::path::Path;

struct Failures(u32);

impl Failures {
    fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            println!("  FAIL: {what}");
            self.0 += 1;
        }
    }
}

fn report_json(name: &str, r: &Report) -> String {
    let mut o = JsonObject::new();
    o.str("name", name)
        .num("schedules", r.schedules as f64)
        .num("pruned", r.pruned as f64)
        .num("max_steps", r.max_steps_seen as f64)
        .str(
            "violation",
            r.violation.as_ref().map(|v| v.kind.label()).unwrap_or(""),
        );
    o.finish()
}

/// Explore a correct protocol: must pass, exhaustively.
fn run_correct<F>(name: &str, fails: &mut Failures, rows: &mut Vec<String>, model: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let r = explore(&CheckConfig::default(), model);
    fails.check(
        r.ok() && !r.truncated && r.schedules > 0,
        &format!("{name}: {} schedules, {} pruned, ok", r.schedules, r.pruned),
    );
    rows.push(report_json(name, &r));
}

/// Explore a seeded mutant: must produce a violation of `expect` kind
/// whose counterexample replays to the same verdict.
fn run_mutant<F, G>(
    name: &str,
    expect: ViolationKind,
    fails: &mut Failures,
    rows: &mut Vec<String>,
    model: F,
    remake: G,
) where
    F: Fn() + Send + Sync + 'static,
    G: Fn() + Send + Sync + 'static,
{
    let r = explore(&CheckConfig::default(), model);
    let (caught, replayed, steps) = match &r.violation {
        Some(v) if v.kind == expect => {
            let path = Path::new("counterexamples").join(format!("{name}.jsonl"));
            let dumped = astro_check::dump_counterexample(&r, &path).unwrap_or(false);
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let sched = Schedule::from_jsonl(&text);
            let replay_ok = match &sched {
                Some(s) => replay(&CheckConfig::default(), s, remake)
                    .violation
                    .map(|rv| rv.kind == expect)
                    .unwrap_or(false),
                None => false,
            };
            (true, dumped && replay_ok, v.schedule.steps.len())
        }
        _ => (false, false, 0),
    };
    fails.check(
        caught && replayed,
        &format!(
            "mutant {name}: caught={caught} ({:?} expected), counterexample replays={replayed}, {steps} steps",
            expect
        ),
    );
    let mut o = JsonObject::new();
    o.str("name", name)
        .num("schedules_to_violation", r.executions() as f64)
        .str("expected", expect.label())
        .str(
            "got",
            r.violation.as_ref().map(|v| v.kind.label()).unwrap_or(""),
        )
        .raw("caught", if caught { "true" } else { "false" })
        .raw("replayed", if replayed { "true" } else { "false" })
        .num("counterexample_steps", steps as f64);
    rows.push(o.finish());
}

#[cfg(astro_check)]
fn run_harnesses(fails: &mut Failures, rows: &mut Vec<String>) {
    use astro_gateway::queue::{BoundedQueue, Pop};
    use astro_telemetry::sync::thread;
    use std::sync::Arc;

    run_correct("harness.gateway_queue", fails, rows, || {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            let mut accepted = 0u32;
            for v in 1..=2u32 {
                if q2.try_push(v).is_ok() {
                    accepted += 1;
                }
            }
            q2.close();
            accepted
        });
        let mut drained = 0u32;
        loop {
            match q.pop(None) {
                Pop::Item(_) => drained += 1,
                Pop::Closed => break,
                Pop::TimedOut => {}
            }
        }
        let accepted = producer.join().unwrap_or(0);
        assert_eq!(drained, accepted, "drain lost accepted items");
    });
}

#[cfg(not(astro_check))]
fn run_harnesses(_fails: &mut Failures, rows: &mut Vec<String>) {
    println!("  (real-protocol harnesses need RUSTFLAGS=\"--cfg astro_check\"; skipped)");
    let mut o = JsonObject::new();
    o.str("name", "harnesses").str("skipped", "build without --cfg astro_check");
    rows.push(o.finish());
}

fn main() {
    let mut fails = Failures(0);
    let mut correct_rows: Vec<String> = Vec::new();
    let mut mutant_rows: Vec<String> = Vec::new();

    println!("== correct protocols (exhaustive, preemption bound 2) ==");
    run_correct("model.counter", &mut fails, &mut correct_rows, models::counter_model(2));
    run_correct(
        "model.bounded_queue",
        &mut fails,
        &mut correct_rows,
        models::bounded_queue_model(QueueMutant::Correct),
    );

    println!("== seeded mutants (each must yield a replayable counterexample) ==");
    run_mutant(
        "queue_drop_notify",
        ViolationKind::Deadlock,
        &mut fails,
        &mut mutant_rows,
        models::bounded_queue_model(QueueMutant::DropNotifyOnClose),
        models::bounded_queue_model(QueueMutant::DropNotifyOnClose),
    );
    run_mutant(
        "queue_wait_if",
        ViolationKind::Panic,
        &mut fails,
        &mut mutant_rows,
        models::bounded_queue_model(QueueMutant::WaitIfInsteadOfWhile),
        models::bounded_queue_model(QueueMutant::WaitIfInsteadOfWhile),
    );
    run_mutant(
        "queue_skip_drain",
        ViolationKind::Panic,
        &mut fails,
        &mut mutant_rows,
        models::bounded_queue_model(QueueMutant::SkipDrain),
        models::bounded_queue_model(QueueMutant::SkipDrain),
    );

    println!("== real-protocol harnesses ==");
    let mut harness_rows: Vec<String> = Vec::new();
    run_harnesses(&mut fails, &mut harness_rows);

    let mut root = JsonObject::new();
    root.str("bench", "check_explore")
        .num("preemption_bound", CheckConfig::default().preemption_bound as f64)
        .raw(
            "shim_active",
            if cfg!(astro_check) { "true" } else { "false" },
        )
        .raw("correct", &format!("[{}]", correct_rows.join(",")))
        .raw("mutants", &format!("[{}]", mutant_rows.join(",")))
        .raw("harnesses", &format!("[{}]", harness_rows.join(",")))
        .num("failures", fails.0 as f64);
    let json = root.finish();
    if let Err(e) = std::fs::write("BENCH_check.json", &json) {
        println!("FAIL: could not write BENCH_check.json: {e}");
        fails.0 += 1;
    }
    println!("wrote BENCH_check.json");

    if fails.0 > 0 {
        println!("check_explore: {} failure(s)", fails.0);
        std::process::exit(1);
    }
    println!("check_explore: all checks passed");
}
