//! `table1` — regenerate **Table I** and **Figure 1** from one study run:
//! the eight LLaMA/AstroLLaMA models under the three benchmarking methods,
//! with ↑/↓/⇒ arrows against each series' native baseline (E1), the
//! §VI value analysis (E4), then the same scores as Figure 1 — ASCII chart
//! with native full-instruct baselines and the flagship-oracle context
//! lines (E2). The scores behind every cell are the `"kind":"score"` lines
//! of the run ledger, one outcome per question.
//!
//! ```sh
//! cargo run --release -p astro-bench -- table1 [micro|smoke|fast|full] [seed]
//! ```
//! Default preset: `fast` (minutes on one core). The run is fully
//! deterministic in the seed. Alongside the measured table and figure,
//! the paper's published numbers are printed through the same renderers
//! for shape comparison; see EXPERIMENTS.md for the recorded analysis.
//!
//! The study runs crash-safe in `runs/<preset>-<seed>`: every trained
//! model is a checkpoint there and every stage a line of its
//! `ledger.jsonl`, so re-running the same command resumes (a complete
//! directory re-prints the same stdout without training, so a complete
//! run directory is its own report). A ledger from another config or build
//! exits 1 naming the directory to remove.
//!
//! Outputs (working directory): `telemetry.jsonl`, `run_manifest.json`,
//! and the machine-readable `BENCH_table1.json` (scores and their 95 %
//! Wilson intervals + stage wall times + tokens/sec, the run
//! directory and how many of its stages were resumed rather than run) that
//! future performance PRs diff against.

use crate::{instrumented_run, or_exit, JsonObject};
use astro_telemetry::info;
use astromlab::eval::report::{render_figure1, render_table1, score_range, ModelRow};
use astromlab::eval::value::{summarize_gain, FLAGSHIP_SCORES};
use astromlab::eval::{FlagshipOracle, Method, Score};
use astromlab::prng::Rng;
use astromlab::study::{build_rows, StudyResult};
use astromlab::{ModelId, Study};
use std::path::Path;

/// Run the study, print Table I and Figure 1, write `BENCH_table1.json`.
pub fn main(args: &[String]) {
    let (config, mut run) = instrumented_run("table1", "table1", args);
    let start = std::time::Instant::now();
    let study = Study::prepare(config).expect("prepare");
    info!(
        "world: {} articles / {} facts | benchmark: {} MCQs | eval subset: {}",
        study.world.articles.len(),
        study.world.facts.len(),
        study.mcq.len(),
        study.config.n_eval_questions
    );
    let dir = run.run_dir();
    info!(
        "3 natives + 5 CPT variants + 7 instruct models + 22 score cells in {} ...",
        dir.display()
    );
    let result = or_exit(study.run_study(&dir), &dir);
    let rows = result.rows();

    println!("\n=== Table I (measured, this reproduction) ===\n");
    println!("{}", render_table1(&rows));

    println!("=== Table I (paper, for shape comparison) ===\n");
    let paper_scores: Vec<(ModelId, [Option<f64>; 3])> = ModelId::all()
        .iter()
        .map(|&id| (id, id.paper_scores()))
        .collect();
    let paper = build_rows(&paper_scores);
    println!("{}", render_table1(&paper));

    // §VI analysis: the 70B gain in cost-efficiency terms.
    if let (Some(cpt), Some(native)) = (
        result.score(ModelId::AstroLlama2_70bAic, Method::TokenBase),
        result.score(ModelId::Llama2_70b, Method::TokenBase),
    ) {
        let v = summarize_gain(cpt, native);
        println!(
            "70B-class CPT gain (token base): {:+.1} points → implied value ratio {:.2}x \
             (paper: +{:.1} points → ~4x)",
            v.delta_points, v.value_multiplier, v.paper_gain
        );
    }
    println!("\nflagship context (paper §VI): ");
    for (name, score) in FLAGSHIP_SCORES {
        println!("  {name:<22} {score:.1}%");
    }

    // Each cell's 95 % Wilson interval, in percent.
    let mut intervals = Vec::new();
    println!("\nscore [95 % Wilson interval]:");
    println!("  {:<34} {:>19} {:>19} {:>19}", "", "full instruct", "token instr.", "token base");
    for (id, cells) in &result.scores {
        let ci = cells.each_ref().map(|s| s.as_ref().map(Score::ci95));
        let cell = |i: usize| match (&cells[i], ci[i]) {
            (Some(s), Some((lo, hi))) => format!("{:.1} [{lo:.1}, {hi:.1}]", s.percent()),
            _ => "—".to_string(),
        };
        println!("  {:<34} {:>19} {:>19} {:>19}", id.name(), cell(0), cell(1), cell(2));
        intervals.push((*id, ci.map(|ci| ci.map(|(lo, hi)| format!("[{lo},{hi}]")))));
    }

    println!("\nfull-instruct extraction, % of questions (json/pattern/interpreter/failed):");
    for (id, cells) in &result.scores {
        let Some(s) = &cells[0] else { continue };
        let pct = |n: usize| 100.0 * n as f64 / s.total() as f64;
        let extracted = s.outcomes.iter().filter(|o| o.chosen.is_some()).count();
        let among = match extracted {
            0 => "—".to_string(),
            n => format!("{:.0}%", 100.0 * s.correct() as f64 / n as f64),
        };
        let ([j, p, i, f], none) = (s.stages().map(pct), pct(s.total() - extracted));
        let shares = format!("{:<34} {j:.0}/{p:.0}/{i:.0}/{f:.0}", id.name());
        println!("  {shares} | accuracy among extracted {among} | unextractable {none:.0}%");
    }

    let wall = start.elapsed().as_secs_f64();
    let json = bench_table1_json(&result, &cells_json(&intervals), wall, &dir);
    run.write_bench_json("BENCH_table1.json", &json);
    println!();
    print_figure1(&study, &rows, &paper);
    run.finish();
}

/// Figure 1 from the measured rows: the flagship oracles (paper §VI —
/// noisy calibrated answerers) scored on the same evaluation subset, the
/// measured chart, and the paper's scores through the same renderer.
fn print_figure1(study: &Study, rows: &[ModelRow], paper: &[ModelRow]) {
    let questions = study.eval_questions();
    let mut orng = Rng::seed_from(study.config.seed).substream("flagship-oracles");
    println!("\nflagship oracles on this benchmark subset:");
    for oracle in FlagshipOracle::paper_flagships() {
        println!(
            "  {:<22} calibrated {:.1}% → measured {:.1}%",
            oracle.name,
            oracle.accuracy * 100.0,
            oracle.score(&questions, &mut orng)
        );
    }

    println!("\n=== Figure 1 (measured, this reproduction) ===\n");
    let (lo, hi) = score_range(rows);
    println!("{}", render_figure1(rows, lo, hi));

    println!("=== Figure 1 (paper scores, same renderer) ===\n");
    println!("{}", render_figure1(paper, 38.0, 80.0));
}

/// Per-model cells as `{model: {method: value or null}}`, each value
/// already serialised.
fn cells_json(cells: &[(ModelId, [Option<String>; 3])]) -> String {
    let mut out = String::from("{");
    for (id, s) in cells {
        let mut o = JsonObject::new();
        for (method, v) in Method::all().iter().zip(s) {
            o.raw(method.key(), v.as_deref().unwrap_or("null"));
        }
        if out.len() > 1 {
            out.push(',');
        }
        astro_telemetry::event::write_json_string(&mut out, id.name());
        out.push(':');
        out.push_str(&o.finish());
    }
    out.push('}');
    out
}

/// Serialise scores, their 95 % Wilson intervals (`ci95`, `[lo, hi]`
/// cells rendered by [`cells_json`]), per-stage wall times and training
/// throughput into the JSON subset the in-repo parser reads.
/// `stages_resumed` counts the stages replayed from `run_dir` (37 when it
/// was complete), so a resumed run's wall time is never read as a fresh
/// one.
fn bench_table1_json(result: &StudyResult, ci95: &str, wall_secs: f64, run_dir: &Path) -> String {
    let score = |id: &ModelId| Method::all().map(|m| result.score(*id, m).map(|v| v.to_string()));
    let scores: Vec<_> = result.scores.iter().map(|(id, _)| (*id, score(id))).collect();

    // Stage wall times: aggregate closed spans by name (seconds).
    let mut stages = JsonObject::new();
    let spans = astro_telemetry::span::snapshot();
    let mut by_name: Vec<(String, f64)> = Vec::new();
    for s in &spans {
        if s.end_us.is_none() {
            continue;
        }
        let secs = s.duration_us() as f64 / 1e6;
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += secs,
            None => by_name.push((s.name.clone(), secs)),
        }
    }
    for (name, secs) in &by_name {
        stages.num(name, *secs);
    }

    let metrics = astro_telemetry::metrics::snapshot();
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let tokens = counter("train.tokens");
    // A fold from +0.0: an empty f64 `sum` is -0.0, written as `-0`.
    let train_secs = spans
        .iter()
        .filter(|s| s.name == "train" && s.end_us.is_some())
        .fold(0.0, |acc, s| acc + s.duration_us() as f64 / 1e6);

    let mut top = JsonObject::new();
    top.str("bench", "table1")
        .str("run_dir", &run_dir.display().to_string())
        .num("stages_resumed", counter("study.stages_resumed") as f64)
        .num("wall_secs", wall_secs)
        .num("train_tokens", tokens as f64)
        .num("train_secs", train_secs)
        .num(
            "tokens_per_sec",
            if train_secs > 0.0 { tokens as f64 / train_secs } else { 0.0 },
        )
        .raw("scores", &cells_json(&scores))
        .raw("ci95", ci95)
        .raw("stage_secs", &stages.finish());
    top.finish()
}
