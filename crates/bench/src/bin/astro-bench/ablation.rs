//! `ablation` — the four ablations of `astromlab::ablations`, one table
//! row each:
//!
//! * **A1 `data-quality`** — CPT data quality (clean vs LaTeX-artefact vs
//!   heavy OCR vs OCR + Nougat cleaning): the paper's claim that
//!   high-quality, information-dense CPT tokens are critical (§VI, and the
//!   motivation for the Summary recipe and the Nougat OCR effort of §III).
//! * **A2 `sft-mixture`** — SFT astronomy fraction and dataset size: the
//!   paper's conclusion that "the current SFT dataset ... is insufficient"
//!   and that content mix, not just size, drives the instruct-model
//!   degradation (§VI).
//! * **A3 `scale`** — native vs CPT'd token-base scores per capacity tier:
//!   the paper's central contrast (7B forgets, 70B gains) as a single
//!   controlled experiment.
//! * **A4 `eval-method`** — the evaluation-method options of Appendix C:
//!   two-shot vs zero-shot prompting and dynamic answer-token-variant
//!   detection on/off.
//!
//! ```sh
//! cargo run --release -p astro-bench -- ablation <data-quality|sft-mixture|scale|eval-method> [micro|smoke|fast|full] [seed]
//! ```
//!
//! The zoo models an ablation starts from (A3: their scores) come from
//! `table1`'s run directory, `runs/<preset>-<seed>`; A1 and A2 train
//! only their variants.

use crate::{instrumented_run, or_exit, usage, PRESET_ARGS};
use astro_telemetry::info;
use astromlab::ablations::{
    ablation_data_quality, ablation_eval_method, ablation_scale, ablation_sft_mixture,
    render_ablation, AblationPoint,
};
use astromlab::{RunDir, Study, StudyError};

const CMD: &str = "ablation <data-quality|sft-mixture|scale|eval-method>";

/// One ablation: how to run it and how to report it.
struct Ablation {
    /// Subcommand argument; the run is named `ablation_<name>` with `_`
    /// for `-`.
    name: &'static str,
    run: fn(&mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError>,
    progress: &'static str,
    title: &'static str,
    secondary: Option<&'static str>,
    /// Print each point's secondary − primary as a CPT delta.
    deltas: bool,
    expected: &'static str,
}

const ABLATIONS: [Ablation; 4] = [
    Ablation {
        name: "data-quality",
        run: ablation_data_quality,
        progress: "CPT'ing the 8B-class native through 4 noise channels ...",
        title: "A1: token-base score after CPT on AIC content by data quality",
        secondary: None,
        deltas: false,
        expected: "expected shape: clean ≥ latex-artifacts ≥ heavy-ocr, with nougat cleaning \
                   recovering part of the heavy-ocr gap.",
    },
    Ablation {
        name: "sft-mixture",
        run: ablation_sft_mixture,
        progress: "SFT'ing the 8B-class AIC model under 4 mixtures ...",
        title: "A2: full-instruct score by SFT mixture (secondary: token-instruct)",
        secondary: Some("token-instruct"),
        deltas: false,
        expected: "expected shape: astronomy-focused mixtures preserve full-instruct ability best; \
                   the paper's 1/3-astro mixture sits between the extremes; shrinking the set hurts.",
    },
    Ablation {
        name: "scale",
        run: ablation_scale,
        progress: "scoring the three natives and their AIC models ...",
        title: "A3: token-base score, native (primary) vs CPT-AIC (secondary), by capacity tier",
        secondary: Some("after CPT"),
        deltas: true,
        expected: "\nexpected shape (paper): 7B-class delta negative (catastrophic forgetting), \
                   8B-class ≈ neutral, 70B-class positive (+2.1 in the paper).",
    },
    Ablation {
        name: "eval-method",
        run: ablation_eval_method,
        progress: "evaluating the 8B-class native under 4 token-method settings ...",
        title: "A4: token-base score by evaluation-method options (8B-class native)",
        secondary: None,
        deltas: false,
        expected: "expected shape: two-shot ≥ zero-shot (the examples 'give the model a clear \
                   pattern to follow'), and variant detection ≥ bare letters.",
    },
];

/// Run the named ablation and print its table and expected shape.
pub fn main(args: &[String]) {
    let Some(a) = args.first().and_then(|n| ABLATIONS.iter().find(|a| a.name == n)) else {
        usage(&format!("{CMD} {PRESET_ARGS}"))
    };
    let binary = format!("ablation_{}", a.name.replace('-', "_"));
    let (config, run) = instrumented_run(&binary, CMD, &args[1..]);
    let study = Study::prepare(config).expect("prepare");
    let dir = run.run_dir();
    let mut zoo = or_exit(study.open_run(&dir), &dir);
    info!("{}", a.progress);
    let points = or_exit((a.run)(&mut zoo), &dir);
    println!("\n{}", render_ablation(a.title, &points, a.secondary));
    if a.deltas {
        for p in &points {
            let delta = p.secondary - p.score;
            println!("  {:<14} CPT delta: {delta:+.1} points", p.label);
        }
    }
    println!("{}", a.expected);
    run.finish();
}
