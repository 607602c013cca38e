//! `ablation` — the ablations of `astromlab::ablations`, one table row
//! each:
//!
//! * **A1 `data-quality`** — CPT data quality (clean vs LaTeX-artefact vs
//!   heavy OCR vs OCR + Nougat cleaning): the paper's claim that
//!   high-quality, information-dense CPT tokens are critical (§VI, and the
//!   motivation for the Summary recipe and the Nougat OCR effort of §III).
//! * **A2 `sft-mixture`** — SFT astronomy fraction and dataset size: the
//!   paper's conclusion that "the current SFT dataset ... is insufficient"
//!   and that content mix, not just size, drives the instruct-model
//!   degradation (§VI).
//! * **A4 `eval-method`** — the evaluation-method options of Appendix C:
//!   two-shot vs zero-shot prompting and dynamic answer-token-variant
//!   detection on/off.
//!
//! ```sh
//! cargo run --release -p astro-bench -- ablation <data-quality|sft-mixture|eval-method> [micro|smoke|fast|full] [seed]
//! ```
//!
//! Every model an ablation trains or starts from lives in `table1`'s run
//! directory, `runs/<preset>-<seed>`: A1's and A2's variants are
//! checkpointed and their scores ledgered there like Table I's models, so
//! a second run in the same directory trains nothing and prints the same
//! table. (A3, native vs CPT'd token-base score per tier, is Table I's
//! token-base column; `forgetting` shows the same contrast in loss space.)

use crate::{instrumented_run, or_exit, usage, PRESET_ARGS};
use astro_telemetry::info;
use astromlab::ablations::{
    ablation_data_quality, ablation_eval_method, ablation_sft_mixture, render_ablation,
    AblationPoint,
};
use astromlab::{RunDir, Study, StudyError};

const CMD: &str = "ablation <data-quality|sft-mixture|eval-method>";

/// One ablation: how to run it and how to report it.
struct Ablation {
    /// Subcommand argument; the run is named `ablation_<name>` with `_`
    /// for `-`.
    name: &'static str,
    run: fn(&mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError>,
    progress: &'static str,
    title: &'static str,
    secondary: Option<&'static str>,
    expected: &'static str,
}

const ABLATIONS: [Ablation; 3] = [
    Ablation {
        name: "data-quality",
        run: ablation_data_quality,
        progress: "CPT'ing the 8B-class native through 4 noise channels ...",
        title: "A1: token-base score after CPT on AIC content by data quality",
        secondary: None,
        expected: "expected shape: clean ≥ latex-artifacts ≥ heavy-ocr, with nougat cleaning \
                   recovering part of the heavy-ocr gap.",
    },
    Ablation {
        name: "sft-mixture",
        run: ablation_sft_mixture,
        progress: "SFT'ing the 8B-class AIC model under 4 mixtures ...",
        title: "A2: full-instruct score by SFT mixture (secondary: token-instruct)",
        secondary: Some("token-instruct"),
        expected: "expected shape: astronomy-focused mixtures preserve full-instruct ability best; \
                   the paper's 1/3-astro mixture sits between the extremes; shrinking the set hurts.",
    },
    Ablation {
        name: "eval-method",
        run: ablation_eval_method,
        progress: "evaluating the 8B-class native under 4 token-method settings ...",
        title: "A4: token-base score by evaluation-method options (8B-class native)",
        secondary: None,
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
    println!("{}", a.expected);
    run.finish();
}
