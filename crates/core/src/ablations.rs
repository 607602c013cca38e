//! Design-choice ablations (DESIGN.md experiments A1, A2 and A4).
//!
//! Each ablation reuses a prepared study so the world, tokenizer and
//! benchmark stay fixed while one factor varies. A1 and A2 are lists of
//! [`Recipe`](crate::Recipe)s scored through the study's run directory,
//! like Table I's zoo: every variant is trained, checkpointed and scored
//! once per directory, and a re-run resumes. A4 varies evaluation, not
//! training.

use crate::study::{RunDir, StudyError};
use crate::zoo::{Corpus, Mixture, ModelId, Noise};
use astro_eval::{
    evaluate_checked, EvalModel, InstructEvalConfig, Method, Score, TokenEvalConfig,
};
use astro_prng::Rng;

/// One ablation measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationPoint {
    /// Human-readable setting label.
    pub label: String,
    /// Token-base score unless noted otherwise by the ablation.
    pub score: Score,
    /// Secondary score, meaning depends on the ablation (e.g. token
    /// instruct).
    pub secondary: Option<Score>,
}

/// A1 — CPT data quality: the 8B-class native CPT'd on the same AIC
/// content through four noise channels (clean, LaTeX artefacts, heavy
/// OCR, heavy OCR + Nougat cleaning), each scored token-base. Probes the
/// paper's claim that "high-quality, information-dense tokens used in
/// CPT" are critical.
pub fn ablation_data_quality(run: &mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError> {
    let native = ModelId::Llama3_8b.recipe();
    (Noise::ALL.into_iter())
        .map(|noise| {
            let model = native.clone().cpt(Corpus::Noisy(noise));
            Ok(AblationPoint {
                label: noise.label().to_string(),
                score: run.score(&model, Method::TokenBase)?,
                secondary: None,
            })
        })
        .collect()
}

/// A2 — SFT mixture: astronomy fraction and dataset size. SFTs the
/// 8B-class AIC model on four mixtures and reports full-instruct
/// (primary) and token-instruct (secondary) scores — probing the paper's
/// conclusion that the small, non-astronomy mixture is what breaks the
/// instruct models.
pub fn ablation_sft_mixture(run: &mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError> {
    let base = ModelId::AstroLlama3_8bAic.recipe();
    (Mixture::A2.into_iter())
        .map(|mixture| {
            let model = base.clone().sft(mixture);
            Ok(AblationPoint {
                label: mixture.label().to_string(),
                score: run.score(&model, Method::FullInstruct)?,
                secondary: Some(run.score(&model, Method::TokenInstruct)?),
            })
        })
        .collect()
}

/// A4 — evaluation-method options on one fixed model (the 8B-class
/// native): two-shot vs zero-shot prompting, token-variant detection
/// on/off (paper Appendix C's design choices), and the value-vs-letter
/// answer readout (our documented substitution vs the paper's literal
/// letter method).
pub fn ablation_eval_method(run: &mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError> {
    use astro_eval::AnswerReadout;
    let study = run.study();
    let native = run.weights(&ModelId::Llama3_8b.recipe())?;
    let model = EvalModel {
        params: native,
        tokenizer: &study.tokenizer,
    };
    let questions = study.eval_questions();
    let settings: [(&str, TokenEvalConfig); 5] = [
        (
            "two-shot + variant detection",
            TokenEvalConfig {
                shots: 2,
                detect_variants: true,
                readout: AnswerReadout::OptionValue,
                engine: study.config.eval_engine,
            },
        ),
        (
            "two-shot, no variant detection",
            TokenEvalConfig {
                shots: 2,
                detect_variants: false,
                readout: AnswerReadout::OptionValue,
                engine: study.config.eval_engine,
            },
        ),
        (
            "zero-shot + variant detection",
            TokenEvalConfig {
                shots: 0,
                detect_variants: true,
                readout: AnswerReadout::OptionValue,
                engine: study.config.eval_engine,
            },
        ),
        (
            "zero-shot, no variant detection",
            TokenEvalConfig {
                shots: 0,
                detect_variants: false,
                readout: AnswerReadout::OptionValue,
                engine: study.config.eval_engine,
            },
        ),
        (
            "two-shot, letter readout (paper-literal)",
            TokenEvalConfig {
                shots: 2,
                detect_variants: true,
                readout: AnswerReadout::Letter,
                engine: study.config.eval_engine,
            },
        ),
    ];
    let mut rng = Rng::seed_from(study.config.seed).substream("abl-eval");
    Ok(settings
        .into_iter()
        .map(|(label, cfg)| {
            let score = evaluate_checked(
                &model,
                &questions,
                &study.mcq.exemplars,
                Method::TokenBase,
                &cfg,
                &InstructEvalConfig::default(),
                &mut rng,
            )
            .unwrap_or_else(|failure| failure.degraded);
            AblationPoint {
                label: label.to_string(),
                score,
                secondary: None,
            }
        })
        .collect())
}

/// Render ablation points as a small text table, every score, secondary
/// included, as `score [lo, hi]`: percent and its 95 % Wilson interval
/// ([`Score::ci95`]). Labels pad to the longest, so every row's score
/// starts in one column.
pub fn render_ablation(
    title: &str,
    points: &[AblationPoint],
    secondary_label: Option<&str>,
) -> String {
    let cell = |s: &Score| {
        let (lo, hi) = s.ci95();
        format!("{:.1} [{lo:.1}, {hi:.1}]", s.percent())
    };
    let rows: Vec<_> = points
        .iter()
        .map(|p| (&p.label, cell(&p.score), p.secondary.as_ref().map(cell)))
        .collect();
    let label_w = rows.iter().map(|r| r.0.chars().count()).max().unwrap_or(0);
    let score_w = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let mut out = format!("{title}\n{}\n", "-".repeat(title.len()));
    for (label, score, secondary) in rows {
        out.push_str(&match secondary {
            None => format!("  {label:<label_w$} {score}\n"),
            Some(secondary) => format!(
                "  {label:<label_w$} {score:<score_w$}   {} {secondary}\n",
                secondary_label.unwrap_or("secondary")
            ),
        });
    }
    out.push_str(
        "(score [95 % Wilson interval], in percent; a gap inside the intervals is not resolved)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::StudyConfig;
    use crate::study::Study;

    fn run_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("astro-ablation-{}-{name}", std::process::id()))
    }

    fn fresh_run<'s>(study: &'s Study, name: &str) -> RunDir<'s> {
        let dir = run_path(name);
        let _ = std::fs::remove_dir_all(&dir);
        study.open_run(&dir).expect("open run directory")
    }

    /// A score of `correct` right answers out of `total`.
    fn score(correct: usize, total: usize) -> Score {
        let outcome = |i| astro_eval::Outcome {
            chosen: Some(0),
            correct: i < correct,
            stage: None,
        };
        Score {
            outcomes: (0..total).map(outcome).collect(),
        }
    }

    #[test]
    fn render_ablation_formats_both_kinds() {
        let pts = vec![
            AblationPoint {
                label: "a".to_string(),
                score: score(1, 2),
                secondary: None,
            },
            AblationPoint {
                label: "b".to_string(),
                score: score(3, 5),
                secondary: Some(score(11, 20)),
            },
        ];
        let s = render_ablation("Test", &pts, Some("token"));
        assert!(s.contains("50.0 [9.5, 90.5]"), "{s}");
        assert!(s.contains("token 55.0 ["), "{s}");
        let intervals: usize = s.lines().skip(2).take(2).map(|l| l.matches(" [").count()).sum();
        assert_eq!(intervals, 3, "every score carries its interval: {s}");
    }

    #[test]
    fn every_rows_score_starts_in_one_column() {
        // A4's longest label is 40 characters; scores of different widths.
        let labels = ["a", "two-shot, letter readout (paper-literal)", "clean ≥ noisy"];
        let scores = [score(0, 24), score(10, 24), score(24, 24)];
        let pts: Vec<_> = labels
            .iter()
            .zip(&scores)
            .map(|(label, s)| AblationPoint {
                label: label.to_string(),
                score: s.clone(),
                secondary: Some(s.clone()),
            })
            .collect();
        let s = render_ablation("Test", &pts, Some("token"));
        let rows: Vec<&str> = s.lines().skip(2).take(3).collect();
        let column = |row: &str, text: &str| row[..row.find(text).unwrap()].chars().count();
        let starts: Vec<usize> = (rows.iter().zip(&scores))
            .map(|(r, s)| column(r, &format!(" {:.1} [", s.percent())))
            .collect();
        assert_eq!(starts, [starts[0]; 3], "{s}");
        let secondary: Vec<usize> = rows.iter().map(|r| column(r, "token")).collect();
        assert_eq!(secondary, [secondary[0]; 3], "{s}");
    }

    #[test]
    fn eval_method_ablation_runs_on_smoke_study() {
        let study = Study::prepare(StudyConfig::smoke(23)).expect("prepare");
        let pts = ablation_eval_method(&mut fresh_run(&study, "eval-method")).expect("ablation");
        assert_eq!(pts.len(), 5);
        for p in &pts {
            assert_eq!(p.score.total(), study.eval_questions().len(), "{p:?}");
        }
        let _ = std::fs::remove_dir_all(run_path("eval-method"));
    }

    /// A2 killed at each of its stage boundaries in turn resumes to an
    /// uninterrupted run's outcomes, and every stage is ledgered exactly
    /// once: no finished point trains or evaluates twice.
    #[test]
    fn a_killed_sft_mixture_ablation_resumes_to_the_same_outcomes() {
        use astro_telemetry::fault::{FaultPlan, Faults};
        let study = Study::prepare(StudyConfig::micro(11)).expect("prepare");
        let whole = ablation_sft_mixture(&mut fresh_run(&study, "a2-whole")).expect("whole run");
        let _ = std::fs::remove_dir_all(run_path("a2-whole"));

        let dir = run_path("a2-killed");
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = || astro_resilience::Journal::at(&dir.join("ledger.jsonl")).lines();
        let faults = Faults::default().enter();
        let mut kills = 0;
        let resumed = loop {
            faults.install(FaultPlan::single("study.stage_boundary", 1));
            let outcome = study
                .open_run(&dir)
                .and_then(|mut run| ablation_sft_mixture(&mut run));
            faults.clear();
            match outcome {
                Err(StudyError::Interrupted { .. }) => {
                    kills += 1;
                    assert!(kills < 40, "the resume loop did not converge");
                    let lines = ledger().expect("ledger").len();
                    assert_eq!(
                        lines,
                        kills + 1,
                        "one line per finished stage, plus the fingerprint"
                    );
                }
                Err(other) => panic!("unexpected error: {other}"),
                Ok(points) => break points,
            }
        };
        assert_eq!(
            resumed, whole,
            "a resumed A2 differs from an uninterrupted one"
        );
        // The native, its AIC model, then an SFT checkpoint and two scores per mixture.
        assert_eq!(kills, 2 + 3 * Mixture::A2.len());
        assert_eq!(ledger().expect("ledger").len(), kills + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
