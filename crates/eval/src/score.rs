//! Scoring: run one benchmarking method over a question set and count
//! correct answers (the paper's metric is the fraction of accurate
//! answers), plus bootstrap confidence intervals.

use crate::extract::ExtractionStage;
use crate::instruct_method::{instruct_method, InstructEvalConfig};
use crate::token_method::{token_method_outcomes, TokenEvalConfig};
use crate::EvalModel;
use astro_mcq::Mcq;
use astro_prng::Rng;

/// The three benchmarking methods of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Conversational Q&A with JSON output (§V-A), on the instruct model.
    FullInstruct,
    /// Next-token logits on the instruct model (§V-C).
    TokenInstruct,
    /// Next-token logits on the base model (§V-B).
    TokenBase,
}

impl Method {
    /// Column label used in Table I.
    pub fn label(self) -> &'static str {
        match self {
            Method::FullInstruct => "Full Instruct",
            Method::TokenInstruct => "Token Prediction (Instruct Model)",
            Method::TokenBase => "Token Prediction (Base Model)",
        }
    }

    /// All methods in Table I column order.
    pub fn all() -> [Method; 3] {
        [Method::FullInstruct, Method::TokenInstruct, Method::TokenBase]
    }

    /// Machine-readable identifier (telemetry attributes, JSON keys).
    pub fn key(self) -> &'static str {
        match self {
            Method::FullInstruct => "full_instruct",
            Method::TokenInstruct => "token_instruct",
            Method::TokenBase => "token_base",
        }
    }
}

/// Result of scoring one model under one method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Score {
    /// Correct answers.
    pub correct: usize,
    /// Questions evaluated.
    pub total: usize,
    /// Extraction-stage counts (full-instruct only):
    /// `[json, pattern, interpreter, failed]`.
    pub stages: [usize; 4],
}

impl Score {
    /// Accuracy as a percentage (the paper's score).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * self.correct as f64 / self.total as f64
    }

    /// Fraction of answers that needed the fallback interpreter or failed
    /// outright — the instruction-following health indicator.
    pub fn parse_trouble_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.stages[2] + self.stages[3]) as f64 / self.total as f64
    }
}

/// Percentile bootstrap confidence interval for an accuracy score.
///
/// Resamples the per-question correctness vector `resamples` times and
/// returns the `(lo, hi)` percentile bounds in percent. Deterministic in
/// the provided RNG.
pub fn bootstrap_ci(
    correctness: &[bool],
    resamples: usize,
    confidence: f64,
    rng: &mut Rng,
) -> (f64, f64) {
    assert!(!correctness.is_empty(), "bootstrap over empty sample");
    assert!((0.0..1.0).contains(&(1.0 - confidence)), "bad confidence");
    let n = correctness.len();
    let mut stats: Vec<f64> = (0..resamples.max(1))
        .map(|_| {
            let hits = (0..n).filter(|_| correctness[rng.index(n)]).count();
            100.0 * hits as f64 / n as f64
        })
        .collect();
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - confidence) / 2.0;
    let lo_idx = ((stats.len() as f64) * alpha).floor() as usize;
    let hi_idx = (((stats.len() as f64) * (1.0 - alpha)).ceil() as usize)
        .saturating_sub(1)
        .min(stats.len() - 1);
    (stats[lo_idx], stats[hi_idx])
}

/// Per-question engine failures rolled up from an [`evaluate_checked`]
/// run. Carries the degraded score (every failed question counted as
/// wrong) so callers can decide whether to accept it anyway.
#[derive(Clone, Debug)]
pub struct EvalFailure {
    /// The score with failed questions counted as wrong — what
    /// [`evaluate`] would have returned.
    pub degraded: Score,
    /// Questions whose engine job failed.
    pub failed: usize,
    /// The first failure, rendered for diagnostics.
    pub first_error: String,
}

impl std::fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} questions failed in the eval engine (first: {})",
            self.failed, self.degraded.total, self.first_error
        )
    }
}

impl std::error::Error for EvalFailure {}

/// Run `method` for `model` over `questions`, returning the score.
/// Per-question engine failures are absorbed: a failed question scores as
/// wrong. Use [`evaluate_checked`] to surface them as a typed error.
pub fn evaluate(
    model: &EvalModel<'_>,
    questions: &[&Mcq],
    exemplars: &[Mcq],
    method: Method,
    token_cfg: &TokenEvalConfig,
    instruct_cfg: &InstructEvalConfig,
    rng: &mut Rng,
) -> Score {
    evaluate_checked(model, questions, exemplars, method, token_cfg, instruct_cfg, rng)
        .unwrap_or_else(|failure| failure.degraded)
}

/// Like [`evaluate`], but per-question engine failures surface as a typed
/// [`EvalFailure`] instead of being silently scored as wrong; `evaluate`
/// is this with the failure's degraded score taken.
pub fn evaluate_checked(
    model: &EvalModel<'_>,
    questions: &[&Mcq],
    exemplars: &[Mcq],
    method: Method,
    token_cfg: &TokenEvalConfig,
    instruct_cfg: &InstructEvalConfig,
    rng: &mut Rng,
) -> Result<Score, EvalFailure> {
    let span = astro_telemetry::span!("eval", method = method.key());
    let consistent = model.validate();
    assert!(consistent.is_ok(), "inconsistent EvalModel: {}", consistent.unwrap_err());
    let mut failed = 0usize;
    let mut first_error: Option<String> = None;
    let score = match method {
        Method::TokenBase | Method::TokenInstruct => {
            let outcomes = token_method_outcomes(model, questions, exemplars, token_cfg);
            let mut correct = 0;
            for (o, q) in outcomes.iter().zip(questions.iter()) {
                if let Some(e) = &o.error {
                    failed += 1;
                    first_error.get_or_insert_with(|| e.to_string());
                } else if o.prediction == q.answer {
                    correct += 1;
                }
            }
            Score {
                correct,
                total: questions.len(),
                stages: [0; 4],
            }
        }
        Method::FullInstruct => {
            let answers = instruct_method(model, questions, instruct_cfg, rng);
            let mut stages = [0usize; 4];
            let mut correct = 0;
            for (a, q) in answers.iter().zip(questions.iter()) {
                let si = match a.stage {
                    ExtractionStage::Json => 0,
                    ExtractionStage::Pattern => 1,
                    ExtractionStage::Interpreter => 2,
                    ExtractionStage::Failed => 3,
                };
                stages[si] += 1;
                if let Some(e) = &a.error {
                    failed += 1;
                    first_error.get_or_insert_with(|| e.to_string());
                } else if a.prediction == Some(q.answer) {
                    correct += 1;
                }
            }
            astro_telemetry::counter("eval.extract.json").add(stages[0] as u64);
            astro_telemetry::counter("eval.extract.pattern").add(stages[1] as u64);
            astro_telemetry::counter("eval.extract.interpreter").add(stages[2] as u64);
            astro_telemetry::counter("eval.extract.failed").add(stages[3] as u64);
            Score {
                correct,
                total: questions.len(),
                stages,
            }
        }
    };
    astro_telemetry::counter("eval.questions").add(score.total as u64);
    astro_telemetry::counter("eval.correct").add(score.correct as u64);
    astro_telemetry::counter("eval.failed_questions").add(failed as u64);
    astro_telemetry::Event::new("eval.method")
        .str_field("method", method.key())
        .u64_field("correct", score.correct as u64)
        .u64_field("total", score.total as u64)
        .u64_field("failed", failed as u64)
        .f64_field("accuracy_pct", score.percent())
        .f64_field("fallback_rate", score.parse_trouble_rate())
        .emit();
    span.record_f64("questions", score.total as f64);
    match first_error {
        None => Ok(score),
        Some(first_error) => Err(EvalFailure { degraded: score, failed, first_error }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_mcq::{McqConfig, McqDataset};
    use astro_model::{ModelConfig, Params};
    use astro_tokenizer::{train_bpe, BpeTrainerConfig};
    use astro_world::{World, WorldConfig};

    #[test]
    fn bootstrap_ci_brackets_point_estimate() {
        let mut rng = Rng::seed_from(3);
        let correctness: Vec<bool> = (0..200).map(|i| i % 4 != 0).collect(); // 75%
        let (lo, hi) = bootstrap_ci(&correctness, 500, 0.95, &mut rng);
        assert!(lo <= 75.0 && 75.0 <= hi, "({lo}, {hi})");
        assert!(hi - lo < 20.0, "interval implausibly wide: ({lo}, {hi})");
        assert!(hi - lo > 1.0, "interval implausibly tight: ({lo}, {hi})");
    }

    #[test]
    fn bootstrap_ci_degenerate_all_correct() {
        let mut rng = Rng::seed_from(4);
        let (lo, hi) = bootstrap_ci(&[true; 50], 200, 0.9, &mut rng);
        assert_eq!((lo, hi), (100.0, 100.0));
    }

    #[test]
    #[should_panic]
    fn bootstrap_ci_rejects_empty() {
        bootstrap_ci(&[], 10, 0.95, &mut Rng::seed_from(0));
    }

    #[test]
    fn percent_and_trouble_rate() {
        let s = Score {
            correct: 3,
            total: 4,
            stages: [1, 1, 1, 1],
        };
        assert!((s.percent() - 75.0).abs() < 1e-9);
        assert!((s.parse_trouble_rate() - 0.5).abs() < 1e-9);
        let empty = Score {
            correct: 0,
            total: 0,
            stages: [0; 4],
        };
        assert_eq!(empty.percent(), 0.0);
        assert_eq!(empty.parse_trouble_rate(), 0.0);
    }

    #[test]
    fn method_labels_match_table1_columns() {
        assert_eq!(Method::all().len(), 3);
        assert!(Method::FullInstruct.label().contains("Full"));
        assert!(Method::TokenBase.label().contains("Base"));
    }

    #[test]
    fn evaluate_runs_all_methods_on_untrained_model() {
        let world = World::generate(17, WorldConfig::small());
        let mut rng = Rng::seed_from(17);
        let ds = McqDataset::generate(&world, &McqConfig::default(), &mut rng);
        let tok = train_bpe(
            &[ds.questions[0].question.clone()],
            &BpeTrainerConfig {
                vocab_size: 300,
                ..Default::default()
            },
        );
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(1));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let qs: Vec<&Mcq> = ds.questions.iter().take(4).collect();
        for method in Method::all() {
            let s = evaluate(
                &model,
                &qs,
                &ds.exemplars,
                method,
                &TokenEvalConfig::default(),
                &InstructEvalConfig::default(),
                &mut rng,
            );
            assert_eq!(s.total, 4);
            assert!(s.correct <= 4);
            if method == Method::FullInstruct {
                assert_eq!(s.stages.iter().sum::<usize>(), 4);
            }
        }
    }
}
