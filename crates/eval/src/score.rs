//! Scoring: run one benchmarking method over a question set and keep one
//! outcome per question (the paper's metric, the fraction of accurate
//! answers, derives from them), plus bootstrap confidence intervals.

use crate::extract::ExtractionStage;
use crate::instruct_method::{instruct_method, InstructEvalConfig};
use crate::json::Json;
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

/// One question's result: the option chosen, whether it is the key, and
/// (full-instruct only) the extraction stage that recovered it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The chosen option index (0–3); `None` when no answer was recovered
    /// or the question's engine job failed.
    pub chosen: Option<usize>,
    /// Whether `chosen` is the question's key (never true with no answer).
    pub correct: bool,
    /// The extraction stage (full-instruct only).
    pub stage: Option<ExtractionStage>,
}

/// Result of scoring one model under one method: one [`Outcome`] per
/// question, in question order. Every count and rate derives from them,
/// and the ledger stores them as one compact string
/// ([`Score::ledger_line`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Score {
    /// Per-question outcomes, in the order the questions were asked.
    pub outcomes: Vec<Outcome>,
}

/// The extraction stages in [`Score::stages`] order, each with its ledger
/// code and its telemetry counter.
const STAGES: [(ExtractionStage, u8, &str); 4] = [
    (ExtractionStage::Json, b'j', "eval.extract.json"),
    (ExtractionStage::Pattern, b'p', "eval.extract.pattern"),
    (ExtractionStage::Interpreter, b'i', "eval.extract.interpreter"),
    (ExtractionStage::Failed, b'f', "eval.extract.failed"),
];

impl Score {
    /// Questions evaluated.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Correct answers.
    pub fn correct(&self) -> usize {
        self.outcomes.iter().filter(|o| o.correct).count()
    }

    /// Extraction-stage counts `[json, pattern, interpreter, failed]`;
    /// all 0 for the token methods.
    pub fn stages(&self) -> [usize; 4] {
        STAGES.map(|(stage, ..)| self.outcomes.iter().filter(|o| o.stage == Some(stage)).count())
    }

    /// Accuracy as a percentage (the paper's score).
    pub fn percent(&self) -> f64 {
        100.0 * self.correct() as f64 / self.total().max(1) as f64
    }

    /// Fraction of answers that needed the fallback interpreter or failed
    /// outright — the instruction-following health indicator.
    pub fn parse_trouble_rate(&self) -> f64 {
        let [_, _, interpreter, failed] = self.stages();
        (interpreter + failed) as f64 / self.total().max(1) as f64
    }

    /// The run ledger's line for this score under `stage` (a JSON-safe
    /// stage name). The outcomes are one string, self-contained: per
    /// question, the stage code (full-instruct only: `j`son, `p`attern,
    /// `i`nterpreter, `f`ailed), then the chosen letter — upper case when
    /// correct, lower case when wrong — or `-` for no answer. That is 1
    /// byte a question for the token methods and 2 for full-instruct.
    pub fn ledger_line(&self, stage: &str) -> String {
        let mut outcomes = String::with_capacity(2 * self.total());
        for o in &self.outcomes {
            if let Some(stage) = o.stage {
                outcomes.extend(STAGES.iter().filter(|s| s.0 == stage).map(|s| s.1 as char));
            }
            outcomes.push(match o.chosen {
                Some(c) if o.correct => (b'A' + c as u8) as char,
                Some(c) => (b'a' + c as u8) as char,
                None => '-',
            });
        }
        format!(r#"{{"stage":"{stage}","kind":"score","outcomes":"{outcomes}"}}"#)
    }

    /// Decode a [`Score::ledger_line`] entry. `None` for anything the
    /// encoder cannot have written: no `outcomes` string, a character
    /// outside the alphabet, a stage code with no answer after it, or no
    /// questions at all.
    pub fn from_ledger(entry: &Json) -> Option<Score> {
        let mut codes = entry.get("outcomes")?.as_str()?.bytes();
        let mut outcomes = Vec::new();
        while let Some(code) = codes.next() {
            let stage = STAGES.iter().find(|s| s.1 == code).map(|s| s.0);
            let letter = if stage.is_some() { codes.next()? } else { code };
            let (chosen, correct) = match letter {
                b'-' => (None, false),
                c @ b'A'..=b'D' => (Some((c - b'A') as usize), true),
                c @ b'a'..=b'd' => (Some((c - b'a') as usize), false),
                _ => return None,
            };
            outcomes.push(Outcome { chosen, correct, stage });
        }
        (!outcomes.is_empty()).then_some(Score { outcomes })
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
/// unanswered) so callers can decide whether to accept it anyway.
#[derive(Clone, Debug)]
pub struct EvalFailure {
    /// The score with failed questions counted as unanswered.
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
            self.failed,
            self.degraded.total(),
            self.first_error
        )
    }
}

impl std::error::Error for EvalFailure {}

/// Run `method` for `model` over `questions`, returning one outcome per
/// question. Per-question engine failures surface as a typed
/// [`EvalFailure`] whose degraded score counts each failed question as
/// unanswered; a caller that accepts degraded scores takes
/// `failure.degraded`.
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
    // Each question's (chosen option, extraction stage, engine error).
    let answers: Vec<_> = match method {
        Method::TokenBase | Method::TokenInstruct => {
            token_method_outcomes(model, questions, exemplars, token_cfg)
                .into_iter()
                .map(|o| (Some(o.prediction), None, o.error))
                .collect()
        }
        Method::FullInstruct => instruct_method(model, questions, instruct_cfg, rng)
            .into_iter()
            .map(|a| (a.prediction, Some(a.stage), a.error))
            .collect(),
    };
    let mut failed = 0usize;
    let mut first_error: Option<String> = None;
    let mut outcomes = Vec::with_capacity(questions.len());
    for ((chosen, stage, error), q) in answers.into_iter().zip(questions) {
        if let Some(e) = &error {
            failed += 1;
            first_error.get_or_insert_with(|| e.to_string());
        }
        let chosen = chosen.filter(|_| error.is_none());
        outcomes.push(Outcome { chosen, correct: chosen == Some(q.answer), stage });
    }
    let score = Score { outcomes };
    if method == Method::FullInstruct {
        for ((_, _, name), n) in STAGES.iter().zip(score.stages()) {
            astro_telemetry::counter(name).add(n as u64);
        }
    }
    astro_telemetry::counter("eval.questions").add(score.total() as u64);
    astro_telemetry::counter("eval.correct").add(score.correct() as u64);
    astro_telemetry::counter("eval.failed_questions").add(failed as u64);
    astro_telemetry::Event::new("eval.method")
        .str_field("method", method.key())
        .u64_field("correct", score.correct() as u64)
        .u64_field("total", score.total() as u64)
        .u64_field("failed", failed as u64)
        .f64_field("accuracy_pct", score.percent())
        .f64_field("fallback_rate", score.parse_trouble_rate())
        .emit();
    span.record_f64("questions", score.total() as f64);
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

    fn outcome(chosen: Option<usize>, correct: bool, stage: ExtractionStage) -> Outcome {
        Outcome { chosen, correct, stage: Some(stage) }
    }

    #[test]
    fn percent_and_trouble_rate() {
        let s = Score {
            outcomes: vec![
                outcome(Some(0), true, ExtractionStage::Json),
                outcome(Some(1), true, ExtractionStage::Pattern),
                outcome(Some(2), true, ExtractionStage::Interpreter),
                outcome(None, false, ExtractionStage::Failed),
            ],
        };
        assert_eq!((s.correct(), s.total(), s.stages()), (3, 4, [1, 1, 1, 1]));
        assert!((s.percent() - 75.0).abs() < 1e-9);
        assert!((s.parse_trouble_rate() - 0.5).abs() < 1e-9);
        let empty = Score { outcomes: Vec::new() };
        assert_eq!(empty.percent(), 0.0);
        assert_eq!(empty.parse_trouble_rate(), 0.0);
    }

    #[test]
    fn score_ledger_lines_round_trip_seeded_outcomes() {
        let stages = STAGES.map(|(s, ..)| s);
        let mut rng = Rng::seed_from(43);
        for n in [1, 6, 24, 120, 4_417] {
            for full_instruct in [false, true] {
                let outcomes: Vec<Outcome> = (0..n)
                    .map(|_| {
                        let chosen = Some(rng.index(5)).filter(|&c| c < 4);
                        let correct = chosen.is_some() && rng.index(2) == 1;
                        let stage = full_instruct.then(|| stages[rng.index(4)]);
                        Outcome { chosen, correct, stage }
                    })
                    .collect();
                let score = Score { outcomes };
                let line = score.ledger_line("eval-x-full_instruct");
                let entry = Json::parse(&line).expect("the encoder writes JSON");
                let encoded = entry.get("outcomes").and_then(Json::as_str).expect("a string");
                assert_eq!(encoded.len(), if full_instruct { 2 * n } else { n }, "{encoded}");
                if n == 4_417 {
                    // Every letter right and wrong, no answer, every stage.
                    let alphabet = if full_instruct { "ABCDabcd-jpif" } else { "ABCDabcd-" };
                    assert!(alphabet.chars().all(|c| encoded.contains(c)), "{alphabet}");
                }
                assert_eq!(Score::from_ledger(&entry), Some(score), "n={n}");
            }
        }
    }

    #[test]
    fn malformed_score_entries_are_rejected_not_trusted() {
        for line in [
            r#"{"stage":"eval-x","kind":"score","correct":-1,"total":24}"#,
            // The count-shaped line, in range and out of range.
            r#"{"stage":"eval-x","kind":"score","correct":17,"total":24,"s0":9,"s1":4,"s2":2,"s3":1}"#,
            r#"{"stage":"eval-x","kind":"score","correct":30,"total":24,"s0":0,"s1":0,"s2":0,"s3":0}"#,
            r#"{"stage":"eval-x","kind":"score","correct":17,"total":24,"s0":9,"s1":9,"s2":9,"s3":9}"#,
            // Characters outside the alphabet.
            r#"{"stage":"eval-x","kind":"score","outcomes":"AbE-"}"#,
            r#"{"stage":"eval-x","kind":"score","outcomes":"jAx-"}"#,
            r#"{"stage":"eval-x","kind":"score","outcomes":"jpA"}"#,
            // Lengths that do not fit: a stage code with no answer, none at all.
            r#"{"stage":"eval-x","kind":"score","outcomes":"jApbf"}"#,
            r#"{"stage":"eval-x","kind":"score","outcomes":""}"#,
            r#"{"stage":"eval-x","kind":"score","outcomes":24}"#,
        ] {
            let entry = Json::parse(line).expect("parse");
            assert_eq!(Score::from_ledger(&entry), None, "{line}");
        }
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
            let s = evaluate_checked(
                &model,
                &qs,
                &ds.exemplars,
                method,
                &TokenEvalConfig::default(),
                &InstructEvalConfig::default(),
                &mut rng,
            )
            .unwrap_or_else(|failure| failure.degraded);
            assert_eq!(s.total(), 4);
            let keyed =
                s.outcomes.iter().zip(&qs).filter(|(o, q)| o.chosen == Some(q.answer)).count();
            assert_eq!(s.correct(), keyed, "{method:?}");
            if method == Method::FullInstruct {
                assert_eq!(s.stages().iter().sum::<usize>(), s.total());
            }
        }
    }
}
