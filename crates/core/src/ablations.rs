//! Design-choice ablations (DESIGN.md experiments A1–A4).
//!
//! Each ablation reuses a prepared study so the world, tokenizer and
//! benchmark stay fixed while one factor varies, and takes the zoo models
//! it starts from (or, for A3, their scores) from the study's run
//! directory, so it never retrains a Table I model.

use crate::study::{RunDir, StudyError};
use crate::zoo::ModelId;
use astro_eval::{evaluate, EvalModel, InstructEvalConfig, Method, TokenEvalConfig};
use astro_prng::Rng;
use astro_train::{pack_documents, render_conversations, train_lm, BatchSource};
use astro_world::{
    clean_ocr, noisify, render_article, sft_dataset, CorpusRecipe, Document, DocumentKind,
    NoiseConfig, SftMixtureConfig,
};

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    /// Human-readable setting label.
    pub label: String,
    /// Token-base score (%) unless noted otherwise by the ablation.
    pub score: f64,
    /// Secondary score (%), meaning depends on the ablation (e.g. full
    /// instruct); NaN when unused.
    pub secondary: f64,
}

/// A1 — CPT data quality: the same AIC content passed through different
/// noise channels (clean, LaTeX artefacts, heavy OCR, heavy OCR + Nougat
/// cleaning), each used to CPT the 8B-class native. Probes the paper's
/// claim that "high-quality, information-dense tokens used in CPT" are
/// critical.
/// A text-corruption channel applied to CPT documents.
type NoiseChannel = Box<dyn Fn(&str, &mut Rng) -> String>;

/// A1: CPT on progressively noisier corpora (Table 3's data-quality axis).
pub fn ablation_data_quality(run: &mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError> {
    let study = run.study();
    let native = run.base(ModelId::Llama3_8b)?;
    let channels: [(&str, NoiseChannel); 4] = [
        ("clean", Box::new(|s: &str, _: &mut Rng| s.to_string())),
        (
            "latex-artifacts",
            Box::new(|s: &str, rng: &mut Rng| noisify(s, &NoiseConfig::latex_artifacts(), rng)),
        ),
        (
            "heavy-ocr",
            Box::new(|s: &str, rng: &mut Rng| noisify(s, &NoiseConfig::heavy_ocr(), rng)),
        ),
        (
            "heavy-ocr+nougat",
            Box::new(|s: &str, rng: &mut Rng| {
                clean_ocr(&noisify(s, &NoiseConfig::heavy_ocr(), rng))
            }),
        ),
    ];
    let mut out = Vec::new();
    for (label, channel) in channels {
        let mut rng = Rng::seed_from(study.config.seed).substream(&format!("abl-dq-{label}"));
        let docs: Vec<Document> = study
            .world
            .articles
            .iter()
            .map(|a| {
                let clean = render_article(&study.world, a, CorpusRecipe::Aic, &mut rng);
                Document {
                    kind: DocumentKind::Aic,
                    article: Some(a.id),
                    text: channel(&clean, &mut rng),
                }
            })
            .collect();
        let stream = pack_documents(&study.tokenizer, &docs);
        let mut params = native.clone();
        let tc = astro_train::TrainerConfig {
            lr: study.config.cpt_lr,
            batch: study.config.batch,
            seq: study.config.seq,
            steps: study.config.cpt_steps,
            ..Default::default()
        };
        train_lm(&mut params, BatchSource::Lm(&stream), &tc, &rng).map_err(|e| {
            StudyError::Train { stage: format!("ablation-dq-{label}"), source: e }
        })?;
        let score = study.eval(&params, Method::TokenBase).percent();
        out.push(AblationPoint {
            label: label.to_string(),
            score,
            secondary: f64::NAN,
        });
    }
    Ok(out)
}

/// A2 — SFT mixture: astronomy fraction and dataset size. SFTs the
/// 8B-class AIC model with different mixtures and reports full-instruct
/// (primary) and token-instruct (secondary) scores — probing the paper's
/// conclusion that the small, non-astronomy mixture is what breaks the
/// instruct models.
pub fn ablation_sft_mixture(run: &mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError> {
    let study = run.study();
    let base = run.base(ModelId::AstroLlama3_8bAic)?;
    let total = SftMixtureConfig::paper_mixture(study.config.sft_scale).total();
    let settings: [(&str, f64, usize); 4] = [
        ("astro 0% (general only)", 0.0, total),
        ("astro 33% (paper mixture)", 1.0 / 3.0, total),
        ("astro 100%", 1.0, total),
        ("astro 33%, 10x smaller", 1.0 / 3.0, (total / 10).max(4)),
    ];
    let mut out = Vec::new();
    for (label, astro_frac, size) in settings {
        let n_astro = ((size as f64) * astro_frac).round() as usize;
        let n_general = size - n_astro;
        let mixture = SftMixtureConfig {
            n_astro: n_astro.max(if astro_frac > 0.0 { 1 } else { 0 }),
            n_lima: (n_general / 21).max(1),
            n_orca: (n_general * 10 / 21).max(1),
            n_ultrachat: (n_general * 10 / 21).max(1),
            astro_json_fraction: study.config.sft_json_fraction,
        };
        let mut rng = Rng::seed_from(study.config.seed).substream(&format!("abl-sft-{label}"));
        let convs = sft_dataset(&study.world, &mixture, &mut rng);
        let examples = render_conversations(&study.tokenizer, &convs).map_err(|e| {
            StudyError::Train { stage: format!("ablation-sft-{label}"), source: e }
        })?;
        let mut params = base.clone();
        let tc = astro_train::TrainerConfig {
            lr: study.config.sft_lr,
            batch: study.config.batch,
            seq: study.config.seq,
            steps: study.config.sft_steps,
            ..Default::default()
        };
        train_lm(
            &mut params,
            BatchSource::Sft(&examples, study.tokenizer.pad()),
            &tc,
            &rng,
        )
        .map_err(|e| StudyError::Train { stage: format!("ablation-sft-{label}"), source: e })?;
        let full = study.eval(&params, Method::FullInstruct).percent();
        let token = study.eval(&params, Method::TokenInstruct).percent();
        out.push(AblationPoint {
            label: label.to_string(),
            score: full,
            secondary: token,
        });
    }
    Ok(out)
}

/// A3 — capacity sweep: native vs CPT-AIC token-base scores per tier, the
/// paper's central forgetting-vs-gain contrast — six of Table I's cells.
/// `score` is the native model, `secondary` the CPT'd model.
pub fn ablation_scale(run: &mut RunDir<'_>) -> Result<Vec<AblationPoint>, StudyError> {
    let mut token_base = |id| {
        run.score(id, Method::TokenBase)
            .map(|s| s.map_or(f64::NAN, |s| s.percent()))
    };
    ModelId::all()
        .into_iter()
        .filter(|id| id.recipe() == Some(CorpusRecipe::Aic))
        .map(|id| {
            Ok(AblationPoint {
                label: id.tier().label().to_string(),
                score: token_base(id.baseline())?,
                secondary: token_base(id)?,
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
    let native = run.base(ModelId::Llama3_8b)?;
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
            let score = evaluate(
                &model,
                &questions,
                &study.mcq.exemplars,
                Method::TokenBase,
                &cfg,
                &InstructEvalConfig::default(),
                &mut rng,
            );
            AblationPoint {
                label: label.to_string(),
                score: score.percent(),
                secondary: f64::NAN,
            }
        })
        .collect())
}

/// Render ablation points as a small text table.
pub fn render_ablation(title: &str, points: &[AblationPoint], secondary_label: Option<&str>) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&"-".repeat(title.len()));
    out.push('\n');
    for p in points {
        if p.secondary.is_nan() {
            out.push_str(&format!("  {:<34} {:>6.1}%\n", p.label, p.score));
        } else {
            out.push_str(&format!(
                "  {:<34} {:>6.1}%   {} {:>6.1}%\n",
                p.label,
                p.score,
                secondary_label.unwrap_or("secondary"),
                p.secondary
            ));
        }
    }
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

    #[test]
    fn render_ablation_formats_both_kinds() {
        let pts = vec![
            AblationPoint {
                label: "a".to_string(),
                score: 50.0,
                secondary: f64::NAN,
            },
            AblationPoint {
                label: "b".to_string(),
                score: 60.0,
                secondary: 55.0,
            },
        ];
        let s = render_ablation("Test", &pts, Some("token"));
        assert!(s.contains("50.0%"));
        assert!(s.contains("token"));
        assert!(s.contains("55.0%"));
    }

    #[test]
    fn eval_method_ablation_runs_on_smoke_study() {
        let study = Study::prepare(StudyConfig::smoke(23)).expect("prepare");
        let pts = ablation_eval_method(&mut fresh_run(&study, "eval-method")).expect("ablation");
        assert_eq!(pts.len(), 5);
        for p in &pts {
            assert!((0.0..=100.0).contains(&p.score), "{p:?}");
        }
        let _ = std::fs::remove_dir_all(run_path("eval-method"));
    }

    #[test]
    fn scale_ablation_covers_three_tiers() {
        let study = Study::prepare(StudyConfig::smoke(29)).expect("prepare");
        let pts = ablation_scale(&mut fresh_run(&study, "scale")).expect("ablation");
        assert_eq!(pts.len(), 3);
        assert!(pts[0].label.contains("7B"));
        assert!(pts[2].label.contains("70B"));
        let _ = std::fs::remove_dir_all(run_path("scale"));
    }
}
