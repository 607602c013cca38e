//! The full-instruct benchmarking method (paper §V-A, Appendix B).
//!
//! The instruct model is prompted conversationally — expert role-play
//! system prompt, the question with options, chain-of-thought + JSON
//! output instructions — and generates freely; the answer is recovered by
//! the extraction cascade. This is the method that exposes
//! instruction-following weaknesses: a model whose knowledge is intact
//! but whose output formatting degraded after SFT loses points here while
//! holding its token-method score (the paper's central SFT finding).

use crate::extract::{extract_answer, ExtractionStage};
use crate::EvalModel;
use astro_mcq::prompts::instruct_method_messages;
use astro_mcq::Mcq;
use astro_model::{sample_logits, InferenceSession, SamplerConfig};
use astro_prng::Rng;
use astro_serve::{EngineConfig, EvalEngine, GenerateJob, ServeError};
use astro_tokenizer::{ChatMessage, ChatTemplate, Role};

/// Configuration for the full-instruct method.
#[derive(Clone, Copy, Debug)]
pub struct InstructEvalConfig {
    /// Maximum generated tokens per answer (paper: up to 512; scaled to
    /// our context windows).
    pub max_new_tokens: usize,
    /// Sampling settings ("default instructions" per the paper; greedy
    /// keeps our runs deterministic).
    pub sampler: SamplerConfig,
    /// How batches execute: worker count and prefix caching. The default
    /// ([`EngineConfig::serial`]) preserves the original single-threaded
    /// fresh-session behaviour exactly.
    pub engine: EngineConfig,
}

impl Default for InstructEvalConfig {
    fn default() -> Self {
        InstructEvalConfig {
            max_new_tokens: 48,
            sampler: SamplerConfig::greedy(),
            engine: EngineConfig::serial(),
        }
    }
}

impl InstructEvalConfig {
    /// Structural validation: require a usable generation budget and
    /// delegate to [`EngineConfig::validate`]. Checked at gateway startup
    /// and usable by any embedding before work is scheduled.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_new_tokens == 0 {
            return Err("full-instruct max_new_tokens must be at least 1".to_string());
        }
        if self.max_new_tokens > MAX_NEW_TOKENS {
            return Err(format!(
                "full-instruct max_new_tokens {} exceeds the {MAX_NEW_TOKENS}-token bound",
                self.max_new_tokens
            ));
        }
        self.engine.validate().map_err(|e| format!("engine: {e}"))
    }
}

/// Upper bound on the full-instruct generation budget (the paper's
/// deployments cap at 512; our context windows are far smaller).
pub const MAX_NEW_TOKENS: usize = 4096;

/// One question's full-instruct outcome.
#[derive(Clone, Debug)]
pub struct InstructAnswer {
    /// The extracted option index, if any.
    pub prediction: Option<usize>,
    /// Which cascade stage recovered it.
    pub stage: ExtractionStage,
    /// The raw generated text (diagnostics).
    pub raw: String,
    /// A per-question engine failure; the rest of the sweep is
    /// unaffected. A failed question counts as unanswered.
    pub error: Option<ServeError>,
}

/// The encoded, truncated chat prompt and generation budget for one
/// question — shared by the serial path and the engine job builder so
/// both generate from the identical context.
fn prompt_and_budget(
    model: &EvalModel<'_>,
    question: &Mcq,
    config: &InstructEvalConfig,
) -> (Vec<u32>, usize) {
    let (system, user) = instruct_method_messages(question);
    let msgs = [
        ChatMessage::new(Role::System, system),
        ChatMessage::new(Role::User, user),
    ];
    let mut prompt = ChatTemplate.render_prompt(model.tokenizer, &msgs);
    // Keep the tail if the prompt exceeds the context, reserving room to
    // generate.
    let cap = model.params.cfg.max_seq;
    let budget = config.max_new_tokens.min(cap.saturating_sub(8));
    if prompt.len() > cap - budget {
        prompt.drain(0..prompt.len() - (cap - budget));
    }
    (prompt, budget)
}

/// The engine job for one question, mirroring [`instruct_method_answer`]
/// exactly (prompt, budget, sampler and stop set). `rng` must be the same
/// substream the serial path would use for this question so sampling is
/// bitwise identical. Public so out-of-process front-ends (the network
/// gateway) can build jobs that match the in-process path.
pub fn generate_job(
    model: &EvalModel<'_>,
    question: &Mcq,
    config: &InstructEvalConfig,
    rng: Rng,
) -> GenerateJob {
    let (prompt, budget) = prompt_and_budget(model, question, config);
    GenerateJob {
        prompt,
        group: Some(question.article as u64),
        max_new: budget,
        sampler: config.sampler,
        rng,
        stop: vec![model.tokenizer.special("<|end|>"), model.tokenizer.eos()],
        trace: None,
    }
}

/// Generate an answer for one question.
pub fn instruct_method_answer(
    model: &EvalModel<'_>,
    question: &Mcq,
    config: &InstructEvalConfig,
    rng: &mut Rng,
) -> InstructAnswer {
    let (prompt, budget) = prompt_and_budget(model, question, config);
    let mut sess = InferenceSession::new(model.params.cfg);
    let mut logits = sess.feed_prompt(model.params, &prompt);
    let end = model.tokenizer.special("<|end|>");
    let eos = model.tokenizer.eos();
    let mut generated: Vec<u32> = Vec::with_capacity(budget);
    for _ in 0..budget {
        if sess.remaining() == 0 {
            break;
        }
        let next = sample_logits(&logits, &config.sampler, rng) as u32;
        if next == end || next == eos {
            break;
        }
        generated.push(next);
        logits = sess.feed(model.params, next).to_vec();
    }
    let raw = model.tokenizer.decode(&generated);
    let (prediction, stage) = extract_answer(&raw, &question.options);
    InstructAnswer {
        prediction,
        stage,
        raw,
        error: None,
    }
}

/// Evaluate the full-instruct method over a question set. Each question
/// draws from its own random substream (`"instruct-q"` by index), so the
/// results are identical for every `config.engine` setting — scheduling
/// order cannot leak into sampling.
pub fn instruct_method(
    model: &EvalModel<'_>,
    questions: &[&Mcq],
    config: &InstructEvalConfig,
    rng: &mut Rng,
) -> Vec<InstructAnswer> {
    if config.engine.is_serial_uncached() {
        // The pre-engine reference path: fresh session per question.
        return questions
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut qrng = rng.substream_idx("instruct-q", i as u64);
                instruct_method_answer(model, q, config, &mut qrng)
            })
            .collect();
    }
    let engine = EvalEngine::new(config.engine, model.params);
    let jobs: Vec<GenerateJob> = questions
        .iter()
        .enumerate()
        .map(|(i, q)| generate_job(model, q, config, rng.substream_idx("instruct-q", i as u64)))
        .collect();
    engine
        .generate_batch(jobs)
        .into_iter()
        .zip(questions.iter())
        .map(|(r, q)| match r {
            Ok(generated) => {
                let raw = model.tokenizer.decode(&generated);
                let (prediction, stage) = extract_answer(&raw, &q.options);
                InstructAnswer {
                    prediction,
                    stage,
                    raw,
                    error: None,
                }
            }
            Err(e) => InstructAnswer {
                prediction: None,
                stage: ExtractionStage::Failed,
                raw: String::new(),
                error: Some(e),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_mcq::{McqConfig, McqDataset};
    use astro_model::{ModelConfig, Params};
    use astro_tokenizer::{train_bpe, BpeTrainerConfig, Tokenizer};
    use astro_world::{World, WorldConfig};

    fn setup() -> (Tokenizer, McqDataset) {
        let world = World::generate(9, WorldConfig::small());
        let mut rng = Rng::seed_from(9);
        let ds = McqDataset::generate(&world, &McqConfig::default(), &mut rng);
        let corpus = ds
            .questions
            .iter()
            .take(20)
            .map(|q| q.question.clone())
            .collect::<Vec<_>>()
            .join(" ");
        let tok = train_bpe(
            &[corpus],
            &BpeTrainerConfig {
                vocab_size: 380,
                ..Default::default()
            },
        );
        (tok, ds)
    }

    #[test]
    fn generates_and_reports_stage() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(1));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let mut rng = Rng::seed_from(2);
        let a = instruct_method_answer(
            &model,
            &ds.questions[0],
            &InstructEvalConfig::default(),
            &mut rng,
        );
        // Untrained model: answer likely unparseable, but the pipeline
        // must complete and classify.
        match a.prediction {
            None => assert_eq!(a.stage, ExtractionStage::Failed),
            Some(p) => assert!(p < 4),
        }
    }

    #[test]
    fn respects_generation_budget() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(3));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let config = InstructEvalConfig {
            max_new_tokens: 4,
            ..Default::default()
        };
        let mut rng = Rng::seed_from(4);
        let a = instruct_method_answer(&model, &ds.questions[0], &config, &mut rng);
        assert!(tok.encode(&a.raw).len() <= 8, "raw too long: {:?}", a.raw);
    }

    #[test]
    fn batch_evaluation_is_deterministic_with_greedy() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(5));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let qs: Vec<&Mcq> = ds.questions.iter().take(3).collect();
        let mut r1 = Rng::seed_from(6);
        let mut r2 = Rng::seed_from(6);
        let a = instruct_method(&model, &qs, &InstructEvalConfig::default(), &mut r1);
        let b = instruct_method(&model, &qs, &InstructEvalConfig::default(), &mut r2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.raw, y.raw);
            assert_eq!(x.prediction, y.prediction);
        }
    }
}
