//! The next-token benchmarking method (paper §V-B, Appendix C).
//!
//! The model sees a two-shot prompt ending in `Answer:` and the answer is
//! read from the logits of the next token. Two readouts are implemented:
//!
//! * [`AnswerReadout::OptionValue`] (default) — compare the logits of the
//!   four options' leading value tokens. This is this world's exam
//!   convention (see `astro_world::exam_primer_doc`): tiny models cannot
//!   form the letter-indirection circuit that web-scale pretraining
//!   installs in real LLMs, so the value token *is* the answer
//!   representation. Token variants (with/without leading space) are
//!   detected dynamically, exactly as the paper does for letters.
//! * [`AnswerReadout::Letter`] — the paper's literal A–D letter readout,
//!   kept as an ablation (`ablation_eval_method`) demonstrating why the
//!   substitution was needed.

use crate::EvalModel;
use astro_mcq::prompts::token_method_prompt;
use astro_mcq::Mcq;
use astro_model::{continuation_loglik, InferenceSession};
use astro_serve::{EngineConfig, EvalEngine, ScoreJob, ScoreReadout, ServeError};
use astro_tokenizer::TokenId;

/// Which token representation encodes "the answer" in the readout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerReadout {
    /// Compare the four options' leading value tokens (default).
    OptionValue,
    /// Compare the four letter tokens A–D (paper-literal; ablation).
    Letter,
}

/// Configuration for the token method.
#[derive(Clone, Copy, Debug)]
pub struct TokenEvalConfig {
    /// Few-shot examples in the prompt (paper: 2).
    pub shots: usize,
    /// Detect leading-space token variants dynamically (paper: on). When
    /// off, only the no-space representation is considered.
    pub detect_variants: bool,
    /// Answer representation to read.
    pub readout: AnswerReadout,
    /// How batches execute: worker count and prefix caching. The default
    /// ([`EngineConfig::serial`]) preserves the original single-threaded
    /// fresh-session behaviour exactly.
    pub engine: EngineConfig,
}

impl Default for TokenEvalConfig {
    fn default() -> Self {
        TokenEvalConfig {
            shots: 2,
            detect_variants: true,
            readout: AnswerReadout::OptionValue,
            engine: EngineConfig::serial(),
        }
    }
}

impl TokenEvalConfig {
    /// Structural validation: bound the shot count (prompts must leave
    /// room for the question under every model's context window) and
    /// delegate to [`EngineConfig::validate`]. Checked at gateway startup
    /// and usable by any embedding before work is scheduled.
    pub fn validate(&self) -> Result<(), String> {
        if self.shots > MAX_SHOTS {
            return Err(format!(
                "token-method shots {} exceeds the {MAX_SHOTS}-shot bound",
                self.shots
            ));
        }
        self.engine.validate().map_err(|e| format!("engine: {e}"))
    }
}

/// Upper bound on few-shot exemplars in the token-method prompt.
pub const MAX_SHOTS: usize = 16;

/// Candidate token ids for a piece of answer text: its leading token with
/// and (when `detect` is on) without a leading space. Falls back to the
/// first token of the encoded piece when no single-token representation
/// exists.
fn answer_candidates(model: &EvalModel<'_>, text: &str, detect: bool) -> Vec<TokenId> {
    let mut out = Vec::with_capacity(2);
    let head = text.split(' ').next().unwrap_or(text);
    if let Some(id) = model.tokenizer.token_for_str(head) {
        out.push(id);
    }
    if detect {
        if let Some(id) = model.tokenizer.token_for_str(&format!(" {head}")) {
            out.push(id);
        }
    }
    if out.is_empty() {
        // Multi-token representation: use the leading token of the
        // spaced encoding (the form that follows "Answer:").
        let ids = model.tokenizer.encode(&format!(" {head}"));
        if let Some(&first) = ids.first() {
            out.push(first);
        }
    }
    out
}

/// Predict the answer index for one question. Returns `(prediction,
/// per-option scores)`.
///
/// With [`AnswerReadout::OptionValue`], each option is scored by the
/// length-normalised log-likelihood of its full `" {option}"` continuation
/// after the `Answer:` prompt (robust to shared prefixes and multi-token
/// values); when `detect_variants` is on, the unspaced variant is also
/// scored and the maximum taken — the multi-token generalisation of the
/// paper's `"A"` vs `" A"` detection. With [`AnswerReadout::Letter`], the
/// paper's literal single-token letter logits are compared.
pub fn token_method_predict(
    model: &EvalModel<'_>,
    question: &Mcq,
    exemplars: &[Mcq],
    config: &TokenEvalConfig,
) -> (usize, [f32; 4]) {
    let tokens = prompt_tokens(model, question, exemplars, config);
    let mut sess = InferenceSession::new(model.params.cfg);
    sess.feed_prompt(model.params, &tokens);

    let mut scores = [f32::NEG_INFINITY; 4];
    match config.readout {
        AnswerReadout::OptionValue => {
            for (i, opt) in question.options.iter().enumerate() {
                let spaced = model.tokenizer.encode(&format!(" {opt}"));
                let mut s = continuation_loglik(model.params, &sess, &spaced);
                if config.detect_variants {
                    let bare = model.tokenizer.encode(opt);
                    s = s.max(continuation_loglik(model.params, &sess, &bare));
                }
                scores[i] = s;
            }
        }
        AnswerReadout::Letter => {
            let logits = sess.last_logits();
            for (i, letter) in ['A', 'B', 'C', 'D'].iter().enumerate() {
                for id in answer_candidates(model, &letter.to_string(), config.detect_variants) {
                    scores[i] = scores[i].max(logits[id as usize]);
                }
            }
        }
    }
    pick_option(&scores)
}

/// The option a score row picks, with the row padded to four options by
/// `-inf` (entries past four are ignored). The pick is the lowest index
/// holding the maximum under strict `>`: ties keep the lower index, a row
/// of `-inf` picks option 0, and a NaN is never picked unless it is option
/// 0, which nothing then beats. The serial path, the engine path and the
/// gateway all pick through here.
pub fn pick_option(row: &[f32]) -> (usize, [f32; 4]) {
    let mut scores = [f32::NEG_INFINITY; 4];
    for (dst, src) in scores.iter_mut().zip(row) {
        *dst = *src;
    }
    let mut best = 0;
    for i in 1..4 {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    (best, scores)
}

/// The encoded, truncated prompt for one question — shared by the serial
/// path and the engine job builder so both score the identical context.
fn prompt_tokens(
    model: &EvalModel<'_>,
    question: &Mcq,
    exemplars: &[Mcq],
    config: &TokenEvalConfig,
) -> Vec<u32> {
    let prompt = token_method_prompt(question, exemplars, config.shots);
    let mut tokens = model.tokenizer.encode_with_bounds(&prompt, false);
    // Fit the KV cache, leaving room to score continuations: keep the
    // *tail* of the prompt (the test question must survive truncation;
    // exemplars are expendable).
    let cap = model.params.cfg.max_seq.saturating_sub(12).max(1);
    if tokens.len() > cap {
        tokens.drain(0..tokens.len() - cap);
    }
    tokens
}

/// One question's token-method outcome with full diagnostics.
#[derive(Clone, Debug)]
pub struct TokenOutcome {
    /// The predicted option index (0 when the question errored).
    pub prediction: usize,
    /// Per-option scores (all `-inf` when the question errored).
    pub scores: [f32; 4],
    /// A per-question engine failure (e.g. the prompt overflowed the KV
    /// cache even after the uncached retry, or the job panicked); the rest
    /// of the sweep is unaffected.
    pub error: Option<ServeError>,
}

/// The engine job for one question, mirroring [`token_method_predict`]'s
/// readout structure exactly (variant order included, so max-folding is
/// bitwise identical). Public so out-of-process front-ends (the network
/// gateway) can build jobs that are bitwise identical to the in-process
/// path.
pub fn score_job(
    model: &EvalModel<'_>,
    question: &Mcq,
    exemplars: &[Mcq],
    config: &TokenEvalConfig,
) -> ScoreJob {
    let readout = match config.readout {
        AnswerReadout::OptionValue => ScoreReadout::ContinuationGroups(
            question
                .options
                .iter()
                .map(|opt| {
                    let mut variants = vec![model.tokenizer.encode(&format!(" {opt}"))];
                    if config.detect_variants {
                        variants.push(model.tokenizer.encode(opt));
                    }
                    variants
                })
                .collect(),
        ),
        AnswerReadout::Letter => ScoreReadout::LogitGroups(
            ['A', 'B', 'C', 'D']
                .iter()
                .map(|letter| {
                    answer_candidates(model, &letter.to_string(), config.detect_variants)
                })
                .collect(),
        ),
    };
    ScoreJob {
        prompt: prompt_tokens(model, question, exemplars, config),
        group: Some(question.article as u64),
        readout,
        trace: None,
    }
}

/// Evaluate the token method over a question set with full per-question
/// outcomes. `config.engine` selects the execution strategy; every
/// setting produces bit-identical scores (`tests/eval_parity.rs`).
pub fn token_method_outcomes(
    model: &EvalModel<'_>,
    questions: &[&Mcq],
    exemplars: &[Mcq],
    config: &TokenEvalConfig,
) -> Vec<TokenOutcome> {
    if config.engine.is_serial_uncached() {
        // The pre-engine reference path: fresh session per question.
        return questions
            .iter()
            .map(|q| {
                let (prediction, scores) = token_method_predict(model, q, exemplars, config);
                TokenOutcome {
                    prediction,
                    scores,
                    error: None,
                }
            })
            .collect();
    }
    let engine = EvalEngine::new(config.engine, model.params);
    let jobs: Vec<ScoreJob> = questions
        .iter()
        .map(|q| score_job(model, q, exemplars, config))
        .collect();
    engine
        .score_batch(jobs)
        .into_iter()
        .map(|r| match r {
            Ok(s) => {
                let (best, scores) = pick_option(&s);
                TokenOutcome {
                    prediction: best,
                    scores,
                    error: None,
                }
            }
            Err(e) => TokenOutcome {
                prediction: 0,
                scores: [f32::NEG_INFINITY; 4],
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
    use astro_prng::Rng;
    use astro_tokenizer::{train_bpe, BpeTrainerConfig, Tokenizer};
    use astro_world::{World, WorldConfig};

    #[test]
    fn pick_option_takes_the_lowest_index_maximum_of_a_padded_row() {
        let inf = f32::NEG_INFINITY;
        // Ties keep the lower index.
        assert_eq!(pick_option(&[1.0, 3.0, 3.0, 2.0]), (1, [1.0, 3.0, 3.0, 2.0]));
        assert_eq!(pick_option(&[0.5; 4]).0, 0);
        // Short rows pad with -inf, long rows are cut at four.
        assert_eq!(pick_option(&[-2.0, -1.0]), (1, [-2.0, -1.0, inf, inf]));
        assert_eq!(pick_option(&[0.0, 0.0, 0.0, 0.0, 9.0]).0, 0);
        assert_eq!(pick_option(&[]), (0, [inf; 4]));
        assert_eq!(pick_option(&[inf, inf, inf, inf]).0, 0);
        // A NaN loses every comparison: it is picked only as option 0.
        assert_eq!(pick_option(&[1.0, f32::NAN, 2.0, inf]).0, 2);
        assert_eq!(pick_option(&[f32::NAN, 1.0, 2.0, 3.0]).0, 0);
    }

    fn setup() -> (Tokenizer, McqDataset) {
        let world = World::generate(3, WorldConfig::small());
        let mut rng = Rng::seed_from(3);
        let ds = McqDataset::generate(&world, &McqConfig::default(), &mut rng);
        // Train the tokenizer on MCQ-style text so answer variants exist.
        let corpus = ds
            .questions
            .iter()
            .take(30)
            .map(|q| astro_mcq::prompts::render_block(q, true))
            .collect::<Vec<_>>()
            .join("\n\n");
        let tok = train_bpe(
            &[corpus],
            &BpeTrainerConfig {
                vocab_size: 420,
                ..Default::default()
            },
        );
        (tok, ds)
    }

    #[test]
    fn predictions_are_valid_indices_for_both_readouts() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(1));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let qs: Vec<&Mcq> = ds.questions.iter().take(5).collect();
        for readout in [AnswerReadout::OptionValue, AnswerReadout::Letter] {
            let cfg_eval = TokenEvalConfig {
                readout,
                ..Default::default()
            };
            let outcomes = token_method_outcomes(&model, &qs, &ds.exemplars, &cfg_eval);
            assert_eq!(outcomes.len(), 5);
            assert!(outcomes.iter().all(|o| o.prediction < 4));
        }
    }

    #[test]
    fn prompt_longer_than_context_is_truncated_not_panicking() {
        let (tok, ds) = setup();
        let mut cfg = ModelConfig::tiny(tok.vocab_size());
        cfg.max_seq = 24;
        let params = Params::init(cfg, &mut Rng::seed_from(2));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let (pred, _) = token_method_predict(
            &model,
            &ds.questions[0],
            &ds.exemplars,
            &TokenEvalConfig::default(),
        );
        assert!(pred < 4);
    }

    #[test]
    fn option_candidates_never_empty() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(4));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        for q in ds.questions.iter().take(20) {
            for opt in &q.options {
                assert!(
                    !answer_candidates(&model, opt, true).is_empty(),
                    "option {opt:?} has no candidate tokens"
                );
                assert!(!answer_candidates(&model, opt, false).is_empty());
            }
        }
    }

    #[test]
    fn variant_detection_adds_candidates() {
        // Train on text with value-after-space patterns so spaced variants
        // exist.
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(5));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let mut with_more = 0;
        for q in ds.questions.iter().take(30) {
            for opt in &q.options {
                let with = answer_candidates(&model, opt, true).len();
                let without = answer_candidates(&model, opt, false).len();
                assert!(with >= without);
                if with > without {
                    with_more += 1;
                }
            }
        }
        assert!(with_more > 0, "detection never added a variant");
    }

    #[test]
    fn deterministic_predictions() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(5));
        let model = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let a = token_method_predict(&model, &ds.questions[0], &ds.exemplars, &TokenEvalConfig::default());
        let b = token_method_predict(&model, &ds.questions[0], &ds.exemplars, &TokenEvalConfig::default());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    /// A rigged model whose embedding makes one option's token the argmax
    /// must be scored as choosing that option.
    #[test]
    fn readout_selects_highest_logit_option() {
        let (tok, ds) = setup();
        let cfg = ModelConfig::tiny(tok.vocab_size());
        let params = Params::init(cfg, &mut Rng::seed_from(6));
        let q = &ds.questions[0];
        // Boost the target option's first token massively via the tied
        // embedding (logits = xf · Embᵀ: scale the row so its logit grows
        // with any positive overlap; to be safe, test both signs by trying
        // until the prediction matches expectation).
        let model_ref = EvalModel {
            params: &params,
            tokenizer: &tok,
        };
        let target = 2usize;
        let continuation = tok.encode(&format!(" {}", q.options[target]));
        // Compute current xf direction by running once, then set the
        // embedding row to a large multiple of... simpler: set the row to
        // large values aligned with the final norm output sign. Instead,
        // empirically scale the row until the option wins.
        let d = cfg.d_model;
        let _ = model_ref;
        for scale in [10.0f32, -10.0, 100.0, -100.0] {
            let mut p2 = params.clone();
            for &tok_id in &continuation {
                let id = tok_id as usize;
                for v in &mut p2.data[id * d..(id + 1) * d] {
                    *v = scale;
                }
            }
            let model = EvalModel {
                params: &p2,
                tokenizer: &tok,
            };
            let (pred, scores) = token_method_predict(&model, q, &ds.exemplars, &TokenEvalConfig::default());
            if pred == target {
                assert!(scores[target] >= scores[(target + 1) % 4]);
                return;
            }
        }
        // Keep `params` alive for clarity.
        let _ = params.len();
        panic!("could not rig the model to select the target option");
    }
}
