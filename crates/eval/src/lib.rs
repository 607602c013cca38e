//! The three AstroMLab benchmarking methods (paper §V) plus scoring,
//! reporting and the cost-efficiency value analysis.
//!
//! * **Full instruct** ([`instruct_method`]) — conversational prompting of
//!   the instruct model with chain-of-thought + JSON output instructions;
//!   answers recovered by a JSON parse, then a pattern extractor, then a
//!   fallback interpreter standing in for the paper's GPT-4o rescue pass.
//! * **Base-model token prediction** ([`token_method`]) — the two-shot
//!   `Answer:` prompt; the argmax over the four answer-letter tokens is
//!   the prediction, with dynamic detection of leading-space token
//!   variants (`"A"` vs `" A"`).
//! * **Instruct-model token prediction** — the same logit readout applied
//!   to the post-SFT model.
//!
//! [`report`] renders Table I (with the paper's ↑/↓/⇒ arrows) and
//! Figure 1; [`value`] implements the score-to-cost-efficiency
//! extrapolation the paper cites from Ting et al. 2024.

pub mod extract;
pub mod instruct_method;
pub mod json;
pub mod oracle;
pub mod report;
pub mod score;
pub mod token_method;
pub mod value;

pub use extract::{extract_answer, ExtractionStage};
pub use instruct_method::{
    generate_job, instruct_method, instruct_method_answer, InstructAnswer, InstructEvalConfig,
};
pub use oracle::FlagshipOracle;
pub use score::{bootstrap_ci, evaluate_checked, EvalFailure, Method, Outcome, Score};
pub use token_method::{
    pick_option, score_job, token_method_outcomes, token_method_predict,
    AnswerReadout, TokenEvalConfig, TokenOutcome,
};

/// A model under evaluation: parameters plus the tokenizer it was trained
/// with.
pub struct EvalModel<'a> {
    /// Model weights.
    pub params: &'a astro_model::Params,
    /// The tokenizer (shared across the whole study).
    pub tokenizer: &'a astro_tokenizer::Tokenizer,
}

impl EvalModel<'_> {
    /// Check that the tokenizer and the embedding table agree: every
    /// token id the tokenizer can emit must index a row of the embedding.
    /// [`evaluate_checked`] asserts this before scoring.
    pub fn validate(&self) -> Result<(), String> {
        let rows = self.params.cfg.vocab_size;
        let vocab = self.tokenizer.vocab_size();
        if vocab > rows {
            return Err(format!(
                "tokenizer emits {vocab} token ids but the embedding has only {rows} rows; \
                 ids {rows}..{vocab} would index out of bounds"
            ));
        }
        Ok(())
    }
}
