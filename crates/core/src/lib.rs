//! # AstroMLab 2 reproduction — top-level API
//!
//! This crate ties the substrates together into the paper's full pipeline:
//!
//! 1. generate the synthetic astronomy world and its MCQ benchmark;
//! 2. train a BPE tokenizer and pretrain three *native* models (the
//!    LLaMA-2-7B / LLaMA-3-8B / LLaMA-2-70B stand-ins) on the general
//!    corpus;
//! 3. continually pretrain (CPT) the AstroLLaMA variants on the
//!    Abstract / AIC / Summary recipes;
//! 4. supervised fine-tune (SFT) instruct versions on the paper's
//!    conversation mixture;
//! 5. evaluate every model under the three benchmarking methods and
//!    render Table I / Figure 1.
//!
//! ```no_run
//! use astromlab::eval::report::render_table1;
//! use astromlab::eval::Method;
//! use astromlab::{ModelId, Study, StudyConfig};
//! use std::path::Path;
//!
//! # fn main() -> Result<(), astromlab::study::StudyError> {
//! let study = Study::prepare(StudyConfig::fast(42))?;
//! // Checkpoints + a run ledger under runs/fast-42: a re-run after an
//! // interruption resumes there with bitwise-identical scores.
//! let result = study.run_study(Path::new("runs/fast-42"))?;
//! println!("{}", render_table1(&result.rows()));
//!
//! // Any model's weights or scores, by recipe, from the same directory.
//! let mut run = study.open_run(Path::new("runs/fast-42"))?;
//! let score = run.score(&ModelId::AstroLlama2_70bAic.recipe(), Method::TokenBase)?;
//! # Ok(())
//! # }
//! ```
//!
//! Every trained model is a [`Recipe`] (native, CPT or SFT of a parent);
//! the [`ablations`] module's design-choice experiments indexed in
//! DESIGN.md (data quality, SFT mixture, eval-method options) are more
//! recipes in the same run directory.

pub mod ablations;
pub mod presets;
pub mod study;
pub mod zoo;

pub use presets::StudyConfig;
pub use study::{RunDir, Study, StudyError, StudyResult};
pub use zoo::{ModelId, Recipe};

// Re-export the substrate crates so downstream users need one dependency.
pub use astro_eval as eval;
pub use astro_mcq as mcq;
pub use astro_model as model;
pub use astro_prng as prng;
pub use astro_serve as serve;
pub use astro_tensor as tensor;
pub use astro_tokenizer as tokenizer;
pub use astro_train as train;
pub use astro_world as world;
