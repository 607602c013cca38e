//! Training loops for continual pretraining (CPT) and supervised
//! fine-tuning (SFT), mirroring the paper's LMFlow-based recipe:
//!
//! * AdamW with cosine decay + linear warmup (paper §III: warmup ratio
//!   0.03, cosine schedule);
//! * bf16 weight emulation (the paper trains in bf16);
//! * gradient accumulation and clipping;
//! * data parallelism over simulated devices, one thread each, with
//!   gradients averaged in ring all-reduce summation order (standing in
//!   for the multi-A100 setup);
//! * SFT with assistant-span loss masking over the chat template;
//! * an A100-hour cost model calibrated against the paper's reported
//!   GPU-hour figures.

pub mod cost;
pub mod data;
pub mod optim;
pub mod perplexity;
pub mod schedule;
pub mod sft;
pub mod trainer;

pub use cost::{a100_hours, CostModel, TrainingKind, PAPER_COSTS};
pub use perplexity::{held_out_loss, perplexity};
pub use data::{pack_documents, LmBatch, TokenStream};
pub use optim::{clip_grad_norm, AdamW};
pub use schedule::CosineSchedule;
pub use sft::{render_conversations, sft_batch, SftExample};
pub use trainer::{train_lm, BatchSource, TrainError, TrainReport, TrainerConfig};
