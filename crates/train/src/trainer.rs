//! The training driver: CPT and SFT share one loop that differs only in
//! its batch source.
//!
//! Structure per optimizer step (the update LMFlow's data-parallel run
//! applies, on one device):
//!
//! 1. sample one batch from the run's stream and compute the loss and its
//!    gradient over the weights (`TrainContext::loss_and_grad`);
//! 2. clip the gradient and apply one AdamW update under the cosine
//!    schedule;
//! 3. optionally, round the weights to bf16 (the paper trains in bf16).

use crate::data::{LmBatch, TokenStream};
use crate::optim::{clip_grad_norm, AdamW};
use crate::schedule::CosineSchedule;
use crate::sft::{sft_batch, SftExample};
use astro_model::{Params, TrainContext};
use astro_prng::Rng;
use astro_telemetry::cores::Cores;
use astro_tensor::bf16::bf16_round_slice;

/// Where batches come from.
pub enum BatchSource<'a> {
    /// Packed-stream language modelling (CPT / native pretraining).
    Lm(&'a TokenStream),
    /// Loss-masked SFT examples with the pad token id.
    Sft(&'a [SftExample], u32),
}

/// Typed training failure. On any error the caller's `params` are left
/// exactly as passed in — the loop publishes weights only on success.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainError {
    /// Hyper-parameters failed [`TrainerConfig::validate`].
    InvalidConfig(String),
    /// The loss became non-finite at `step` — divergence, data
    /// corruption, or the `train.nan_loss` injected fault. The update
    /// for that step is *not* applied.
    NonFiniteLoss {
        /// Optimizer step at which the loss left the reals.
        step: u64,
        /// The offending loss value.
        loss: f32,
    },
    /// A conversation turn carried a role the chat template doesn't know
    /// (surfaced by [`crate::sft::render_conversations`]).
    UnknownRole(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidConfig(why) => write!(f, "invalid TrainerConfig: {why}"),
            TrainError::NonFiniteLoss { step, loss } => {
                write!(f, "non-finite loss {loss} at step {step}")
            }
            TrainError::UnknownRole(role) => write!(f, "unknown conversation role {role:?}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Trainer hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Peak learning rate.
    pub lr: f32,
    /// Rows per batch.
    pub batch: usize,
    /// Window length.
    pub seq: usize,
    /// Optimizer steps.
    pub steps: u64,
    /// Warmup ratio (paper: 0.03).
    pub warmup_ratio: f64,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// Round weights to bf16 after each update.
    pub bf16_weights: bool,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Record the loss every N steps (0 = only first/last).
    pub log_every: u64,
}

impl TrainerConfig {
    /// Validate hyper-parameters before building buffers. [`train_lm`]
    /// asserts this.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch == 0 || self.seq == 0 || self.steps == 0 {
            return Err(format!(
                "batch {}, seq {} and steps {} must all be nonzero",
                self.batch, self.seq, self.steps
            ));
        }
        if !(self.lr > 0.0 && self.lr.is_finite()) {
            return Err(format!("lr must be positive and finite, got {}", self.lr));
        }
        if !(0.0..=1.0).contains(&self.warmup_ratio) {
            return Err(format!("warmup_ratio {} outside [0, 1]", self.warmup_ratio));
        }
        if self.grad_clip < 0.0 || !self.grad_clip.is_finite() {
            return Err(format!("grad_clip must be finite and >= 0, got {}", self.grad_clip));
        }
        if self.weight_decay < 0.0 || !self.weight_decay.is_finite() {
            return Err(format!(
                "weight_decay must be finite and >= 0, got {}",
                self.weight_decay
            ));
        }
        Ok(())
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            lr: 2e-3,
            batch: 8,
            seq: 64,
            steps: 100,
            warmup_ratio: 0.03,
            grad_clip: 1.0,
            bf16_weights: true,
            weight_decay: 0.01,
            log_every: 10,
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Optimizer steps taken.
    pub steps: u64,
    /// Total tokens processed.
    pub tokens_processed: u64,
    /// `(step, loss)` samples.
    pub losses: Vec<(u64, f32)>,
    /// Loss at the last step.
    pub final_loss: f32,
}

impl TrainReport {
    /// Mean of the last `k` recorded losses (robust end-of-training
    /// estimate).
    pub fn tail_loss(&self, k: usize) -> f32 {
        let n = self.losses.len();
        if n == 0 {
            return self.final_loss;
        }
        let take = k.max(1).min(n);
        self.losses[n - take..].iter().map(|&(_, l)| l).sum::<f32>() / take as f32
    }
}

/// Train `params` in place. Returns the training report, or a typed
/// error (invalid config, non-finite loss) with `params` untouched.
pub fn train_lm(
    params: &mut Params,
    source: BatchSource<'_>,
    cfg: &TrainerConfig,
    rng: &Rng,
) -> Result<TrainReport, TrainError> {
    cfg.validate().map_err(TrainError::InvalidConfig)?;
    let kind = match source {
        BatchSource::Lm(_) => "lm",
        BatchSource::Sft(..) => "sft",
    };
    let train_span = astro_telemetry::span!("train", kind = kind, steps = cfg.steps);
    let tokens_counter = astro_telemetry::counter("train.tokens");
    let steps_counter = astro_telemetry::counter("train.steps");
    let step_tokens = (cfg.batch * cfg.seq) as u64;
    let schedule = CosineSchedule::new(cfg.lr, cfg.steps, cfg.warmup_ratio);
    let n = params.data.len();

    // The working copy is published only on success, so an error leaves
    // the caller's weights untouched.
    let mut weights = params.clone();
    let mut opt = AdamW::new(n);
    opt.weight_decay = cfg.weight_decay;
    let mut ctx = TrainContext::new(params.cfg, cfg.batch, cfg.seq);
    let mut grad = vec![0.0; n];
    // The stream's name is part of every recorded run's weights: renaming
    // it moves them all.
    let mut batch_rng = rng.substream_idx("train-device", 0);

    // One core for the whole run.
    let _hold = Cores::process().hold();

    let mut losses = Vec::new();
    // Rate bookkeeping for `train.step` telemetry: tokens since the last
    // recorded step over the wall time since then.
    let mut mark = (std::time::Instant::now(), 0u64);
    for step in 0..cfg.steps {
        let batch = match &source {
            BatchSource::Lm(stream) => LmBatch::sample(stream, cfg.batch, cfg.seq, &mut batch_rng),
            BatchSource::Sft(examples, pad) => {
                sft_batch(examples, cfg.batch, cfg.seq, *pad, &mut batch_rng)
            }
        };
        grad.fill(0.0);
        let mut loss =
            ctx.loss_and_grad(&weights, &batch.tokens, &batch.targets, &batch.mask, &mut grad);
        // Abort on a non-finite loss *before* applying the update, so a
        // diverged (or fault-injected) step never poisons the weights.
        if astro_telemetry::fault::should_fault("train.nan_loss") {
            loss = f32::NAN;
        }
        if !loss.is_finite() {
            astro_telemetry::Event::new("train.abort")
                .str_field("kind", kind)
                .u64_field("step", step)
                .f64_field("loss", loss as f64)
                .emit();
            return Err(TrainError::NonFiniteLoss { step, loss });
        }
        let lr = schedule.lr_at(step);
        let grad_norm = if cfg.grad_clip > 0.0 {
            clip_grad_norm(&mut grad, cfg.grad_clip)
        } else {
            f32::NAN
        };
        opt.step(&mut weights.data, &grad, lr);
        if cfg.bf16_weights {
            bf16_round_slice(&mut weights.data);
        }
        steps_counter.inc();
        tokens_counter.add(step_tokens);
        let record = step == 0
            || step + 1 == cfg.steps
            || (cfg.log_every > 0 && step % cfg.log_every == 0);
        if record {
            losses.push((step, loss));
            let done = step + 1;
            let dt = mark.0.elapsed().as_secs_f64();
            let tok_per_sec = ((done - mark.1) * step_tokens) as f64 / dt.max(1e-9);
            mark = (std::time::Instant::now(), done);
            astro_telemetry::Event::new("train.step")
                .str_field("kind", kind)
                .u64_field("step", step)
                .f64_field("loss", loss as f64)
                .f64_field("lr", lr as f64)
                .f64_field("grad_norm", grad_norm as f64)
                .f64_field("tok_per_sec", tok_per_sec)
                .emit();
            astro_telemetry::debug!(
                "train[{kind}] step {step}/{} loss {loss:.4} lr {lr:.3e} {tok_per_sec:.0} tok/s",
                cfg.steps
            );
        }
    }

    let final_loss = losses.last().map(|&(_, l)| l).unwrap_or(f32::NAN);
    params.data = weights.data;

    let tokens_processed = cfg.steps * step_tokens;
    train_span.record_f64("tokens", tokens_processed as f64);
    Ok(TrainReport {
        steps: cfg.steps,
        tokens_processed,
        losses,
        final_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::pack_documents;
    use crate::sft::render_conversations;
    use astro_model::ModelConfig;
    use astro_tokenizer::{train_bpe, BpeTrainerConfig, Tokenizer};
    use astro_world::{Conversation, Document, DocumentKind, InstructKind, Turn};

    fn tok_and_stream() -> (Tokenizer, TokenStream) {
        let text = "the star shines on the galaxy and the dust of the nebula ".repeat(8);
        let tok = train_bpe(
            std::slice::from_ref(&text),
            &BpeTrainerConfig {
                vocab_size: 290,
                ..Default::default()
            },
        );
        let docs: Vec<Document> = (0..6)
            .map(|_| Document {
                kind: DocumentKind::General,
                article: None,
                text: text.clone(),
            })
            .collect();
        let stream = pack_documents(&tok, &docs);
        (tok, stream)
    }

    fn small_cfg(steps: u64) -> TrainerConfig {
        TrainerConfig {
            lr: 1e-2,
            batch: 4,
            seq: 24,
            steps,
            bf16_weights: false,
            log_every: 5,
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_lm_loss() {
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(1));
        let report = train_lm(
            &mut params,
            BatchSource::Lm(&stream),
            &small_cfg(60),
            &Rng::seed_from(2),
        )
        .expect("train");
        let first = report.losses.first().unwrap().1;
        let last = report.tail_loss(3);
        assert!(last < first * 0.8, "loss {first} → {last}");
        assert_eq!(report.steps, 60);
        assert_eq!(report.tokens_processed, 60 * 4 * 24);
    }

    #[test]
    fn single_device_weights_are_pinned_bit_for_bit() {
        // Digests of the weights and of the recorded losses after 6 steps
        // of one device: sample, loss and gradient, clip, AdamW. Any change
        // to the batch stream, the update order or the loss bookkeeping
        // moves them.
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(12));
        let report =
            train_lm(&mut params, BatchSource::Lm(&stream), &small_cfg(6), &Rng::seed_from(13))
                .expect("train");
        let bits: Vec<u8> = params.data.iter().flat_map(|w| w.to_bits().to_le_bytes()).collect();
        assert_eq!(astro_resilience::fnv64(&bits), 0x3778_57ea_33e9_e1a6, "weights");
        let losses: Vec<u8> = report
            .losses
            .iter()
            .flat_map(|&(step, loss)| {
                step.to_le_bytes().into_iter().chain(loss.to_bits().to_le_bytes())
            })
            .collect();
        assert_eq!(astro_resilience::fnv64(&losses), 0x3fb7_8fea_2478_5ced, "losses");
    }

    #[test]
    fn deterministic_given_seed() {
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let run = |seed| {
            let mut p = Params::init(cfg_model, &mut Rng::seed_from(5));
            train_lm(
                &mut p,
                BatchSource::Lm(&stream),
                &small_cfg(10),
                &Rng::seed_from(seed),
            )
            .expect("train");
            p.data
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bf16_rounding_keeps_weights_bf16() {
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(6));
        let mut cfg = small_cfg(5);
        cfg.bf16_weights = true;
        train_lm(&mut params, BatchSource::Lm(&stream), &cfg, &Rng::seed_from(7)).expect("train");
        for &w in params.data.iter().take(500) {
            assert_eq!(w, astro_tensor::bf16::bf16_round(w), "weight not bf16: {w}");
        }
    }

    #[test]
    fn sft_training_reduces_loss() {
        let (tok, _) = tok_and_stream();
        let convs: Vec<Conversation> = (0..8)
            .map(|i| Conversation {
                kind: InstructKind::LimaLike,
                turns: vec![
                    Turn {
                        role: "user",
                        text: format!("the star {i}"),
                    },
                    Turn {
                        role: "assistant",
                        text: "shines on the galaxy".to_string(),
                    },
                ],
            })
            .collect();
        let examples = render_conversations(&tok, &convs).expect("render");
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(8));
        let report = train_lm(
            &mut params,
            BatchSource::Sft(&examples, tok.pad()),
            &small_cfg(60),
            &Rng::seed_from(9),
        )
        .expect("train");
        assert!(
            report.tail_loss(3) < report.losses[0].1 * 0.9,
            "SFT loss {} → {}",
            report.losses[0].1,
            report.tail_loss(3)
        );
    }

    #[test]
    fn tail_loss_handles_short_history() {
        let r = TrainReport {
            steps: 1,
            tokens_processed: 0,
            losses: vec![(0, 2.0)],
            final_loss: 2.0,
        };
        assert_eq!(r.tail_loss(5), 2.0);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(1));
        let mut cfg = small_cfg(10);
        cfg.steps = 0;
        let before = params.data.clone();
        let err = train_lm(&mut params, BatchSource::Lm(&stream), &cfg, &Rng::seed_from(2))
            .unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
        assert_eq!(params.data, before, "params must be untouched on error");
    }

    #[test]
    fn diverging_loss_is_a_typed_error_and_params_survive() {
        // An absurd learning rate blows the weights up within a step or
        // two; the loop must surface NonFiniteLoss instead of publishing
        // garbage weights. (The injected `train.nan_loss` variant of this
        // is exercised by the workspace chaos suite, which serialises
        // access to the global fault plan.)
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(1));
        let before = params.data.clone();
        let mut cfg = small_cfg(20);
        cfg.lr = 1e30;
        let err = train_lm(&mut params, BatchSource::Lm(&stream), &cfg, &Rng::seed_from(2))
            .unwrap_err();
        assert!(matches!(err, TrainError::NonFiniteLoss { .. }), "{err}");
        assert_eq!(params.data, before, "diverged run must not publish weights");
    }
}
