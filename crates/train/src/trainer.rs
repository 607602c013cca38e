//! The training driver: CPT and SFT share one loop that differs only in
//! its batch source.
//!
//! Structure per optimizer step (faithful to multi-GPU LMFlow training):
//!
//! 1. every simulated device samples `grad_accum` micro-batches from its
//!    own stream shard and accumulates gradients locally over the shared
//!    weights, the devices packed onto the run's held core plus whatever
//!    idle cores the step borrows (`astro_telemetry::cores`);
//! 2. gradients are averaged across devices in the order a ring
//!    all-reduce sums them (`ring_mean`);
//! 3. the averaged gradient is clipped and applied by one AdamW under the
//!    cosine schedule. Under DDP every replica applies this same update
//!    to the same gradient and stays bit-identical, so one copy of the
//!    weights is the same program;
//! 4. optionally, weights are rounded to bf16 (the paper trains in bf16).

use crate::data::{LmBatch, TokenStream};
use crate::optim::{clip_grad_norm, AdamW};
use crate::schedule::CosineSchedule;
use crate::sft::{sft_batch, SftExample};
use astro_model::{Params, TrainContext};
use astro_prng::Rng;
use astro_telemetry::cores::{self, Cores};
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
    /// Rows per micro-batch per device.
    pub batch: usize,
    /// Window length.
    pub seq: usize,
    /// Optimizer steps.
    pub steps: u64,
    /// Warmup ratio (paper: 0.03).
    pub warmup_ratio: f64,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// Micro-batches accumulated per step.
    pub grad_accum: usize,
    /// Simulated data-parallel devices.
    pub devices: usize,
    /// Round weights to bf16 after each update.
    pub bf16_weights: bool,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Record the loss every N steps (0 = only first/last).
    pub log_every: u64,
}

impl TrainerConfig {
    /// Validate hyper-parameters before building replicas or buffers.
    /// [`train_lm`] asserts this.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 || self.grad_accum == 0 || self.steps == 0 {
            return Err(format!(
                "devices {}, grad_accum {} and steps {} must all be nonzero",
                self.devices, self.grad_accum, self.steps
            ));
        }
        if self.batch == 0 || self.seq == 0 {
            return Err(format!("batch {} and seq {} must be nonzero", self.batch, self.seq));
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
            grad_accum: 1,
            devices: 1,
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
    /// Total tokens processed across all devices.
    pub tokens_processed: u64,
    /// `(step, loss)` samples from device 0.
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

/// Per-device state: everything but the weights and the optimizer,
/// which all devices share.
struct Device {
    ctx: TrainContext,
    grad: Vec<f32>,
    rng: Rng,
    last_loss: f32,
}

/// Replace `grads[0]` with the element-wise mean of `grads`, summed the
/// way a ring all-reduce over `grads.len()` devices sums it.
///
/// The buffer is cut into one contiguous chunk per device (`len / n`
/// elements, plus one for each of the first `len % n` chunks). The ring
/// accumulates chunk `c` as it travels from device `c` around to device
/// `c − 1`, so chunk `c` of the sum is `((b_c + b_{c+1}) + …) + b_{c−1}`,
/// then scaled by `1 / n`. The order is fixed by the topology, so the
/// result is deterministic. `allreduce.bytes` counts the volume the
/// ring's reduce-scatter and all-gather would move, `2·(n−1)·len` floats.
fn ring_mean(grads: &mut [&mut [f32]]) {
    let n = grads.len();
    let len = grads[0].len();
    if n == 1 || len == 0 {
        return;
    }
    let start = std::time::Instant::now();
    let inv = 1.0 / n as f32;
    let (base, rem) = (len / n, len % n);
    let mut acc = Vec::with_capacity(base + 1);
    let mut lo = 0;
    for c in 0..n {
        let hi = lo + base + usize::from(c < rem);
        acc.clear();
        acc.extend_from_slice(&grads[c][lo..hi]);
        for j in 1..n {
            for (a, x) in acc.iter_mut().zip(&grads[(c + j) % n][lo..hi]) {
                *a += x;
            }
        }
        for (g, a) in grads[0][lo..hi].iter_mut().zip(&acc) {
            *g = a * inv;
        }
        lo = hi;
    }
    astro_telemetry::histogram("allreduce.micros").observe(start.elapsed().as_micros() as f64);
    astro_telemetry::counter("allreduce.bytes")
        .add((2 * (n - 1) * len * std::mem::size_of::<f32>()) as u64);
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
    let train_span =
        astro_telemetry::span!("train", kind = kind, devices = cfg.devices, steps = cfg.steps);
    let tokens_counter = astro_telemetry::counter("train.tokens");
    let steps_counter = astro_telemetry::counter("train.steps");
    let step_tokens = (cfg.devices * cfg.grad_accum * cfg.batch * cfg.seq) as u64;
    let schedule = CosineSchedule::new(cfg.lr, cfg.steps, cfg.warmup_ratio);
    let n = params.data.len();

    // The working copy is published only on success, so an error leaves
    // the caller's weights untouched.
    let mut weights = params.clone();
    let mut opt = AdamW::new(n);
    opt.weight_decay = cfg.weight_decay;
    let mut devices: Vec<Device> = (0..cfg.devices)
        .map(|d| Device {
            ctx: TrainContext::new(params.cfg, cfg.batch, cfg.seq),
            grad: vec![0.0; n],
            rng: rng.substream_idx("train-device", d as u64),
            last_loss: 0.0,
        })
        .collect();

    // One core for the whole run; each step borrows what else is idle.
    let _hold = Cores::process().hold();

    let mut losses = Vec::new();
    // Rate bookkeeping for `train.step` telemetry: tokens since the last
    // recorded step over the wall time since then.
    let mut mark = (std::time::Instant::now(), 0u64);
    for step in 0..cfg.steps {
        let inv_accum = 1.0 / cfg.grad_accum as f32;
        let local = |dev: &mut Device| {
            dev.grad.fill(0.0);
            let mut loss_sum = 0.0;
            for _ in 0..cfg.grad_accum {
                let batch = match &source {
                    BatchSource::Lm(stream) => {
                        LmBatch::sample(stream, cfg.batch, cfg.seq, &mut dev.rng)
                    }
                    BatchSource::Sft(examples, pad) => {
                        sft_batch(examples, cfg.batch, cfg.seq, *pad, &mut dev.rng)
                    }
                };
                loss_sum += dev.ctx.loss_and_grad(
                    &weights,
                    &batch.tokens,
                    &batch.targets,
                    &batch.mask,
                    &mut dev.grad,
                );
            }
            if cfg.grad_accum > 1 {
                for g in dev.grad.iter_mut() {
                    *g *= inv_accum;
                }
            }
            dev.last_loss = loss_sum * inv_accum;
        };
        // Local compute on the held core plus what the ledger lends, then
        // the ring-ordered mean. A device's panic is resumed with its own
        // payload once every device has stopped.
        let loan = Cores::process().borrow(cfg.devices - 1);
        let queues = cores::pack(1 + loan.cores(), devices.iter_mut().map(|d| (1, d)).collect());
        let ran = cores::run("astro-train", queues, |queue| queue.into_iter().for_each(&local));
        drop(loan);
        ran.into_iter().for_each(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        let mut grads: Vec<&mut [f32]> =
            devices.iter_mut().map(|d| d.grad.as_mut_slice()).collect();
        ring_mean(&mut grads);
        // Abort on a non-finite loss *before* applying the update, so a
        // diverged (or fault-injected) step never poisons the weights.
        let mut loss0 = devices[0].last_loss;
        if astro_telemetry::fault::should_fault("train.nan_loss") {
            loss0 = f32::NAN;
        }
        if !loss0.is_finite() {
            astro_telemetry::Event::new("train.abort")
                .str_field("kind", kind)
                .u64_field("step", step)
                .f64_field("loss", loss0 as f64)
                .emit();
            return Err(TrainError::NonFiniteLoss { step, loss: loss0 });
        }
        let lr = schedule.lr_at(step);
        let grad = &mut devices[0].grad;
        let grad_norm0 = if cfg.grad_clip > 0.0 {
            clip_grad_norm(grad, cfg.grad_clip)
        } else {
            f32::NAN
        };
        opt.step(&mut weights.data, grad, lr);
        if cfg.bf16_weights {
            bf16_round_slice(&mut weights.data);
        }
        steps_counter.inc();
        tokens_counter.add(step_tokens);
        let record = step == 0
            || step + 1 == cfg.steps
            || (cfg.log_every > 0 && step % cfg.log_every == 0);
        if record {
            losses.push((step, loss0));
            let done = step + 1;
            let dt = mark.0.elapsed().as_secs_f64();
            let tok_per_sec = ((done - mark.1) * step_tokens) as f64 / dt.max(1e-9);
            mark = (std::time::Instant::now(), done);
            astro_telemetry::Event::new("train.step")
                .str_field("kind", kind)
                .u64_field("step", step)
                .f64_field("loss", loss0 as f64)
                .f64_field("lr", lr as f64)
                .f64_field("grad_norm", grad_norm0 as f64)
                .f64_field("tok_per_sec", tok_per_sec)
                .emit();
            astro_telemetry::debug!(
                "train[{kind}] step {step}/{} loss {loss0:.4} lr {lr:.3e} {tok_per_sec:.0} tok/s",
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
            grad_accum: 1,
            devices: 1,
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
    fn multi_device_matches_train_semantics() {
        // 2 devices with half the accumulation ≈ same effective batch; at
        // minimum the run must complete and reduce the loss.
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(3));
        let mut cfg = small_cfg(40);
        cfg.devices = 2;
        let report = train_lm(&mut params, BatchSource::Lm(&stream), &cfg, &Rng::seed_from(4))
            .expect("train");
        assert!(report.tail_loss(3) < report.losses[0].1);
    }

    #[test]
    fn multi_device_weights_are_pinned_bit_for_bit() {
        // Digests of the weights after 6 steps, recorded when every device
        // held its own replica and optimizer and the gradients went
        // through a threaded ring all-reduce. One shared replica and the
        // ring-ordered mean must reproduce them exactly.
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        for (devices, grad_accum, want) in
            [(2, 1, 0x4f28_426e_6d93_4661_u64), (3, 2, 0x0614_affb_242c_8b75)]
        {
            let mut params = Params::init(cfg_model, &mut Rng::seed_from(12));
            let mut cfg = small_cfg(6);
            cfg.devices = devices;
            cfg.grad_accum = grad_accum;
            train_lm(&mut params, BatchSource::Lm(&stream), &cfg, &Rng::seed_from(13))
                .expect("train");
            let bits: Vec<u8> =
                params.data.iter().flat_map(|w| w.to_bits().to_le_bytes()).collect();
            assert_eq!(
                astro_resilience::fnv64(&bits),
                want,
                "devices {devices}, grad_accum {grad_accum}"
            );
        }
    }

    /// Every buffer set `ring_mean` is checked on: the five hand-written
    /// cases (two devices, uneven chunks, one device, fewer elements than
    /// devices, empty buffers), then seeded buffers for every n in 1..=7
    /// at lengths around the chunk edges.
    fn ring_cases() -> Vec<Vec<Vec<f32>>> {
        let mut cases = vec![
            vec![vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![5.0, 4.0, 3.0, 2.0, 1.0]],
            (0..4).map(|d| (0..10).map(|i| (d * 10 + i) as f32).collect()).collect(),
            vec![vec![1.0, 2.0, 3.0]],
            vec![vec![3.0, 0.0], vec![0.0, 3.0], vec![3.0, 3.0]],
            vec![vec![], vec![]],
        ];
        let mut rng = Rng::seed_from(14);
        for n in 1..=7 {
            for len in [0, 1, n - 1, n + 1, 1_000, 4_097] {
                cases.push((0..n).map(|_| (0..len).map(|_| rng.gauss_f32()).collect()).collect());
            }
        }
        cases
    }

    #[test]
    fn ring_mean_sums_each_chunk_in_ring_order() {
        for inputs in ring_cases() {
            let (n, len) = (inputs.len(), inputs[0].len());
            let mut bufs = inputs.clone();
            let mut refs: Vec<&mut [f32]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            ring_mean(&mut refs);
            // Chunk c holds `len / n` elements, plus one if c < len % n.
            let (base, rem) = (len / n, len % n);
            let chunk_of = |i: usize| {
                if i < rem * (base + 1) {
                    i / (base + 1)
                } else {
                    rem + (i - rem * (base + 1)) / base
                }
            };
            for (i, got) in bufs[0].iter().enumerate() {
                let want = if n == 1 {
                    inputs[0][i]
                } else {
                    let c = chunk_of(i);
                    let mut sum = inputs[c][i];
                    for j in 1..n {
                        sum += inputs[(c + j) % n][i];
                    }
                    sum * (1.0 / n as f32)
                };
                assert_eq!(got.to_bits(), want.to_bits(), "n {n} len {len} element {i}");
                let mean = inputs.iter().map(|b| b[i]).sum::<f32>() / n as f32;
                assert!((got - mean).abs() < 1e-5, "n {n} len {len} element {i}: {got} vs {mean}");
            }
        }
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
    fn grad_accumulation_runs() {
        let (tok, stream) = tok_and_stream();
        let cfg_model = ModelConfig::tiny(tok.vocab_size());
        let mut params = Params::init(cfg_model, &mut Rng::seed_from(10));
        let mut cfg = small_cfg(8);
        cfg.grad_accum = 3;
        let report = train_lm(&mut params, BatchSource::Lm(&stream), &cfg, &Rng::seed_from(11))
            .expect("train");
        assert_eq!(report.tokens_processed, 8 * 3 * 4 * 24);
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
