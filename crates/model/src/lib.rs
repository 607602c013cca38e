//! A LLaMA-architecture decoder-only transformer, from scratch.
//!
//! Faithful to the LLaMA recipe the paper's models use: pre-RMSNorm,
//! rotary position embeddings (RoPE) on queries/keys, multi-head causal
//! self-attention, SwiGLU feed-forward, weight-tied LM head. Implemented
//! llm.c-style with *manual* forward/backward passes over pre-allocated
//! arenas: no autograd graph, no per-step allocation, deterministic
//! accumulation order — and every backward pass is validated against
//! finite differences in the test suite.
//!
//! The paper's 7B/8B/70B models map to three *capacity tiers*
//! ([`ModelConfig::tier`]) whose widths/depths scale the same way the real
//! series does. Absolute parameter counts are minuscule (CPU-trainable),
//! but relative capacity — the variable the paper's
//! forgetting-vs-improvement contrast turns on — is preserved.
//!
//! Modules:
//! * [`params`] — flat parameter buffer + layout (a single `&mut [f32]`
//!   view makes the optimizer and gradient clipping trivial);
//! * [`forward`] — training-time forward + backward with loss masking;
//! * [`infer`] — KV-cache incremental decoding for generation and
//!   next-token logit evaluation;
//! * [`sample`] — greedy / temperature / top-k sampling;
//! * [`decode`] — resumable one-token-per-step decode state, so an
//!   iteration-level scheduler can advance one sequence inside a mixed
//!   batch;
//! * [`serial`] — binary checkpoints.

pub mod decode;
pub mod forward;
pub mod infer;
pub mod params;
pub mod sample;
pub mod serial;

pub use decode::{continuation_loglik, StepDecoder};
pub use forward::TrainContext;
pub use infer::{InferenceSession, Lane, SessionError};
pub use params::Params;
pub use serial::CkptError;
pub use sample::{argmax, sample_logits, SamplerConfig};

/// The capacity tiers standing in for the paper's model scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Stand-in for the LLaMA-2-7B class (smallest).
    S7b,
    /// Stand-in for the LLaMA-3-8B class (mid; the real 8B outscores the
    /// real 70B on the astronomy benchmark thanks to better pretraining —
    /// we give it more pretraining tokens, not more capacity).
    S8b,
    /// Stand-in for the LLaMA-2-70B class (largest capacity).
    S70b,
}

impl Tier {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::S7b => "7B-class",
            Tier::S8b => "8B-class",
            Tier::S70b => "70B-class",
        }
    }

    /// The nominal parameter count of the real model this tier stands in
    /// for, in billions (used by the GPU-hour cost model).
    pub fn nominal_params_b(self) -> f64 {
        match self {
            Tier::S7b => 7.0,
            Tier::S8b => 8.0,
            Tier::S70b => 70.0,
        }
    }
}

/// Numeric format of the matmul weights on the inference path.
///
/// `F32` is the bitwise-golden reference — training, checkpoints and the
/// differential suites all speak f32. `Int8` runs every linear layer
/// through the per-output-channel int8 kernels
/// (`astro_tensor::qmatmul`): activations are quantized on the fly by
/// fused RMSNorm→quantize and SwiGLU→quantize epilogues, weights come
/// from the [`Params::quantized`] copy, and attention / RoPE / residual
/// streams / KV cache stay f32. Int8 results are validated against the
/// f32 reference by a max-abs logit bound and a prediction-flip budget
/// per tier (`crates/model/tests/int8_differential.rs`), not bit
/// equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WeightPrecision {
    /// Exact f32 weights — the golden reference path.
    #[default]
    F32,
    /// Per-output-channel symmetric int8 weights with f32 activations
    /// quantized at layer boundaries.
    Int8,
}

/// Architecture hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size (set from the tokenizer).
    pub vocab_size: usize,
    /// Residual-stream width.
    pub d_model: usize,
    /// Number of transformer blocks.
    pub n_layers: usize,
    /// Attention heads (`d_model % n_heads == 0`).
    pub n_heads: usize,
    /// SwiGLU hidden width.
    pub d_ff: usize,
    /// Maximum sequence length (RoPE table size, KV-cache capacity).
    pub max_seq: usize,
    /// Weight format for the inference path (training is always f32).
    pub precision: WeightPrecision,
}

impl ModelConfig {
    /// Tier presets. Widths/depths follow the LLaMA family's relative
    /// scaling (≈20× parameters between the 7B and 70B classes).
    pub fn tier(tier: Tier, vocab_size: usize) -> Self {
        match tier {
            Tier::S7b => ModelConfig {
                vocab_size,
                d_model: 64,
                n_layers: 3,
                n_heads: 4,
                d_ff: 176,
                max_seq: 288,
                precision: WeightPrecision::F32,
            },
            Tier::S8b => ModelConfig {
                vocab_size,
                d_model: 96,
                n_layers: 4,
                n_heads: 4,
                d_ff: 256,
                max_seq: 288,
                precision: WeightPrecision::F32,
            },
            Tier::S70b => ModelConfig {
                vocab_size,
                d_model: 144,
                n_layers: 5,
                n_heads: 4,
                d_ff: 392,
                max_seq: 288,
                precision: WeightPrecision::F32,
            },
        }
    }

    /// A minimal configuration for unit tests and gradient checks.
    pub fn tiny(vocab_size: usize) -> Self {
        ModelConfig {
            vocab_size,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 24,
            max_seq: 32,
            precision: WeightPrecision::F32,
        }
    }

    /// The same configuration with a different weight precision.
    #[must_use]
    pub fn with_precision(mut self, precision: WeightPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Assert internal consistency, panicking with the validation
    /// message on failure. The infallible entry points (`Params::zeros`,
    /// `InferenceSession::new`, `TrainContext::new`) call this instead of
    /// unwrapping [`Self::validate`] — an invalid config there is a
    /// caller bug, not a recoverable condition.
    pub fn assert_valid(&self) {
        let checked = self.validate();
        assert!(checked.is_ok(), "invalid model config: {checked:?}");
    }

    /// Validate internal consistency. Never panics: every dimension is
    /// checked nonzero before [`Self::head_dim`] divides by `n_heads`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, size) in [
            ("vocab_size", self.vocab_size),
            ("d_model", self.d_model),
            ("n_layers", self.n_layers),
            ("n_heads", self.n_heads),
            ("d_ff", self.d_ff),
            ("max_seq", self.max_seq),
        ] {
            if size == 0 {
                return Err(format!("zero-sized dimension: {name} is 0"));
            }
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} not divisible by n_heads {}",
                self.d_model, self.n_heads
            ));
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err(format!("head_dim {} must be even for RoPE", self.head_dim()));
        }
        Ok(())
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        params::Layout::new(self).total
    }

    /// Resident bytes of one [`infer::InferenceSession`] for this
    /// configuration: per-layer KV caches plus step scratch, logits and
    /// the RoPE tables. The `astro-serve` prefix cache derives its
    /// eviction budget (capped resident KV bytes) from this.
    pub fn session_bytes(&self) -> usize {
        let f32s = std::mem::size_of::<f32>();
        let kv = 2 * self.n_layers * self.max_seq * self.d_model;
        // x, ln, q, attn_out, proj (d_model each) + row_scale.
        let step = 5 * self.d_model + 1;
        let ffn = 3 * self.d_ff;
        let scores = self.max_seq;
        let rope = 2 * self.max_seq * (self.head_dim() / 2);
        let f32_bytes = (kv + step + ffn + scores + self.vocab_size + rope) * f32s;
        // The int8 path adds one i8 activation row per quantization
        // boundary width (d_model for the norm epilogues, d_ff for the
        // SwiGLU epilogue); the KV cache and everything above stays f32.
        let i8_bytes = match self.precision {
            WeightPrecision::F32 => 0,
            WeightPrecision::Int8 => self.d_model + self.d_ff,
        };
        f32_bytes + i8_bytes
    }
}

/// RoPE base frequency (LLaMA uses 10000).
pub const ROPE_THETA: f32 = 10_000.0;

/// Precompute RoPE rotation tables for positions `0..max_seq`, shared by the
/// training forward and the inference session.
pub(crate) fn rope_tables(max_seq: usize, head_dim: usize) -> (Vec<f32>, Vec<f32>) {
    let half = head_dim / 2;
    let mut cos = vec![0.0f32; max_seq * half];
    let mut sin = vec![0.0f32; max_seq * half];
    for pos in 0..max_seq {
        for i in 0..half {
            let freq = 1.0 / ROPE_THETA.powf(2.0 * i as f32 / head_dim as f32);
            let angle = pos as f32 * freq;
            cos[pos * half + i] = angle.cos();
            sin[pos * half + i] = angle.sin();
        }
    }
    (cos, sin)
}

/// RoPE on one position's rows in place — a query row and a key row, or
/// their gradients — in one pass: each head's pair `(x0, x1)` becomes
/// `(x0·cos − x1·sin, x0·sin + x1·cos)` at position `pos`'s angles in the
/// [`rope_tables`]. `INVERSE` rotates by the negated angle, RoPE's
/// backward. The one rotation of the training forward and backward and
/// the inference session.
pub(crate) fn rope<const INVERSE: bool>(
    rows: [&mut [f32]; 2],
    cos: &[f32],
    sin: &[f32],
    pos: usize,
    head_dim: usize,
) {
    let half = head_dim / 2;
    let (cos, sin) = (&cos[pos * half..][..half], &sin[pos * half..][..half]);
    for row in rows {
        for head in row.chunks_exact_mut(head_dim) {
            for ((pair, &co), &si) in head.chunks_exact_mut(2).zip(cos).zip(sin) {
                let si = if INVERSE { -si } else { si };
                let (x0, x1) = (pair[0], pair[1]);
                pair[0] = x0 * co - x1 * si;
                pair[1] = x0 * si + x1 * co;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rope_rotation_is_invertible() {
        let (cos, sin) = rope_tables(8, 4);
        let orig: Vec<f32> = (0..2 * 8 * 8).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut buf = orig.clone();
        let rotate = |buf: &mut [f32], inverse: bool| {
            for (pos, row) in buf.chunks_exact_mut(2 * 8).enumerate() {
                let (q, k) = row.split_at_mut(8);
                if inverse {
                    rope::<true>([q, k], &cos, &sin, pos, 4);
                } else {
                    rope::<false>([q, k], &cos, &sin, pos, 4);
                }
            }
        };
        rotate(&mut buf, false);
        assert_ne!(buf, orig, "rotation should change values");
        rotate(&mut buf, true);
        for (a, b) in buf.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let (cos, sin) = rope_tables(8, 4);
        let mut buf: Vec<f32> = (0..8 * 8).map(|i| (i as f32 * 0.7).cos()).collect();
        let norm_before: f32 = buf.iter().map(|x| x * x).sum();
        for (pos, row) in buf.chunks_exact_mut(8).enumerate() {
            let (q, k) = row.split_at_mut(4);
            rope::<false>([q, k], &cos, &sin, pos, 4);
        }
        let norm_after: f32 = buf.iter().map(|x| x * x).sum();
        assert!((norm_before - norm_after).abs() < 1e-3);
    }

    #[test]
    fn tiers_are_ordered_by_capacity() {
        let v = 512;
        let p7 = ModelConfig::tier(Tier::S7b, v).param_count();
        let p8 = ModelConfig::tier(Tier::S8b, v).param_count();
        let p70 = ModelConfig::tier(Tier::S70b, v).param_count();
        assert!(p7 < p8 && p8 < p70, "{p7} {p8} {p70}");
        // The 70B stand-in should be several times the 7B stand-in,
        // echoing the real 10–20× gap.
        assert!(p70 > 4 * p7, "{p70} vs {p7}");
    }

    #[test]
    fn configs_validate() {
        for tier in [Tier::S7b, Tier::S8b, Tier::S70b] {
            ModelConfig::tier(tier, 512).validate().unwrap();
        }
        ModelConfig::tiny(64).validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = ModelConfig::tiny(64);
        c.n_heads = 3;
        assert!(c.validate().is_err());
        let mut c2 = ModelConfig::tiny(64);
        c2.vocab_size = 0;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn every_zero_dimension_rejected_without_panicking() {
        let tiny = ModelConfig::tiny(64);
        for c in [
            ModelConfig { d_model: 0, ..tiny },
            ModelConfig { n_heads: 0, ..tiny },
            ModelConfig { d_ff: 0, ..tiny },
            // `0.is_multiple_of(0)` holds, so this one used to reach
            // `head_dim()`'s division by zero.
            ModelConfig { d_model: 0, n_heads: 0, ..tiny },
        ] {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn session_bytes_dominated_by_kv_and_scales_with_depth() {
        let small = ModelConfig::tiny(64);
        let big = ModelConfig::tier(Tier::S70b, 512);
        assert!(big.session_bytes() > small.session_bytes());
        let kv = 2 * big.n_layers * big.max_seq * big.d_model * 4;
        assert!(big.session_bytes() >= kv);
    }

    #[test]
    fn tier_labels_distinct() {
        assert_ne!(Tier::S7b.label(), Tier::S70b.label());
        assert_eq!(Tier::S70b.nominal_params_b(), 70.0);
    }
}
