//! Flat parameter storage with a computed layout.
//!
//! All weights live in one `Vec<f32>` so that (a) the AdamW optimizer is a
//! single loop over one contiguous gradient buffer and (b) checkpointing is
//! a memcpy. The [`Layout`]
//! struct maps named tensors to sub-ranges.
//!
//! Weight matrices are row-major `[out_features, in_features]`, applied as
//! `y = x · Wᵀ` (`matmul_a_bt`), the orientation real LLaMA checkpoints
//! use.

use crate::{ModelConfig, WeightPrecision};
use astro_prng::Rng;
use astro_quant::QuantMatrix;
use astro_tensor::{Panels, Q8Panels, Simd};

/// Byte offsets (in f32 elements) of every tensor in the flat buffer.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Token embedding `[vocab, d_model]` (tied LM head).
    pub embed: std::ops::Range<usize>,
    /// Per-layer tensor ranges.
    pub layers: Vec<LayerLayout>,
    /// Final RMSNorm gain `[d_model]`.
    pub final_norm: std::ops::Range<usize>,
    /// Total element count.
    pub total: usize,
}

/// Ranges for one transformer block.
#[derive(Clone, Debug)]
pub struct LayerLayout {
    /// Attention RMSNorm gain `[d]`.
    pub attn_norm: std::ops::Range<usize>,
    /// Query projection `[d, d]`.
    pub wq: std::ops::Range<usize>,
    /// Key projection `[d, d]`.
    pub wk: std::ops::Range<usize>,
    /// Value projection `[d, d]`.
    pub wv: std::ops::Range<usize>,
    /// Output projection `[d, d]`.
    pub wo: std::ops::Range<usize>,
    /// FFN RMSNorm gain `[d]`.
    pub ffn_norm: std::ops::Range<usize>,
    /// SwiGLU gate projection `[ff, d]`.
    pub w_gate: std::ops::Range<usize>,
    /// SwiGLU up projection `[ff, d]`.
    pub w_up: std::ops::Range<usize>,
    /// SwiGLU down projection `[d, ff]`.
    pub w_down: std::ops::Range<usize>,
}

impl Layout {
    /// Compute the layout for a configuration.
    pub fn new(cfg: &ModelConfig) -> Self {
        let d = cfg.d_model;
        let ff = cfg.d_ff;
        let mut off = 0usize;
        let mut take = |n: usize| {
            let r = off..off + n;
            off += n;
            r
        };
        let embed = take(cfg.vocab_size * d);
        let layers = (0..cfg.n_layers)
            .map(|_| LayerLayout {
                attn_norm: take(d),
                wq: take(d * d),
                wk: take(d * d),
                wv: take(d * d),
                wo: take(d * d),
                ffn_norm: take(d),
                w_gate: take(ff * d),
                w_up: take(ff * d),
                w_down: take(d * ff),
            })
            .collect();
        let final_norm = take(d);
        Layout {
            embed,
            layers,
            final_norm,
            total: off,
        }
    }

    /// Every matmul weight as `(range, n, k)`, `n` output rows of `k`
    /// inputs, in the order [`Params::packed`] holds their copies: each
    /// block's [`LayerLayout::linears`], block after block, then the tied
    /// LM head.
    pub fn linears(
        &self,
        cfg: &ModelConfig,
    ) -> impl Iterator<Item = (&std::ops::Range<usize>, usize, usize)> {
        let (d, ff) = (cfg.d_model, cfg.d_ff);
        let shapes = [(d, d), (d, d), (d, d), (d, d), (ff, d), (ff, d), (d, ff)];
        let blocks = self.layers.iter().flat_map(move |l| l.linears().into_iter().zip(shapes));
        let head = (&self.embed, (cfg.vocab_size, d));
        blocks.chain([head]).map(|(r, (n, k))| (r, n, k))
    }
}

impl LayerLayout {
    /// The block's matmul weights in the order the forward runs them:
    /// `wq`, `wk`, `wv`, `wo`, `w_gate`, `w_up`, `w_down`.
    pub fn linears(&self) -> [&std::ops::Range<usize>; LINEARS] {
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.w_gate, &self.w_up, &self.w_down]
    }
}

/// A model's parameters: configuration + flat weight buffer.
#[derive(Clone, Debug)]
pub struct Params {
    /// Architecture.
    pub cfg: ModelConfig,
    /// Tensor layout into `data`.
    pub layout: Layout,
    /// The flat weight buffer.
    pub data: Vec<f32>,
    /// The packed copy of every matmul weight, in [`Layout::linears`]
    /// order, one form for all: int8 panels ([`Params::quantized`]) or f32
    /// panels ([`Params::with_panels`]); empty when none is packed. `data`
    /// stays authoritative — training, checkpoints and the golden reference
    /// always read it — and the copy does not follow later writes to it:
    /// only quantized or frozen params carry one ([`Params::frozen`], what
    /// an inference engine holds).
    pub packed: Vec<Packed>,
}

/// Matmul weights per transformer block ([`LayerLayout::linears`]).
pub const LINEARS: usize = 7;

/// One matmul weight packed for the inference path, a derived copy of its
/// rows in [`Params::data`], in `k`-major panels of sixteen output columns.
#[derive(Clone, Debug, PartialEq)]
pub enum Packed {
    /// Per-output-channel int8 ([`Q8Panels`]), multiplied by int8
    /// activation rows — a lossy copy, bounded by the differential suite.
    Int8(Q8Panels),
    /// f32 ([`Panels`]), multiplied by f32 rows bit for bit as
    /// `matmul_a_bt` multiplies `data`.
    Panels(Panels),
}

impl Packed {
    /// Resident bytes of the copy.
    fn bytes(&self) -> usize {
        match self {
            Packed::Int8(w) => w.bytes(),
            Packed::Panels(w) => w.bytes(),
        }
    }

    /// Whether the copy is int8.
    pub(crate) fn is_int8(&self) -> bool {
        matches!(self, Packed::Int8(_))
    }
}

impl Params {
    /// Allocate zero-initialised parameters.
    pub fn zeros(cfg: ModelConfig) -> Self {
        cfg.assert_valid();
        let layout = Layout::new(&cfg);
        let data = vec![0.0; layout.total];
        Params {
            cfg,
            layout,
            data,
            packed: Vec::new(),
        }
    }

    /// GPT-2-style initialisation: normals scaled by `0.02`, residual
    /// output projections (`wo`, `w_down`) additionally scaled by
    /// `1/sqrt(2·n_layers)`, norm gains set to 1.
    pub fn init(cfg: ModelConfig, rng: &mut Rng) -> Self {
        let mut p = Params::zeros(cfg);
        let std = 0.02f32;
        let resid_scale = 1.0 / ((2 * cfg.n_layers) as f32).sqrt();
        for v in &mut p.data[p.layout.embed.clone()] {
            *v = rng.gauss_f32() * std;
        }
        let layers = p.layout.layers.clone();
        for l in &layers {
            for r in [&l.wq, &l.wk, &l.wv, &l.w_gate, &l.w_up] {
                for v in &mut p.data[r.start..r.end] {
                    *v = rng.gauss_f32() * std;
                }
            }
            for r in [&l.wo, &l.w_down] {
                for v in &mut p.data[r.start..r.end] {
                    *v = rng.gauss_f32() * std * resid_scale;
                }
            }
            for v in &mut p.data[l.attn_norm.clone()] {
                *v = 1.0;
            }
            for v in &mut p.data[l.ffn_norm.clone()] {
                *v = 1.0;
            }
        }
        for v in &mut p.data[p.layout.final_norm.clone()] {
            *v = 1.0;
        }
        p
    }

    /// Total parameter count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty (never, for a valid config).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// View a tensor range.
    pub fn view(&self, r: &std::ops::Range<usize>) -> &[f32] {
        &self.data[r.start..r.end]
    }

    /// Switch the model to the int8 inference path: quantize every
    /// matmul weight (attention and SwiGLU projections plus the tied LM
    /// head) to per-output-channel int8, pack it into [`Q8Panels`] — the
    /// same layout on every CPU — and set the configuration's precision to
    /// [`WeightPrecision::Int8`]. RMSNorm gains and the embedding *lookup*
    /// stay f32 — they are vectors / row gathers, not matmuls. The f32
    /// buffer is kept: it remains the bitwise-golden reference, and
    /// re-quantizing it is idempotent.
    #[must_use]
    pub fn quantized(self) -> Self {
        let mut p = self.packed_with(|w, n, k| {
            let q = QuantMatrix::quantize(w, n, k);
            Packed::Int8(Q8Panels::pack(q.q(), q.scales(), n, k))
        });
        p.cfg.precision = WeightPrecision::Int8;
        p
    }

    /// Pack every f32 matmul weight (attention and SwiGLU projections plus
    /// the tied LM head) from `data` into [`Panels`]. Int8 params, already
    /// in their panels, come back untouched. `data` stays authoritative
    /// and unchanged.
    #[must_use]
    pub fn with_panels(self) -> Self {
        match self.cfg.precision {
            WeightPrecision::F32 => {
                self.packed_with(|w, n, k| Packed::Panels(Panels::pack(w, n, k)))
            }
            WeightPrecision::Int8 => self,
        }
    }

    /// Replace the packed copy with `pack` of each weight's rows, in
    /// [`Layout::linears`] order.
    fn packed_with(mut self, pack: impl Fn(&[f32], usize, usize) -> Packed) -> Self {
        let linears = self.layout.linears(&self.cfg);
        self.packed = linears.map(|(r, n, k)| pack(self.view(r), n, k)).collect();
        self
    }

    /// These weights as an inference engine holds them, frozen: f32
    /// weights with their panel copy ([`Params::with_panels`]) when the CPU
    /// runs the AVX-512 f32 panel tile ([`Simd::Avx512`]; below it those
    /// panels would run only as portable loops), as they are otherwise;
    /// int8 weights, whose one form is their panels, as they are. Nothing
    /// may write `data` afterwards.
    #[must_use]
    pub fn frozen(self) -> Self {
        if astro_tensor::simd() >= Simd::Avx512 {
            self.with_panels()
        } else {
            self
        }
    }

    /// Resident bytes of the weights for the active precision: the f32
    /// buffer, plus its panel copy when one is packed, for
    /// [`WeightPrecision::F32`]; the int8 panels (elements + scales,
    /// padding included) for [`WeightPrecision::Int8`].
    pub fn weight_bytes(&self) -> usize {
        let packed = self.packed.iter().map(Packed::bytes).sum::<usize>();
        match self.cfg.precision {
            WeightPrecision::F32 => self.data.len() * std::mem::size_of::<f32>() + packed,
            WeightPrecision::Int8 => packed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tier;

    #[test]
    fn layout_is_contiguous_and_complete() {
        let cfg = ModelConfig::tiny(64);
        let l = Layout::new(&cfg);
        let mut covered = vec![false; l.total];
        let mut mark = |r: &std::ops::Range<usize>| {
            for i in r.clone() {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        };
        mark(&l.embed);
        for layer in &l.layers {
            for r in [
                &layer.attn_norm,
                &layer.wq,
                &layer.wk,
                &layer.wv,
                &layer.wo,
                &layer.ffn_norm,
                &layer.w_gate,
                &layer.w_up,
                &layer.w_down,
            ] {
                mark(r);
            }
        }
        mark(&l.final_norm);
        assert!(covered.iter().all(|&c| c), "layout leaves gaps");
    }

    #[test]
    fn param_count_formula() {
        let cfg = ModelConfig::tiny(64);
        let d = cfg.d_model;
        let ff = cfg.d_ff;
        let expect =
            64 * d + cfg.n_layers * (2 * d + 4 * d * d + 2 * ff * d + d * ff) + d;
        assert_eq!(cfg.param_count(), expect);
    }

    #[test]
    fn init_is_deterministic() {
        let cfg = ModelConfig::tiny(32);
        let a = Params::init(cfg, &mut Rng::seed_from(5));
        let b = Params::init(cfg, &mut Rng::seed_from(5));
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn init_sets_norm_gains_to_one() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(1));
        assert!(p.view(&p.layout.final_norm.clone()).iter().all(|&g| g == 1.0));
        for l in &p.layout.layers {
            assert!(p.data[l.attn_norm.clone()].iter().all(|&g| g == 1.0));
        }
    }

    #[test]
    fn init_weights_are_small_and_nonzero() {
        let cfg = ModelConfig::tier(Tier::S7b, 128);
        let p = Params::init(cfg, &mut Rng::seed_from(2));
        let embed = p.view(&p.layout.embed.clone());
        let nonzero = embed.iter().filter(|&&v| v != 0.0).count();
        assert!(nonzero > embed.len() / 2);
        assert!(embed.iter().all(|&v| v.abs() < 0.5));
    }

    #[test]
    fn weight_bytes_count_the_panel_copy() {
        // Each weight's panels hold its `n` output columns rounded up to
        // sixteen, times `k`, as f32: S7b's widths are all multiples of 16,
        // S70b's d_ff 392 pads to 400 (the copy is 0.7 % over its f32
        // weights, norm gains included).
        for (tier, panel_bytes) in [(Tier::S7b, 733_184), (Tier::S70b, 5_386_752)] {
            let p = Params::init(ModelConfig::tier(tier, 512), &mut Rng::seed_from(4));
            let f32_bytes = p.weight_bytes();
            let packed = p.with_panels().weight_bytes();
            assert_eq!(packed, f32_bytes + panel_bytes, "{tier:?}");
        }
    }

    #[test]
    fn weight_bytes_count_the_int8_panel_copy() {
        // Each int8 weight's panels hold its `n` output columns and scales
        // rounded up to sixteen, times `k` rounded up to four, one byte
        // each: S7b's widths are all multiples of 16, S70b's d_ff 392 pads
        // to 400. The same bytes on every CPU.
        for (tier, panel_bytes) in [(Tier::S7b, 193_408), (Tier::S70b, 1_379_136)] {
            let q = Params::init(ModelConfig::tier(tier, 512), &mut Rng::seed_from(4)).quantized();
            assert!(q.packed.iter().all(Packed::is_int8), "{tier:?}");
            assert_eq!(q.weight_bytes(), panel_bytes, "{tier:?}");
        }
    }

    #[test]
    fn frozen_keeps_one_copy_in_the_form_the_host_runs() {
        // f32 params frozen carry one panel copy per weight on an AVX-512
        // CPU and none below it; int8 params come out unchanged, bytes and
        // bits, on every CPU.
        let p = Params::init(ModelConfig::tiny(32), &mut Rng::seed_from(6));
        let host = astro_tensor::simd();
        let frozen = p.clone().frozen();
        let linears = p.layout.linears(&p.cfg).count();
        let copies = if host >= Simd::Avx512 { linears } else { 0 };
        assert_eq!(frozen.packed.len(), copies, "f32 frozen on {host:?}");
        assert!(frozen.packed.iter().all(|w| matches!(w, Packed::Panels(_))), "f32 on {host:?}");
        let q = p.quantized();
        let frozen = q.clone().frozen();
        assert_eq!(frozen.weight_bytes(), q.weight_bytes(), "int8 bytes");
        assert_eq!(frozen.packed, q.packed, "int8 panels");
        assert_eq!(frozen.packed.len(), linears, "int8 copies");
        let bits = |p: &Params| p.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&frozen), bits(&q), "int8 data");
    }

    #[test]
    fn residual_projections_scaled_down() {
        let cfg = ModelConfig::tiny(32);
        let p = Params::init(cfg, &mut Rng::seed_from(3));
        let l = &p.layout.layers[0];
        let var = |r: &std::ops::Range<usize>| {
            let s = &p.data[r.start..r.end];
            s.iter().map(|&v| (v as f64).powi(2)).sum::<f64>() / s.len() as f64
        };
        assert!(var(&l.wo) < var(&l.wq), "wo should have smaller variance");
    }
}
