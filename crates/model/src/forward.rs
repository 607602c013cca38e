//! Training-time forward and backward passes.
//!
//! [`TrainContext`] owns every activation and scratch buffer for a fixed
//! `(batch, seq)` shape, allocated once and reused for the whole run — the
//! hot loop performs no allocation. The backward pass is hand-derived
//! (llm.c style); `tests::gradcheck_full_model` validates the complete
//! gradient against central finite differences.
//!
//! The forward keeps its tape of activations, so it is not
//! `InferenceSession`'s forward, but it runs the inference kernels on
//! them: RoPE through [`rope`], attention through [`attend_rows`] (one
//! call per batch row, every head, at position 0), gating through
//! [`ops::swiglu`] — and its logits are `try_feed_chunk`'s, bit for bit
//! (`infer`'s `incremental_matches_batched_forward`). The backward
//! recomputes what the forward no longer stores: each (batch, head)'s
//! attention probabilities and `silu(gate)`.
//!
//! Layout conventions: activations are `[B*T, C]` row-major ("m rows");
//! the backward's attention scratch is per (batch, head) with contiguous
//! `[T, head_dim]` tiles gathered from the interleaved `[B*T, C]`
//! projections.

use crate::params::Params;
use crate::{rope, rope_tables, ModelConfig};
use astro_tensor::attention::attend_rows;
use astro_tensor::matmul::{matmul, matmul_a_bt, matmul_acc, matmul_at_b, matmul_at_b_acc};
use astro_tensor::ops;

/// Mask value for future positions before softmax.
const NEG_INF: f32 = -1.0e30;

/// Pre-allocated buffers + the forward/backward implementation.
pub struct TrainContext {
    cfg: ModelConfig,
    /// Batch size the buffers are shaped for.
    pub batch: usize,
    /// Sequence length the buffers are shaped for.
    pub seq: usize,

    // ---- stored activations (needed by backward) ----
    /// Residual-stream inputs per layer boundary: `(L+1) × [m, C]`.
    xs: Vec<Vec<f32>>,
    ln1_out: Vec<Vec<f32>>,
    ln1_inv: Vec<Vec<f32>>,
    q: Vec<Vec<f32>>,
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    /// Head-concatenated attention output (pre-`Wo`) `[m, C]`.
    att_out: Vec<Vec<f32>>,
    /// Residual stream after the attention block `[m, C]`.
    x_mid: Vec<Vec<f32>>,
    ln2_out: Vec<Vec<f32>>,
    ln2_inv: Vec<Vec<f32>>,
    h_gate: Vec<Vec<f32>>,
    h_up: Vec<Vec<f32>>,
    h_act: Vec<Vec<f32>>,
    xf_norm: Vec<f32>,
    xf_inv: Vec<f32>,
    /// `[m, vocab]` logits of the last forward pass.
    pub logits: Vec<f32>,
    dlogits: Vec<f32>,

    // ---- backward scratch ----
    dx_a: Vec<f32>,
    dx_b: Vec<f32>,
    dxm: Vec<f32>,
    d_q: Vec<f32>,
    d_k: Vec<f32>,
    d_v: Vec<f32>,
    d_gate: Vec<f32>,
    d_silu: Vec<f32>,
    d_up: Vec<f32>,
    d_act: Vec<f32>,
    scratch_mc: Vec<f32>,

    // ---- per-head scratch ----
    qh: Vec<f32>,
    kh: Vec<f32>,
    vh: Vec<f32>,
    /// Attention probabilities `[T, T]` of one (batch, head), recomputed
    /// by the backward; the forward lends [`attend_rows`] its first rows
    /// as score scratch.
    sc: Vec<f32>,
    d_sc: Vec<f32>,
    d_sc_pre: Vec<f32>,
    d_oh: Vec<f32>,
    d_qh: Vec<f32>,
    d_kh: Vec<f32>,
    d_vh: Vec<f32>,

    /// Precomputed RoPE cos/sin tables `[max_seq, head_dim/2]`.
    rope_cos: Vec<f32>,
    rope_sin: Vec<f32>,
}

impl TrainContext {
    /// Allocate buffers for a `(batch, seq)` shape.
    pub fn new(cfg: ModelConfig, batch: usize, seq: usize) -> Self {
        cfg.assert_valid();
        assert!(seq <= cfg.max_seq, "seq {seq} exceeds max_seq {}", cfg.max_seq);
        assert!(batch > 0 && seq > 0);
        let m = batch * seq;
        let c = cfg.d_model;
        let f = cfg.d_ff;
        let hs = cfg.head_dim();
        let l = cfg.n_layers;
        let per_layer = |n: usize| (0..l).map(|_| vec![0.0f32; n]).collect::<Vec<_>>();
        let (rope_cos, rope_sin) = rope_tables(cfg.max_seq, hs);
        TrainContext {
            cfg,
            batch,
            seq,
            xs: (0..=l).map(|_| vec![0.0; m * c]).collect(),
            ln1_out: per_layer(m * c),
            ln1_inv: per_layer(m),
            q: per_layer(m * c),
            k: per_layer(m * c),
            v: per_layer(m * c),
            att_out: per_layer(m * c),
            x_mid: per_layer(m * c),
            ln2_out: per_layer(m * c),
            ln2_inv: per_layer(m),
            h_gate: per_layer(m * f),
            h_up: per_layer(m * f),
            h_act: per_layer(m * f),
            xf_norm: vec![0.0; m * c],
            xf_inv: vec![0.0; m],
            logits: vec![0.0; m * cfg.vocab_size],
            dlogits: vec![0.0; m * cfg.vocab_size],
            dx_a: vec![0.0; m * c],
            dx_b: vec![0.0; m * c],
            dxm: vec![0.0; m * c],
            d_q: vec![0.0; m * c],
            d_k: vec![0.0; m * c],
            d_v: vec![0.0; m * c],
            d_gate: vec![0.0; m * f],
            d_silu: vec![0.0; m * f],
            d_up: vec![0.0; m * f],
            d_act: vec![0.0; m * f],
            scratch_mc: vec![0.0; m * c],
            qh: vec![0.0; seq * hs],
            kh: vec![0.0; seq * hs],
            vh: vec![0.0; seq * hs],
            sc: vec![0.0; seq * seq],
            d_sc: vec![0.0; seq * seq],
            d_sc_pre: vec![0.0; seq * seq],
            d_oh: vec![0.0; seq * hs],
            d_qh: vec![0.0; seq * hs],
            d_kh: vec![0.0; seq * hs],
            d_vh: vec![0.0; seq * hs],
            rope_cos,
            rope_sin,
        }
    }

    /// Forward pass: fill `self.logits` from `tokens` (`batch*seq` ids).
    pub fn forward(&mut self, p: &Params, tokens: &[u32]) {
        let (b, t) = (self.batch, self.seq);
        let m = b * t;
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        let v = self.cfg.vocab_size;
        let hs = self.cfg.head_dim();
        assert_eq!(tokens.len(), m, "tokens must be batch*seq");

        // Embedding lookup.
        let embed = p.view(&p.layout.embed.clone());
        for (i, &tok) in tokens.iter().enumerate() {
            let tok = tok as usize;
            debug_assert!(tok < v, "token {tok} out of vocab {v}");
            self.xs[0][i * c..(i + 1) * c].copy_from_slice(&embed[tok * c..(tok + 1) * c]);
        }

        for l in 0..self.cfg.n_layers {
            let lay = p.layout.layers[l].clone();
            // Attention RMSNorm.
            ops::rmsnorm_rows(
                &mut self.ln1_out[l],
                &mut self.ln1_inv[l],
                &self.xs[l],
                p.view(&lay.attn_norm),
                m,
                c,
                1e-5,
            );
            // QKV projections (y = x·Wᵀ).
            matmul_a_bt(&mut self.q[l], &self.ln1_out[l], p.view(&lay.wq), m, c, c);
            matmul_a_bt(&mut self.k[l], &self.ln1_out[l], p.view(&lay.wk), m, c, c);
            matmul_a_bt(&mut self.v[l], &self.ln1_out[l], p.view(&lay.wv), m, c, c);
            // RoPE on q and k, each row at its position in its sequence.
            let rows = self.q[l].chunks_exact_mut(c).zip(self.k[l].chunks_exact_mut(c));
            for (r, (q, k)) in rows.enumerate() {
                rope::<false>([q, k], &self.rope_cos, &self.rope_sin, r % t, hs);
            }
            // Causal attention, one sequence's rows and heads per call.
            let qk = self.q[l].chunks_exact(t * c).zip(self.k[l].chunks_exact(t * c));
            let v_out = self.v[l].chunks_exact(t * c).zip(self.att_out[l].chunks_exact_mut(t * c));
            for ((q, k), (v, out)) in qk.zip(v_out) {
                attend_rows(out, &mut self.sc, q, k, v, c, hs, 0);
            }
            // Output projection + residual.
            matmul_a_bt(&mut self.scratch_mc, &self.att_out[l], p.view(&lay.wo), m, c, c);
            for i in 0..m * c {
                self.x_mid[l][i] = self.xs[l][i] + self.scratch_mc[i];
            }
            // FFN RMSNorm.
            ops::rmsnorm_rows(
                &mut self.ln2_out[l],
                &mut self.ln2_inv[l],
                &self.x_mid[l],
                p.view(&lay.ffn_norm),
                m,
                c,
                1e-5,
            );
            // SwiGLU.
            matmul_a_bt(&mut self.h_gate[l], &self.ln2_out[l], p.view(&lay.w_gate), m, c, f);
            matmul_a_bt(&mut self.h_up[l], &self.ln2_out[l], p.view(&lay.w_up), m, c, f);
            ops::swiglu(&mut self.h_act[l], &self.h_gate[l], &self.h_up[l]);
            // Down projection + residual. scratch is m×c-sized; use its
            // prefix for the m×c product.
            matmul_a_bt(&mut self.scratch_mc, &self.h_act[l], p.view(&lay.w_down), m, f, c);
            for i in 0..m * c {
                self.xs[l + 1][i] = self.x_mid[l][i] + self.scratch_mc[i];
            }
        }

        // Final norm + tied LM head.
        ops::rmsnorm_rows(
            &mut self.xf_norm,
            &mut self.xf_inv,
            &self.xs[self.cfg.n_layers],
            p.view(&p.layout.final_norm.clone()),
            m,
            c,
            1e-5,
        );
        matmul_a_bt(&mut self.logits, &self.xf_norm, embed, m, c, v);
    }

    /// Forward + mean-masked-cross-entropy. Returns the loss.
    pub fn loss(&mut self, p: &Params, tokens: &[u32], targets: &[usize], mask: &[bool]) -> f32 {
        self.forward(p, tokens);
        let m = self.batch * self.seq;
        let (loss, _) = ops::cross_entropy_rows(
            &mut self.dlogits,
            &self.logits,
            targets,
            mask,
            m,
            self.cfg.vocab_size,
        );
        loss
    }

    /// Forward + backward. Gradients *accumulate* into `grad` (same layout
    /// as `p.data`); caller zeroes between optimizer steps. Returns the
    /// loss.
    pub fn loss_and_grad(
        &mut self,
        p: &Params,
        tokens: &[u32],
        targets: &[usize],
        mask: &[bool],
        grad: &mut [f32],
    ) -> f32 {
        assert_eq!(grad.len(), p.data.len());
        let loss = self.loss(p, tokens, targets, mask);
        self.backward(p, tokens, grad);
        loss
    }

    /// Backward pass (requires `loss` to have just run).
    fn backward(&mut self, p: &Params, tokens: &[u32], grad: &mut [f32]) {
        let (b, t) = (self.batch, self.seq);
        let m = b * t;
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        let v = self.cfg.vocab_size;
        let h = self.cfg.n_heads;
        let hs = self.cfg.head_dim();
        let embed_range = p.layout.embed.clone();
        let final_norm_range = p.layout.final_norm.clone();

        // LM head (tied): d_xf_norm = dlogits · Emb ; dEmb += dlogitsᵀ · xf.
        matmul(&mut self.dx_a, &self.dlogits, p.view(&embed_range), m, v, c);
        matmul_at_b_acc(
            &mut grad[embed_range.clone()],
            &self.dlogits,
            &self.xf_norm,
            v,
            m,
            c,
        );
        // Final RMSNorm backward → dx_b holds d(x_L).
        self.dx_b.fill(0.0);
        ops::rmsnorm_rows_backward(
            &mut self.dx_b,
            &mut grad[final_norm_range],
            &self.dx_a,
            &self.xs[self.cfg.n_layers],
            p.view(&p.layout.final_norm.clone()),
            &self.xf_inv,
            m,
            c,
        );

        for l in (0..self.cfg.n_layers).rev() {
            let lay = p.layout.layers[l].clone();
            // dx_b = d(x_{l+1}).
            // ---- FFN block ----
            // d_h_act = dxout · W_down  (W_down is [C, F])
            matmul(&mut self.d_act, &self.dx_b, p.view(&lay.w_down), m, c, f);
            matmul_at_b_acc(
                &mut grad[lay.w_down.clone()],
                &self.dx_b,
                &self.h_act[l],
                c,
                m,
                f,
            );
            // h_act = silu(gate) ⊙ up, silu(gate) recomputed into d_gate.
            ops::silu(&mut self.d_gate, &self.h_gate[l]);
            ops::mul(&mut self.d_up, &self.d_act, &self.d_gate);
            ops::mul(&mut self.d_silu, &self.d_act, &self.h_up[l]);
            self.d_gate.fill(0.0);
            ops::silu_backward(&mut self.d_gate, &self.d_silu, &self.h_gate[l]);
            // d_ln2 = d_gate·W_gate + d_up·W_up (both [F, C]).
            matmul(&mut self.scratch_mc, &self.d_gate, p.view(&lay.w_gate), m, f, c);
            matmul_acc(&mut self.scratch_mc, &self.d_up, p.view(&lay.w_up), m, f, c);
            matmul_at_b_acc(
                &mut grad[lay.w_gate.clone()],
                &self.d_gate,
                &self.ln2_out[l],
                f,
                m,
                c,
            );
            matmul_at_b_acc(
                &mut grad[lay.w_up.clone()],
                &self.d_up,
                &self.ln2_out[l],
                f,
                m,
                c,
            );
            // RMSNorm2 backward into dxm, plus the residual path.
            self.dxm.fill(0.0);
            ops::rmsnorm_rows_backward(
                &mut self.dxm,
                &mut grad[lay.ffn_norm.clone()],
                &self.scratch_mc,
                &self.x_mid[l],
                p.view(&lay.ffn_norm),
                &self.ln2_inv[l],
                m,
                c,
            );
            ops::add_assign(&mut self.dxm, &self.dx_b);
            // ---- attention block ----
            // d_att_out = dxm · Wo ; gWo += dxmᵀ · att_out.
            matmul(&mut self.scratch_mc, &self.dxm, p.view(&lay.wo), m, c, c);
            matmul_at_b_acc(
                &mut grad[lay.wo.clone()],
                &self.dxm,
                &self.att_out[l],
                c,
                m,
                c,
            );
            let scale = 1.0 / (hs as f32).sqrt();
            for bi in 0..b {
                for hi in 0..h {
                    gather_head(&self.scratch_mc, &mut self.d_oh, bi, hi, t, c, hs);
                    gather_head(&self.k[l], &mut self.kh, bi, hi, t, c, hs);
                    gather_head(&self.v[l], &mut self.vh, bi, hi, t, c, hs);
                    gather_head(&self.q[l], &mut self.qh, bi, hi, t, c, hs);
                    // att = softmax(q·kᵀ · scale, causally masked), the
                    // probabilities the forward's attend_rows used.
                    matmul_a_bt(&mut self.sc, &self.qh, &self.kh, t, hs, t);
                    for i in 0..t {
                        for j in 0..t {
                            let e = &mut self.sc[i * t + j];
                            if j > i {
                                *e = NEG_INF;
                            } else {
                                *e *= scale;
                            }
                        }
                    }
                    ops::softmax_rows(&mut self.sc, t, t);
                    let att = &self.sc;
                    // out = att · v  →  d_att = d_out · vᵀ ; d_v = attᵀ·d_out
                    matmul_a_bt(&mut self.d_sc, &self.d_oh, &self.vh, t, hs, t);
                    matmul_at_b(&mut self.d_vh, att, &self.d_oh, t, t, hs);
                    // softmax backward.
                    self.d_sc_pre.fill(0.0);
                    ops::softmax_rows_backward(&mut self.d_sc_pre, att, &self.d_sc, t, t);
                    // masked (j > i) entries have att = 0 → gradient 0.
                    ops::scale(&mut self.d_sc_pre, scale);
                    // scores_pre = q·kᵀ → d_q = d_pre·k ; d_k = d_preᵀ·q
                    matmul(&mut self.d_qh, &self.d_sc_pre, &self.kh, t, t, hs);
                    matmul_at_b(&mut self.d_kh, &self.d_sc_pre, &self.qh, t, t, hs);
                    scatter_head(&self.d_qh, &mut self.d_q, bi, hi, t, c, hs);
                    scatter_head(&self.d_kh, &mut self.d_k, bi, hi, t, c, hs);
                    scatter_head(&self.d_vh, &mut self.d_v, bi, hi, t, c, hs);
                }
            }
            // Un-rotate gradients (RoPE backward = rotation by −angle).
            let rows = self.d_q.chunks_exact_mut(c).zip(self.d_k.chunks_exact_mut(c));
            for (r, (dq, dk)) in rows.enumerate() {
                rope::<true>([dq, dk], &self.rope_cos, &self.rope_sin, r % t, hs);
            }
            // d_ln1 = d_q·Wq + d_k·Wk + d_v·Wv ; weight grads.
            matmul(&mut self.scratch_mc, &self.d_q, p.view(&lay.wq), m, c, c);
            matmul_acc(&mut self.scratch_mc, &self.d_k, p.view(&lay.wk), m, c, c);
            matmul_acc(&mut self.scratch_mc, &self.d_v, p.view(&lay.wv), m, c, c);
            matmul_at_b_acc(&mut grad[lay.wq.clone()], &self.d_q, &self.ln1_out[l], c, m, c);
            matmul_at_b_acc(&mut grad[lay.wk.clone()], &self.d_k, &self.ln1_out[l], c, m, c);
            matmul_at_b_acc(&mut grad[lay.wv.clone()], &self.d_v, &self.ln1_out[l], c, m, c);
            // RMSNorm1 backward into dx_a (which becomes d(x_l)), plus the
            // residual path from dxm.
            self.dx_a.fill(0.0);
            ops::rmsnorm_rows_backward(
                &mut self.dx_a,
                &mut grad[lay.attn_norm.clone()],
                &self.scratch_mc,
                &self.xs[l],
                p.view(&lay.attn_norm),
                &self.ln1_inv[l],
                m,
                c,
            );
            ops::add_assign(&mut self.dx_a, &self.dxm);
            std::mem::swap(&mut self.dx_a, &mut self.dx_b);
        }

        // Embedding backward (dx_b = d(x_0)).
        let gembed = &mut grad[embed_range];
        for (i, &tok) in tokens.iter().enumerate() {
            let tok = tok as usize;
            let src = &self.dx_b[i * c..(i + 1) * c];
            let dst = &mut gembed[tok * c..(tok + 1) * c];
            ops::add_assign(dst, src);
        }
    }

    /// The configuration the buffers are shaped for.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

/// Copy head `hi` of batch `bi` from `[B*T, C]` into a contiguous
/// `[T, hs]` tile.
fn gather_head(src: &[f32], dst: &mut [f32], bi: usize, hi: usize, t: usize, c: usize, hs: usize) {
    for pos in 0..t {
        let s = (bi * t + pos) * c + hi * hs;
        dst[pos * hs..(pos + 1) * hs].copy_from_slice(&src[s..s + hs]);
    }
}

/// Scatter a contiguous `[T, hs]` tile back into head `hi` of batch `bi`.
fn scatter_head(src: &[f32], dst: &mut [f32], bi: usize, hi: usize, t: usize, c: usize, hs: usize) {
    for pos in 0..t {
        let d = (bi * t + pos) * c + hi * hs;
        dst[d..d + hs].copy_from_slice(&src[pos * hs..(pos + 1) * hs]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_prng::Rng;

    fn tiny_setup(b: usize, t: usize) -> (Params, TrainContext, Vec<u32>, Vec<usize>, Vec<bool>) {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(3));
        let ctx = TrainContext::new(cfg, b, t);
        let mut rng = Rng::seed_from(7);
        let tokens: Vec<u32> = (0..b * t).map(|_| rng.below(24) as u32).collect();
        let targets: Vec<usize> = (0..b * t).map(|_| rng.index(24)).collect();
        let mask: Vec<bool> = (0..b * t).map(|i| i % 3 != 0).collect();
        (p, ctx, tokens, targets, mask)
    }

    #[test]
    fn forward_produces_finite_logits() {
        let (p, mut ctx, tokens, _, _) = tiny_setup(2, 5);
        ctx.forward(&p, &tokens);
        assert!(ctx.logits.iter().all(|x| x.is_finite()));
        // logits must not be all equal (model is non-degenerate)
        let first = ctx.logits[0];
        assert!(ctx.logits.iter().any(|&x| (x - first).abs() > 1e-9));
    }

    #[test]
    fn loss_near_uniform_at_init() {
        let (p, mut ctx, tokens, targets, mask) = tiny_setup(2, 6);
        let loss = ctx.loss(&p, &tokens, &targets, &mask);
        let uniform = (24f32).ln();
        assert!((loss - uniform).abs() < 0.5, "loss {loss} vs ln(V) {uniform}");
    }

    #[test]
    fn causality_future_tokens_do_not_affect_past_logits() {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(1));
        let mut ctx = TrainContext::new(cfg, 1, 6);
        let a: Vec<u32> = vec![1, 2, 3, 4, 5, 6];
        let b: Vec<u32> = vec![1, 2, 3, 9, 9, 9]; // change only positions ≥ 3
        ctx.forward(&p, &a);
        let logits_a = ctx.logits[..3 * 24].to_vec();
        ctx.forward(&p, &b);
        let logits_b = ctx.logits[..3 * 24].to_vec();
        for (x, y) in logits_a.iter().zip(logits_b.iter()) {
            assert!((x - y).abs() < 1e-5, "causality violated: {x} vs {y}");
        }
    }

    #[test]
    fn batch_rows_are_independent() {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(2));
        let mut ctx1 = TrainContext::new(cfg, 1, 4);
        let mut ctx2 = TrainContext::new(cfg, 2, 4);
        let row: Vec<u32> = vec![3, 1, 4, 1];
        let two: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        ctx1.forward(&p, &row);
        ctx2.forward(&p, &two);
        for i in 0..4 * 24 {
            assert!((ctx1.logits[i] - ctx2.logits[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_scatter_round_trip() {
        let t = 3;
        let c = 8;
        let hs = 4;
        let src: Vec<f32> = (0..2 * t * c).map(|i| i as f32).collect();
        let mut dst = vec![0.0; 2 * t * c];
        let mut tile = vec![0.0; t * hs];
        for bi in 0..2 {
            for hi in 0..2 {
                gather_head(&src, &mut tile, bi, hi, t, c, hs);
                scatter_head(&tile, &mut dst, bi, hi, t, c, hs);
            }
        }
        assert_eq!(src, dst);
    }

    /// The critical test: the full-model analytic gradient matches central
    /// finite differences on every parameter.
    #[test]
    fn gradcheck_full_model() {
        let cfg = ModelConfig {
            vocab_size: 11,
            d_model: 8,
            n_layers: 2,
            n_heads: 2,
            d_ff: 10,
            max_seq: 8,
            precision: crate::WeightPrecision::F32,
        };
        let mut p = Params::init(cfg, &mut Rng::seed_from(9));
        let mut ctx = TrainContext::new(cfg, 2, 4);
        let tokens: Vec<u32> = vec![1, 5, 2, 9, 3, 3, 7, 0];
        let targets: Vec<usize> = vec![5, 2, 9, 4, 3, 7, 0, 1];
        let mask = vec![true, true, false, true, true, true, true, false];
        let mut grad = vec![0.0f32; p.data.len()];
        ctx.loss_and_grad(&p, &tokens, &targets, &mask, &mut grad);
        let report = astro_tensor::gradcheck::check_gradient(
            &mut p.data,
            &grad,
            2e-3,
            |data| {
                let pp = Params {
                    cfg,
                    layout: crate::params::Layout::new(&cfg),
                    data: data.to_vec(),
                    packed: Vec::new(),
                };
                let mut c2 = TrainContext::new(cfg, 2, 4);
                c2.loss(&pp, &tokens, &targets, &mask)
            },
        );
        assert!(
            report.max_rel_err < 2e-2,
            "gradient check failed: {report:?}"
        );
    }

    /// `loss_and_grad`'s bits at tier shapes: one FNV-64 digest of every
    /// gradient element and the loss, for S7b and S70b at 2 × 37 (a
    /// leftover row after the 4-row attention bands) and at 4 × 224 (the
    /// fast preset's training shape). Recorded while the forward still
    /// stored each layer's attention probabilities and `silu(gate)` for
    /// the backward, so they pin the backward's recomputation of both.
    #[test]
    fn tier_gradients_are_pinned_bit_for_bit() {
        use crate::Tier;
        const VOCAB: usize = 512;
        let shapes = [
            (Tier::S7b, 2, 37),
            (Tier::S7b, 4, 224),
            (Tier::S70b, 2, 37),
            (Tier::S70b, 4, 224),
        ];
        let digests = shapes.map(|(tier, b, t)| {
            let cfg = ModelConfig::tier(tier, VOCAB);
            let p = Params::init(cfg, &mut Rng::seed_from(21));
            let mut rng = Rng::seed_from(22);
            let tokens: Vec<u32> = (0..b * t).map(|_| rng.below(VOCAB as u64) as u32).collect();
            let targets: Vec<usize> = (0..b * t).map(|_| rng.index(VOCAB)).collect();
            let mask: Vec<bool> = (0..b * t).map(|i| i % 5 != 0).collect();
            let mut grad = vec![0.0f32; p.data.len()];
            let mut ctx = TrainContext::new(cfg, b, t);
            let loss = ctx.loss_and_grad(&p, &tokens, &targets, &mask, &mut grad);
            let bits: Vec<u8> =
                grad.iter().chain([&loss]).flat_map(|g| g.to_bits().to_le_bytes()).collect();
            astro_resilience::fnv64(&bits)
        });
        let recorded = [
            0x20bd_372f_d7de_4c07,
            0xbc0d_fbd0_086b_c9c2,
            0xb7c9_9c89_5f16_3107,
            0x0361_90c4_455b_1d63,
        ];
        assert_eq!(digests, recorded, "{shapes:?}");
    }

    #[test]
    fn grad_accumulates_across_calls() {
        let (p, mut ctx, tokens, targets, mask) = tiny_setup(1, 4);
        let mut g1 = vec![0.0f32; p.data.len()];
        ctx.loss_and_grad(&p, &tokens, &targets, &mask, &mut g1);
        let mut g2 = g1.clone();
        ctx.loss_and_grad(&p, &tokens, &targets, &mask, &mut g2);
        for (a, b) in g1.iter().zip(g2.iter()) {
            assert!((2.0 * a - b).abs() < 1e-4 + 1e-3 * a.abs(), "{a} {b}");
        }
    }

    #[test]
    fn training_step_reduces_loss() {
        // A few plain-SGD steps on a fixed batch must reduce the loss —
        // end-to-end sanity that gradients point downhill.
        let (mut p, mut ctx, tokens, targets, mask) = tiny_setup(2, 6);
        let mut grad = vec![0.0f32; p.data.len()];
        let l0 = ctx.loss(&p, &tokens, &targets, &mask);
        for _ in 0..40 {
            grad.fill(0.0);
            ctx.loss_and_grad(&p, &tokens, &targets, &mask, &mut grad);
            for (w, g) in p.data.iter_mut().zip(grad.iter()) {
                *w -= 0.05 * g;
            }
        }
        let l1 = ctx.loss(&p, &tokens, &targets, &mask);
        assert!(l1 < l0 * 0.8, "loss did not drop: {l0} → {l1}");
    }

    #[test]
    #[should_panic]
    fn seq_longer_than_max_panics() {
        let cfg = ModelConfig::tiny(16);
        TrainContext::new(cfg, 1, cfg.max_seq + 1);
    }
}
