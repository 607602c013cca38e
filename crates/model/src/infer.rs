//! KV-cache incremental decoding.
//!
//! [`InferenceSession`] caches per-layer keys and values so each token
//! costs `O(params + pos·d_model)` — the standard autoregressive-serving
//! structure. Used by the full-instruct method (free generation) and the
//! next-token methods (single logit readout after the prompt).
//!
//! The transformer block is written once here. The private
//! `forward_rows` advances `m ≥ 1` token rows through embed → per layer
//! (RMSNorm → Q/K/V → RoPE → causal attention over `0..=pos` → Wo +
//! residual → RMSNorm → SwiGLU → W_down + residual) → final norm → tied
//! LM head. The head has two modes: logits of every row, into a buffer
//! the caller lends, or of the last row only, into the session — then
//! the final norm and the `vocab × d_model` product run on one row
//! whatever `m` is. Three entries call it:
//!
//! * [`InferenceSession::feed`] / [`InferenceSession::try_feed`] — one
//!   row, last-row logits: a decode step (`StepDecoder`, continuation
//!   scoring);
//! * [`InferenceSession::try_feed_prompt`] — prefill: the token slice in
//!   row blocks of `PREFILL_ROWS`, last-row logits, so the f32 kernel
//!   streams a weight matrix once per 4-row band (four times per block)
//!   rather than once per token, and the scratch never holds more rows
//!   than one block however long the prompt.
//!   [`InferenceSession::feed_prompt`] is its panicking wrapper
//!   (the serial reference paths in `astro-eval`); the engine's job
//!   lifecycle (`astro-serve`'s `Sequence::advance`) feeds every prompt
//!   stretch through it;
//! * [`InferenceSession::try_feed_chunk`] — all `n` rows at once, every
//!   row's logits (`bench/`'s `chunk4` probe; no engine path calls it).
//!
//! Weight precision enters at the linear layers only: `norm_rows` and the
//! two int8 epilogues (attention output, SwiGLU) leave a layer's input
//! rows as f32, or as int8 with one scale per row, and `linear` multiplies
//! them by the f32 weight or its int8 copy. RoPE, attention, the residual
//! stream and the KV cache are f32 under both precisions.
//!
//! How a token stream is split into calls never changes a bit of the
//! result: on the f32 path every output element is the same [`dot`] over
//! the same operands whatever the row blocking (`matmul_a_bt`'s contract),
//! and on the int8 path the integer accumulation is exact
//! (`tests/chunk_split.rs`).

use crate::params::Params;
use crate::{rope_tables, ModelConfig, WeightPrecision};
use astro_quant::QuantMatrix;
use astro_tensor::attention::attend_head;
use astro_tensor::matmul::matmul_a_bt;
use astro_tensor::ops;
use astro_tensor::qmatmul::{quantize_rows_q8, rmsnorm_quantize_row, swiglu_quantize_row};

/// Typed failure of an [`InferenceSession`] step.
///
/// Returned by [`InferenceSession::try_feed`] so callers that score many
/// independent prompts (the `astro-serve` evaluation engine) can surface a
/// full KV cache as a *per-question* error instead of aborting a whole
/// worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The KV cache is full: the session already holds `max_seq` tokens.
    CacheFull {
        /// Position the rejected token would have occupied.
        pos: usize,
        /// The session's capacity (`ModelConfig::max_seq`).
        max_seq: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::CacheFull { pos, max_seq } => {
                write!(f, "KV cache full: position {pos} reached max_seq {max_seq}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Incremental decoding state for one sequence.
///
/// `Clone` forks the session: both copies share the consumed prefix and
/// can continue independently — used by the evaluation code to score
/// several answer continuations against one prompt without re-encoding
/// it, and by the prefix cache to store snapshots.
pub struct InferenceSession {
    cfg: ModelConfig,
    pos: usize,
    /// Per-layer key cache `[max_seq, C]`.
    k_cache: Vec<Vec<f32>>,
    /// Per-layer value cache `[max_seq, C]`.
    v_cache: Vec<Vec<f32>>,
    // Row scratch, `[m, ·]` for the `m` rows of the current call: one row
    // at construction and in every clone (what `ModelConfig::session_bytes`
    // budgets), grown by `fit_rows` when a larger chunk first arrives.
    /// Residual stream `[m, C]`.
    x: Vec<f32>,
    /// Normalised linear-layer input `[m, C]` (f32 path).
    ln: Vec<f32>,
    /// One f32 per row: the inverse RMS `rmsnorm_rows` reports on the f32
    /// path, the activation scale of `qx` / `qf` on the int8 path.
    row_scale: Vec<f32>,
    q: Vec<f32>,
    attn_out: Vec<f32>,
    proj: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    act: Vec<f32>,
    /// Attention scores of one (row, head) over `0..=pos`: `[max_seq]`.
    scores: Vec<f32>,
    /// Logits after the last fed token.
    logits: Vec<f32>,
    rope_cos: Vec<f32>,
    rope_sin: Vec<f32>,
    /// Int8 linear-layer input `[m, C]`, allocated only for
    /// [`WeightPrecision::Int8`] sessions.
    qx: Vec<i8>,
    /// Int8 FFN activation `[m, d_ff]`, ditto.
    qf: Vec<i8>,
}

/// Rows per forward when a prompt is fed through
/// [`InferenceSession::try_feed_prompt`]: four of `matmul_a_bt`'s 4-row
/// bands, each of which streams the weight matrix once — a quarter of the
/// weight traffic of one-token feeds — and the most rows the scratch of a
/// session grows to however long the prompt (`fit_rows` reserves exactly;
/// 16 rows ≈ +120 KB on a 1.7 MB S70b session).
const PREFILL_ROWS: usize = 16;

impl Clone for InferenceSession {
    /// Copies the state — position, KV cache, last logits — and gives the
    /// copy one-row scratch whatever the source has grown to: scratch
    /// never outlives a call, and a cached snapshot must cost what
    /// [`ModelConfig::session_bytes`] says it does.
    fn clone(&self) -> Self {
        InferenceSession {
            pos: self.pos,
            k_cache: self.k_cache.clone(),
            v_cache: self.v_cache.clone(),
            logits: self.logits.clone(),
            rope_cos: self.rope_cos.clone(),
            rope_sin: self.rope_sin.clone(),
            ..Self::scratch_only(self.cfg)
        }
    }
}

impl InferenceSession {
    /// Allocate a session for a model configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.assert_valid();
        let kv = || (0..cfg.n_layers).map(|_| vec![0.0; cfg.max_seq * cfg.d_model]).collect();
        let (rope_cos, rope_sin) = rope_tables(cfg.max_seq, cfg.head_dim());
        InferenceSession {
            k_cache: kv(),
            v_cache: kv(),
            logits: vec![0.0; cfg.vocab_size],
            rope_cos,
            rope_sin,
            ..Self::scratch_only(cfg)
        }
    }

    /// One-row scratch at position 0 with the state buffers — KV cache,
    /// logits, RoPE tables — left empty (unallocated) for `new` and
    /// `clone` to fill in.
    fn scratch_only(cfg: ModelConfig) -> Self {
        let c = cfg.d_model;
        let f = cfg.d_ff;
        let (qx_len, qf_len) = match cfg.precision {
            WeightPrecision::F32 => (0, 0),
            WeightPrecision::Int8 => (c, f),
        };
        InferenceSession {
            cfg,
            pos: 0,
            k_cache: Vec::new(),
            v_cache: Vec::new(),
            x: vec![0.0; c],
            ln: vec![0.0; c],
            row_scale: vec![0.0; 1],
            q: vec![0.0; c],
            attn_out: vec![0.0; c],
            proj: vec![0.0; c],
            gate: vec![0.0; f],
            up: vec![0.0; f],
            act: vec![0.0; f],
            scores: vec![0.0; cfg.max_seq],
            logits: Vec::new(),
            rope_cos: Vec::new(),
            rope_sin: Vec::new(),
            qx: vec![0; qx_len],
            qf: vec![0; qf_len],
        }
    }

    /// Current position (number of tokens consumed).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining capacity before `max_seq` is reached.
    pub fn remaining(&self) -> usize {
        self.cfg.max_seq - self.pos
    }

    /// Clear the cache and restart at position 0.
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// The configuration this session was allocated for.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Overwrite this session's state with `other`'s, reusing this
    /// session's allocations — the no-alloc fork used by pool workers that
    /// score thousands of prompts. Only the consumed KV rows and the last
    /// logits are copied; scratch buffers are overwritten by the next
    /// `feed` anyway. Both sessions must share a configuration.
    pub fn assign_from(&mut self, other: &InferenceSession) {
        assert!(
            self.cfg == other.cfg,
            "assign_from across configs: {:?} vs {:?}",
            self.cfg,
            other.cfg
        );
        self.pos = other.pos;
        let n = other.pos * self.cfg.d_model;
        for l in 0..self.cfg.n_layers {
            self.k_cache[l][..n].copy_from_slice(&other.k_cache[l][..n]);
            self.v_cache[l][..n].copy_from_slice(&other.v_cache[l][..n]);
        }
        self.logits.copy_from_slice(&other.logits);
    }

    /// `Ok` when `m` more tokens fit in the KV cache; the error names the
    /// position the last of them would have occupied.
    fn room_for(&self, m: usize) -> Result<(), SessionError> {
        if self.pos + m > self.cfg.max_seq {
            return Err(SessionError::CacheFull {
                pos: self.pos + m - 1,
                max_seq: self.cfg.max_seq,
            });
        }
        Ok(())
    }

    /// Feed one token; returns the logits for the *next* token, or
    /// [`SessionError::CacheFull`] when the session already holds
    /// `max_seq` tokens. This is the fallible entry point batch engines
    /// use to turn an over-long prompt into a per-prompt error.
    pub fn try_feed(&mut self, p: &Params, token: u32) -> Result<&[f32], SessionError> {
        self.room_for(1)?;
        self.forward_rows(p, &[token], None);
        Ok(&self.logits)
    }

    /// Feed one token; returns the logits for the *next* token.
    ///
    /// # Panics
    /// Panics when the cache is full (`position() == max_seq`); use
    /// [`Self::try_feed`] to handle that case as a typed error.
    pub fn feed(&mut self, p: &Params, token: u32) -> &[f32] {
        assert!(self.pos < self.cfg.max_seq, "KV cache full at {}", self.pos);
        self.forward_rows(p, &[token], None);
        &self.logits
    }

    /// Feed `tokens` in row blocks of at most `PREFILL_ROWS`; returns the
    /// logits after the last one. State and result are bitwise what
    /// `tokens.len()` sequential [`Self::try_feed`] calls leave (see the
    /// module doc), also on failure: the tokens that fit are consumed and
    /// the error names position `max_seq`.
    pub fn try_feed_prompt(&mut self, p: &Params, tokens: &[u32]) -> Result<&[f32], SessionError> {
        assert!(!tokens.is_empty(), "empty prompt");
        let fits = tokens.len().min(self.remaining());
        for block in tokens[..fits].chunks(PREFILL_ROWS) {
            self.forward_rows(p, block, None);
        }
        if fits < tokens.len() {
            return Err(SessionError::CacheFull { pos: self.pos, max_seq: self.cfg.max_seq });
        }
        Ok(&self.logits)
    }

    /// Feed a whole prompt; returns the logits after its last token.
    ///
    /// # Panics
    /// Panics when the prompt does not fit the cache; use
    /// [`Self::try_feed_prompt`] to handle that case as a typed error.
    pub fn feed_prompt(&mut self, p: &Params, tokens: &[u32]) -> Vec<f32> {
        let full = self.try_feed_prompt(p, tokens).err();
        assert!(full.is_none(), "prompt does not fit: {full:?}");
        self.logits.clone()
    }

    /// Logits from the most recent `feed`.
    pub fn last_logits(&self) -> &[f32] {
        &self.logits
    }

    /// Feed `m` tokens in one chunked-prefill step; returns the logits
    /// after *every* token as an `m × vocab` row-major matrix. The
    /// session advances by `m` positions exactly as `m` sequential
    /// [`Self::feed`] calls would, with bitwise-identical results (see
    /// the module doc).
    pub fn try_feed_chunk(
        &mut self,
        p: &Params,
        tokens: &[u32],
    ) -> Result<Vec<f32>, SessionError> {
        assert!(!tokens.is_empty(), "empty chunk");
        self.room_for(tokens.len())?;
        let v = self.cfg.vocab_size;
        let mut rows = vec![0.0f32; tokens.len() * v];
        self.forward_rows(p, tokens, Some(&mut rows));
        self.logits.copy_from_slice(&rows[rows.len() - v..]);
        Ok(rows)
    }

    /// The one transformer forward on the inference path: advance the
    /// `m = tokens.len()` rows through every block and the tied LM head,
    /// writing their K/V rows straight into the cache at
    /// `pos..pos + m`. Capacity has already been checked. The logits of
    /// every row go to `all_rows` (`m × vocab`) when the caller lends
    /// one; otherwise only the last row gets its final norm and LM head,
    /// into `self.logits`.
    ///
    /// A [`WeightPrecision::Int8`] session uses the params' int8 copy
    /// when they carry one and the f32 weights otherwise — an int8
    /// session fed unquantized params is a benign precision downgrade,
    /// not an error.
    fn forward_rows(&mut self, p: &Params, tokens: &[u32], all_rows: Option<&mut [f32]>) {
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        let m = tokens.len();
        let p0 = self.pos;
        let quant = match self.cfg.precision {
            WeightPrecision::Int8 => p.quant.as_ref(),
            WeightPrecision::F32 => None,
        };
        let int8 = quant.is_some();
        self.fit_rows(m);
        let embed = p.view(&p.layout.embed);
        for (row, &t) in self.x.chunks_exact_mut(c).zip(tokens) {
            let tok = t as usize;
            assert!(tok < self.cfg.vocab_size, "token {tok} out of vocab");
            row.copy_from_slice(&embed[tok * c..(tok + 1) * c]);
        }

        for l in 0..self.cfg.n_layers {
            let lay = &p.layout.layers[l];
            let ql = quant.map(|qp| &qp.layers[l]);
            let kv_rows = p0 * c..(p0 + m) * c;
            self.norm_rows(p.view(&lay.attn_norm), int8);
            let (a, aq, s) = (&self.ln, &self.qx, &self.row_scale);
            linear(&mut self.q, p.view(&lay.wq), ql.map(|q| &q.wq), a, aq, s, m);
            let k_rows = &mut self.k_cache[l][kv_rows.clone()];
            linear(k_rows, p.view(&lay.wk), ql.map(|q| &q.wk), a, aq, s, m);
            let v_rows = &mut self.v_cache[l][kv_rows];
            linear(v_rows, p.view(&lay.wv), ql.map(|q| &q.wv), a, aq, s, m);
            self.rope_attend(l, p0, m);
            // Output projection + residual; on the int8 path the attention
            // output is re-quantized at the boundary.
            if int8 {
                quantize_rows_q8(&mut self.qx, &mut self.row_scale, &self.attn_out, m, c);
            }
            let (a, aq, s) = (&self.attn_out, &self.qx, &self.row_scale);
            linear(&mut self.proj, p.view(&lay.wo), ql.map(|q| &q.wo), a, aq, s, m);
            ops::add_assign(&mut self.x, &self.proj);
            // FFN.
            self.norm_rows(p.view(&lay.ffn_norm), int8);
            let (a, aq, s) = (&self.ln, &self.qx, &self.row_scale);
            linear(&mut self.gate, p.view(&lay.w_gate), ql.map(|q| &q.w_gate), a, aq, s, m);
            linear(&mut self.up, p.view(&lay.w_up), ql.map(|q| &q.w_up), a, aq, s, m);
            if int8 {
                for i in 0..m {
                    let r = i * f..(i + 1) * f;
                    self.row_scale[i] = swiglu_quantize_row(
                        &mut self.qf[r.clone()],
                        &mut self.act[r.clone()],
                        &self.gate[r.clone()],
                        &self.up[r],
                    );
                }
            } else {
                for ((av, &gv), &uv) in self.act.iter_mut().zip(&self.gate).zip(&self.up) {
                    *av = gv * ops::sigmoid(gv) * uv;
                }
            }
            let (a, aq, s) = (&self.act, &self.qf, &self.row_scale);
            linear(&mut self.proj, p.view(&lay.w_down), ql.map(|q| &q.w_down), a, aq, s, m);
            ops::add_assign(&mut self.x, &self.proj);
        }

        if all_rows.is_none() && m > 1 {
            // Only the last row's logits are wanted: move it to the front
            // and finish as a one-row call.
            self.x.copy_within((m - 1) * c.., 0);
            self.fit_rows(1);
        }
        self.norm_rows(p.view(&p.layout.final_norm), int8);
        // Tied LM head: logits[v] = ln · embed_row(v).
        let out = match all_rows {
            Some(rows) => rows,
            None => &mut self.logits[..],
        };
        let lm_head = quant.map(|qp| &qp.lm_head);
        let rows = self.row_scale.len();
        linear(out, embed, lm_head, &self.ln, &self.qx, &self.row_scale, rows);
        self.pos += m;
    }

    /// Size the row scratch for an `m`-row call. Shrinking keeps the
    /// capacity and growing reserves exactly, so this allocates only when
    /// a chunk larger than any before arrives — never for a session that
    /// is fed one token at a time — and the scratch holds exactly as many
    /// rows as the largest call so far.
    fn fit_rows(&mut self, m: usize) {
        fn fit<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
            buf.reserve_exact(len.saturating_sub(buf.len()));
            buf.resize(len, T::default());
        }
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        for buf in [&mut self.x, &mut self.ln, &mut self.q, &mut self.attn_out, &mut self.proj] {
            fit(buf, m * c);
        }
        for buf in [&mut self.gate, &mut self.up, &mut self.act] {
            fit(buf, m * f);
        }
        fit(&mut self.row_scale, m);
        if self.cfg.precision == WeightPrecision::Int8 {
            fit(&mut self.qx, m * c);
            fit(&mut self.qf, m * f);
        }
    }

    /// RMSNorm the residual rows into the next linear layer's input: f32
    /// rows in `ln`, or — fused, never materialising the normalised f32
    /// row — int8 rows in `qx` with their scales in `row_scale`.
    fn norm_rows(&mut self, g: &[f32], int8: bool) {
        let c = self.cfg.d_model;
        let m = self.row_scale.len();
        if int8 {
            for i in 0..m {
                let r = i * c..(i + 1) * c;
                self.row_scale[i] =
                    rmsnorm_quantize_row(&mut self.qx[r.clone()], &self.x[r], g, 1e-5);
            }
        } else {
            ops::rmsnorm_rows(&mut self.ln, &mut self.row_scale, &self.x, g, m, c, 1e-5);
        }
    }

    /// For each of the `m` rows in ascending position order: RoPE on its
    /// query row in `self.q` and its freshly written K cache row, then
    /// causal attention into `self.attn_out`, one [`attend_head`] per head
    /// — row `i` attends over `0..=p0+i`, which includes this call's
    /// earlier rows, already written and rotated. f32 under both weight
    /// precisions.
    fn rope_attend(&mut self, l: usize, p0: usize, m: usize) {
        let c = self.cfg.d_model;
        let hs = self.cfg.head_dim();
        let half = hs / 2;
        let scale = 1.0 / (hs as f32).sqrt();
        let (k_cache, v_cache) = (&mut self.k_cache[l][..], &self.v_cache[l][..]);
        for i in 0..m {
            let pos = p0 + i;
            let row = i * c..(i + 1) * c;
            let cos = &self.rope_cos[pos * half..(pos + 1) * half];
            let sin = &self.rope_sin[pos * half..(pos + 1) * half];
            for buf in [&mut self.q[row.clone()], &mut k_cache[pos * c..(pos + 1) * c]] {
                for head in buf.chunks_exact_mut(hs) {
                    for ((pair, &co), &si) in head.chunks_exact_mut(2).zip(cos).zip(sin) {
                        let (x0, x1) = (pair[0], pair[1]);
                        pair[0] = x0 * co - x1 * si;
                        pair[1] = x0 * si + x1 * co;
                    }
                }
            }
            let n = pos + 1;
            let outs = self.attn_out[row.clone()].chunks_exact_mut(hs);
            for (hi, (out, qh)) in outs.zip(self.q[row].chunks_exact(hs)).enumerate() {
                let cached = hi * hs..n * c;
                let (kh, vh) = (&k_cache[cached.clone()], &v_cache[cached]);
                attend_head(out, &mut self.scores[..n], qh, kh, vh, c, scale);
            }
        }
    }
}

/// `out = a · Wᵀ` for `m` activation rows — the one place weight
/// precision is chosen. With the int8 copy `wq` of the weight, the rows
/// are read as int8 `aq` with one scale each; without it, as f32 `a`
/// against the f32 weight `w`.
fn linear(
    out: &mut [f32],
    w: &[f32],
    wq: Option<&QuantMatrix>,
    a: &[f32],
    aq: &[i8],
    scales: &[f32],
    m: usize,
) {
    match wq {
        Some(wq) => wq.matmul_chunk(out, aq, scales, m),
        None => matmul_a_bt(out, a, w, m, a.len() / m, out.len() / m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::TrainContext;
    use astro_prng::Rng;

    impl InferenceSession {
        /// Bytes held by the session's buffers — what
        /// [`ModelConfig::session_bytes`] must predict for a fresh session.
        fn buffer_bytes(&self) -> usize {
            let f32_bufs = [
                &self.x, &self.ln, &self.row_scale, &self.q, &self.attn_out, &self.proj, &self.gate,
                &self.up, &self.act, &self.scores, &self.logits, &self.rope_cos, &self.rope_sin,
            ];
            let f32s: usize = f32_bufs
                .into_iter()
                .chain(&self.k_cache)
                .chain(&self.v_cache)
                .map(Vec::capacity)
                .sum();
            f32s * std::mem::size_of::<f32>() + self.qx.capacity() + self.qf.capacity()
        }
    }

    #[test]
    fn incremental_matches_batched_forward() {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(4));
        let tokens: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        // Batched forward.
        let mut ctx = TrainContext::new(cfg, 1, tokens.len());
        ctx.forward(&p, &tokens);
        // Incremental.
        let mut sess = InferenceSession::new(cfg);
        for (i, &t) in tokens.iter().enumerate() {
            let logits = sess.feed(&p, t).to_vec();
            let batch_row = &ctx.logits[i * 24..(i + 1) * 24];
            for (a, b) in logits.iter().zip(batch_row.iter()) {
                assert!(
                    (a - b).abs() < 1e-3,
                    "pos {i}: incremental {a} vs batched {b}"
                );
            }
        }
    }

    #[test]
    fn reset_restarts_cleanly() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(5));
        let mut sess = InferenceSession::new(cfg);
        let first = sess.feed(&p, 3).to_vec();
        sess.feed(&p, 7);
        sess.reset();
        assert_eq!(sess.position(), 0);
        let again = sess.feed(&p, 3).to_vec();
        for (a, b) in first.iter().zip(again.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn feed_prompt_returns_last_logits() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(6));
        let mut a = InferenceSession::new(cfg);
        let via_prompt = a.feed_prompt(&p, &[1, 2, 3]);
        let mut b = InferenceSession::new(cfg);
        b.feed(&p, 1);
        b.feed(&p, 2);
        let step = b.feed(&p, 3).to_vec();
        assert_eq!(via_prompt, step);
        assert_eq!(a.position(), 3);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(7));
        let mut sess = InferenceSession::new(cfg);
        for _ in 0..=cfg.max_seq {
            sess.feed(&p, 1);
        }
    }

    #[test]
    fn try_feed_returns_cache_full_instead_of_panicking() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(7));
        let mut sess = InferenceSession::new(cfg);
        for _ in 0..cfg.max_seq {
            sess.try_feed(&p, 1).unwrap();
        }
        let err = sess.try_feed(&p, 1).unwrap_err();
        assert_eq!(
            err,
            SessionError::CacheFull {
                pos: cfg.max_seq,
                max_seq: cfg.max_seq
            }
        );
        // The session is still usable after the error (state unchanged).
        assert_eq!(sess.position(), cfg.max_seq);
        sess.reset();
        sess.try_feed(&p, 1).unwrap();
    }

    #[test]
    fn try_feed_matches_feed() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(9));
        let mut a = InferenceSession::new(cfg);
        let mut b = InferenceSession::new(cfg);
        for &t in &[3u32, 1, 4, 1, 5] {
            let la = a.feed(&p, t).to_vec();
            let lb = b.try_feed(&p, t).unwrap().to_vec();
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn assign_from_forks_without_allocating_fresh_state() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(10));
        let mut src = InferenceSession::new(cfg);
        src.feed_prompt(&p, &[2, 7, 1]);
        // A fork via assign_from must continue exactly like a clone.
        let mut via_assign = InferenceSession::new(cfg);
        // Dirty the target first so stale state would be caught.
        via_assign.feed_prompt(&p, &[9, 9, 9, 9, 9]);
        via_assign.assign_from(&src);
        assert_eq!(via_assign.position(), 3);
        assert_eq!(via_assign.last_logits(), src.last_logits());
        let mut via_clone = src.clone();
        let a = via_assign.feed(&p, 5).to_vec();
        let b = via_clone.feed(&p, 5).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn session_error_displays_positions() {
        let e = SessionError::CacheFull { pos: 32, max_seq: 32 };
        let s = format!("{e}");
        assert!(s.contains("32"), "{s}");
    }

    #[test]
    fn remaining_counts_down() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(8));
        let mut sess = InferenceSession::new(cfg);
        let r0 = sess.remaining();
        sess.feed(&p, 0);
        assert_eq!(sess.remaining(), r0 - 1);
    }

    #[test]
    fn chunk_overflow_is_a_typed_error() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(15));
        let mut sess = InferenceSession::new(cfg);
        let chunk: Vec<u32> = vec![1; cfg.max_seq + 1];
        let err = sess.try_feed_chunk(&p, &chunk).unwrap_err();
        assert_eq!(
            err,
            SessionError::CacheFull {
                pos: cfg.max_seq,
                max_seq: cfg.max_seq
            }
        );
        // State untouched: a fitting chunk still works.
        assert_eq!(sess.position(), 0);
        sess.try_feed_chunk(&p, &[1, 2]).unwrap();
        assert_eq!(sess.position(), 2);
    }

    #[test]
    fn int8_step_tracks_f32_reference() {
        // Int8 accuracy is bounded by the differential suite; here we
        // sanity-check the quantized path stays close and finite.
        let cfg = ModelConfig::tiny(24);
        let p32 = Params::init(cfg, &mut Rng::seed_from(16));
        let p8 = p32.clone().quantized();
        let mut s32 = InferenceSession::new(cfg);
        let mut s8 = InferenceSession::new(p8.cfg);
        for &t in &[3u32, 1, 4, 1, 5] {
            let a = s32.feed(&p32, t).to_vec();
            let b = s8.feed(&p8, t).to_vec();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(y.is_finite(), "int8 logit not finite");
                let tol = 0.05f32.max(0.05 * x.abs());
                assert!((x - y).abs() < tol, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn int8_session_with_unquantized_params_falls_back_to_f32() {
        let cfg = ModelConfig::tiny(16).with_precision(WeightPrecision::Int8);
        let p = Params::init(ModelConfig::tiny(16), &mut Rng::seed_from(17));
        let mut s8 = InferenceSession::new(cfg);
        let mut s32 = InferenceSession::new(ModelConfig::tiny(16));
        let a = s8.feed(&p, 3).to_vec();
        let b = s32.feed(&p, 3).to_vec();
        assert_eq!(a, b, "missing quant copy must downgrade to the f32 path");
    }

    /// The per-op rows of `op_budget`'s table. The embedding copy is
    /// booked under `head` (the tied matrix) and each residual add under
    /// the linear it follows.
    const OPS: [&str; 8] = ["norm", "qkv", "rope+attn", "requant", "wo", "ffn", "swiglu", "head"];

    impl InferenceSession {
        /// `forward_rows(p, tokens, None)` spelled out — the same private
        /// ops in the same order — with each op's wall time in µs added
        /// to its slot of `us`.
        fn forward_rows_timed(&mut self, p: &Params, tokens: &[u32], us: &mut [f64; OPS.len()]) {
            let c = self.cfg.d_model;
            let f = self.cfg.d_ff;
            let m = tokens.len();
            let p0 = self.pos;
            let quant = match self.cfg.precision {
                WeightPrecision::Int8 => p.quant.as_ref(),
                WeightPrecision::F32 => None,
            };
            let int8 = quant.is_some();
            self.fit_rows(m);
            let mut t = std::time::Instant::now();
            let mut lap = |op: usize| {
                let now = std::time::Instant::now();
                us[op] += (now - t).as_secs_f64() * 1e6;
                t = now;
            };
            let embed = p.view(&p.layout.embed);
            for (row, &tok) in self.x.chunks_exact_mut(c).zip(tokens) {
                let tok = tok as usize;
                row.copy_from_slice(&embed[tok * c..(tok + 1) * c]);
            }
            lap(7);
            for l in 0..self.cfg.n_layers {
                let lay = &p.layout.layers[l];
                let ql = quant.map(|qp| &qp.layers[l]);
                let kv_rows = p0 * c..(p0 + m) * c;
                self.norm_rows(p.view(&lay.attn_norm), int8);
                lap(0);
                let (a, aq, s) = (&self.ln, &self.qx, &self.row_scale);
                linear(&mut self.q, p.view(&lay.wq), ql.map(|q| &q.wq), a, aq, s, m);
                let k_rows = &mut self.k_cache[l][kv_rows.clone()];
                linear(k_rows, p.view(&lay.wk), ql.map(|q| &q.wk), a, aq, s, m);
                let v_rows = &mut self.v_cache[l][kv_rows];
                linear(v_rows, p.view(&lay.wv), ql.map(|q| &q.wv), a, aq, s, m);
                lap(1);
                self.rope_attend(l, p0, m);
                lap(2);
                if int8 {
                    quantize_rows_q8(&mut self.qx, &mut self.row_scale, &self.attn_out, m, c);
                }
                lap(3);
                let (a, aq, s) = (&self.attn_out, &self.qx, &self.row_scale);
                linear(&mut self.proj, p.view(&lay.wo), ql.map(|q| &q.wo), a, aq, s, m);
                ops::add_assign(&mut self.x, &self.proj);
                lap(4);
                self.norm_rows(p.view(&lay.ffn_norm), int8);
                lap(0);
                let (a, aq, s) = (&self.ln, &self.qx, &self.row_scale);
                linear(&mut self.gate, p.view(&lay.w_gate), ql.map(|q| &q.w_gate), a, aq, s, m);
                linear(&mut self.up, p.view(&lay.w_up), ql.map(|q| &q.w_up), a, aq, s, m);
                lap(5);
                if int8 {
                    for i in 0..m {
                        let r = i * f..(i + 1) * f;
                        self.row_scale[i] = swiglu_quantize_row(
                            &mut self.qf[r.clone()],
                            &mut self.act[r.clone()],
                            &self.gate[r.clone()],
                            &self.up[r],
                        );
                    }
                } else {
                    for ((av, &gv), &uv) in self.act.iter_mut().zip(&self.gate).zip(&self.up) {
                        *av = gv * ops::sigmoid(gv) * uv;
                    }
                }
                lap(6);
                let (a, aq, s) = (&self.act, &self.qf, &self.row_scale);
                linear(&mut self.proj, p.view(&lay.w_down), ql.map(|q| &q.w_down), a, aq, s, m);
                ops::add_assign(&mut self.x, &self.proj);
                lap(5);
            }
            if m > 1 {
                self.x.copy_within((m - 1) * c.., 0);
                self.fit_rows(1);
            }
            self.norm_rows(p.view(&p.layout.final_norm), int8);
            lap(0);
            let lm_head = quant.map(|qp| &qp.lm_head);
            linear(&mut self.logits, embed, lm_head, &self.ln, &self.qx, &self.row_scale, 1);
            lap(7);
            self.pos += m;
        }
    }

    /// Where a forward row's time goes, op by op — the table kernel and
    /// scheduler work is sized from (docs/TUNING.md). Log-only:
    ///
    /// ```sh
    /// cargo test --release -p astro-model --lib -- --ignored --nocapture op_budget
    /// ```
    ///
    /// For S7b and S70b × f32/int8: the last row block of a 136-token
    /// prompt (methods 2/3's length) and the decode row after it, each op
    /// the median of `REPS` runs, in µs per row and as a share of the row.
    /// The timed forward's logits must equal `try_feed_prompt`'s and
    /// `feed`'s bit for bit, so a `forward_rows` this copy has drifted
    /// from fails here instead of mis-sizing the next issue.
    #[test]
    #[ignore]
    fn op_budget() {
        use crate::Tier;
        const REPS: usize = 101;
        const PROMPT: usize = 136;
        let vocab = 512;
        let tokens: Vec<u32> = (0..=PROMPT).map(|i| (i * 37 % vocab) as u32).collect();
        let (head, block) = tokens[..PROMPT].split_at(PROMPT - PREFILL_ROWS);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for tier in [Tier::S7b, Tier::S70b] {
            let f32_params = Params::init(ModelConfig::tier(tier, vocab), &mut Rng::seed_from(19));
            let int8_params = f32_params.clone().quantized();
            for p in [&f32_params, &int8_params] {
                let mut base = InferenceSession::new(p.cfg);
                base.try_feed_prompt(p, head).unwrap();
                let mut oracle = base.clone();
                let block_logits = bits(oracle.try_feed_prompt(p, block).unwrap());
                let decode_logits = bits(oracle.feed(p, tokens[PROMPT]));

                let mut sess = InferenceSession::new(p.cfg);
                let mut block_us = vec![[0.0; OPS.len()]; REPS];
                let mut decode_us = vec![[0.0; OPS.len()]; REPS];
                for (block_rep, decode_rep) in block_us.iter_mut().zip(&mut decode_us) {
                    sess.assign_from(&base);
                    sess.forward_rows_timed(p, block, block_rep);
                    assert_eq!(bits(&sess.logits), block_logits, "prefill block drifted");
                    sess.forward_rows_timed(p, &tokens[PROMPT..], decode_rep);
                    assert_eq!(bits(&sess.logits), decode_logits, "decode row drifted");
                }
                let median = |reps: &[[f64; OPS.len()]]| -> [f64; OPS.len()] {
                    std::array::from_fn(|op| {
                        let mut col: Vec<f64> = reps.iter().map(|rep| rep[op]).collect();
                        col.sort_by(f64::total_cmp);
                        col[REPS / 2]
                    })
                };
                let (prefill, decode) = (median(&block_us), median(&decode_us));
                let prefill = prefill.map(|us| us / PREFILL_ROWS as f64);
                println!(
                    "op_budget {tier:?} {:?}: us/row (share)   prefill rows {}..{PROMPT}   \
                     decode row at {PROMPT}",
                    p.cfg.precision,
                    PROMPT - PREFILL_ROWS
                );
                let (pt, dt) = (prefill.iter().sum::<f64>(), decode.iter().sum::<f64>());
                for (op, name) in OPS.iter().enumerate() {
                    println!(
                        "  {name:<10} {:8.1} ({:4.1} %)   {:8.1} ({:4.1} %)",
                        prefill[op],
                        100.0 * prefill[op] / pt,
                        decode[op],
                        100.0 * decode[op] / dt
                    );
                }
                println!("  {:<10} {pt:8.1}            {dt:8.1}", "row");
            }
        }
    }

    #[test]
    fn session_bytes_matches_the_allocation() {
        // The serve prefix cache and the KV ledger budget with
        // `session_bytes()`; it must equal what a fresh session holds —
        // and what a snapshot holds: a clone, also of a session whose
        // scratch block-fed prefill has grown.
        use crate::Tier;
        let tiers = [Tier::S7b, Tier::S8b, Tier::S70b].map(|t| ModelConfig::tier(t, 512));
        for base in tiers.into_iter().chain([ModelConfig::tiny(24)]) {
            for precision in [WeightPrecision::F32, WeightPrecision::Int8] {
                let cfg = base.with_precision(precision);
                let mut sess = InferenceSession::new(cfg);
                assert_eq!(sess.buffer_bytes(), cfg.session_bytes(), "{cfg:?}");

                let p = Params::init(base, &mut Rng::seed_from(18));
                let p = if precision == WeightPrecision::Int8 { p.quantized() } else { p };
                // A first block of 9 rows, then full ones: the scratch ends
                // at one row block exactly — not at the prompt's length, and
                // not at twice the first growth.
                sess.try_feed_prompt(&p, &[1; 9]).unwrap();
                sess.try_feed_prompt(&p, &[1; PREFILL_ROWS + 3]).unwrap();
                let row = (5 * cfg.d_model + 1 + 3 * cfg.d_ff) * 4
                    + if precision == WeightPrecision::Int8 { cfg.d_model + cfg.d_ff } else { 0 };
                let grown = cfg.session_bytes() + (PREFILL_ROWS - 1) * row;
                assert_eq!(sess.buffer_bytes(), grown, "block-fed {cfg:?}");
                assert_eq!(sess.clone().buffer_bytes(), cfg.session_bytes(), "clone of block-fed {cfg:?}");
                // An all-rows chunk leaves the scratch at its row count.
                sess.try_feed_chunk(&p, &[1; 4]).unwrap();
                assert_eq!(sess.clone().buffer_bytes(), cfg.session_bytes(), "clone of chunk-fed {cfg:?}");
            }
        }
    }
}
