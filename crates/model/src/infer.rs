//! KV-cache incremental decoding.
//!
//! [`InferenceSession`] caches per-layer keys and values so each token
//! costs `O(params + pos·d_model)` — the standard autoregressive-serving
//! structure. Used by the full-instruct method (free generation) and the
//! next-token methods (single logit readout after the prompt).
//!
//! The transformer block is written once here. The private
//! `forward_rows` advances *lanes* — `(session, tokens)` pairs, `m ≥ 1`
//! token rows in all — through embed → per layer (RMSNorm → Q/K/V → RoPE →
//! causal attention over `0..=pos` → Wo + residual → RMSNorm → SwiGLU →
//! W_down + residual) → final norm → tied LM head. Every linear layer runs
//! **once per weight matrix over all lanes' rows**, so a weight is
//! streamed from memory once per call however many sessions it serves;
//! what belongs to one sequence stays per lane: its K/V rows are copied
//! into its own cache and rotated (RoPE) with its query rows, each at its
//! own position, and then one [`attend_rows`] call takes all of the lane's
//! rows and heads over that lane's own cache, in bands of four rows that
//! share every key and value load. The row scratch is the first lane's.
//! The head has two modes: logits of every row, into a buffer the caller
//! lends (each lane's last row also lands in its session), or — one lane
//! — of the last row only, into the session; then the final norm and the
//! `vocab × d_model` product run on one row whatever `m` is. Four entries
//! call it:
//!
//! * [`InferenceSession::feed`] / [`InferenceSession::try_feed`] — one
//!   lane, one row, last-row logits: a decode step of one session alone
//!   (`StepDecoder::step` — the serial oracle and the decode probes);
//! * [`InferenceSession::try_feed_prompt`] — prefill: one lane, the token
//!   slice in row blocks of `PREFILL_ROWS`, last-row logits, so the f32
//!   kernel streams a weight matrix once per 4-row band (four times per
//!   block) rather than once per token, and the scratch never holds more
//!   rows than one block however long the prompt.
//!   [`InferenceSession::feed_prompt`] is its panicking wrapper
//!   (the serial reference paths in `astro-eval`); the engine's job
//!   lifecycle (`astro-serve`'s `Sequence::advance`) feeds every prompt
//!   stretch through it;
//! * [`InferenceSession::try_feed_chunk`] — one lane, all `n` rows at
//!   once, every row's logits (`bench/`'s `chunk4` probe, the split
//!   suites);
//! * [`InferenceSession::try_feed_lanes`] — several sessions at their own
//!   positions in one stacked call, every row's logits. `astro-serve` has
//!   two customers: its score readout forks a question's continuation
//!   variants and feeds all their rows at once instead of one `feed` per
//!   token, and its scheduler feeds the tokens a step's decoding
//!   sequences sampled — one lane and one row each — so a decode step
//!   streams the weights once, not once per sequence.
//!
//! `forward_rows` has one other caller, the `op_budget` test behind
//! docs/TUNING.md's per-op table: it lends the forward a lap slot, one µs
//! total per `OPS` entry, and the forward books each op's wall time there.
//! The entries above leave the slot empty, so the forward that is timed is
//! the one that runs.
//!
//! Weight precision enters at the linear layers only: `norm_rows` and the
//! two int8 epilogues (attention output, SwiGLU) leave a layer's input
//! rows as f32, or as int8 with one scale per row, and `linear` multiplies
//! them by the f32 weight or its int8 copy. RoPE, attention, the residual
//! stream and the KV cache are f32 under both precisions.
//!
//! How a token stream is split into calls — or stacked with other
//! sessions' rows — never changes a bit of the result: on the f32 path
//! every output element is the same [`dot`] over the same operands
//! whatever the row blocking (`matmul_a_bt`'s contract), on the int8 path
//! the integer accumulation is exact, attention returns each (row, head)
//! the bits of the naive per-key loops whatever rows share its call
//! (`attend_rows`' contract), and every other op is per row
//! (`tests/chunk_split.rs`).

use crate::params::Params;
use crate::{rope, rope_tables, ModelConfig, WeightPrecision};
use astro_quant::QuantMatrix;
use astro_tensor::attention::{attend_rows, score_rows};
use astro_tensor::matmul::matmul_a_bt;
use astro_tensor::ops;
use astro_tensor::qmatmul::{quantize_rows_q8, rmsnorm_quantize_row, swiglu_quantize_row};
use std::time::Instant;

/// Typed failure of an [`InferenceSession`] step.
///
/// Returned by [`InferenceSession::try_feed`] so callers that score many
/// independent prompts (the `astro-serve` evaluation engine) can surface a
/// full KV cache as a *per-question* error instead of aborting a whole
/// batch.
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
    /// Logits after the last fed token.
    logits: Vec<f32>,
    rope_cos: Vec<f32>,
    rope_sin: Vec<f32>,
    /// Row scratch of the forwards this session lends it to (a stacked
    /// forward runs in its first lane's).
    scratch: Scratch,
}

/// One lane of a stacked forward ([`InferenceSession::try_feed_lanes`]):
/// a session and the tokens that advance it.
pub struct Lane<'a> {
    /// The session the tokens extend, at its own position.
    pub session: &'a mut InferenceSession,
    /// At least one token.
    pub tokens: &'a [u32],
}

/// Row scratch, `[m, ·]` for the `m` rows of the current call: one row at
/// construction and in every clone (what `ModelConfig::session_bytes`
/// budgets), grown by `fit_rows` when a larger call first arrives.
#[derive(Default)]
struct Scratch {
    /// Residual stream `[m, C]`.
    x: Vec<f32>,
    /// Normalised linear-layer input `[m, C]` (f32 path).
    ln: Vec<f32>,
    /// One f32 per row: the inverse RMS `rmsnorm_rows` reports on the f32
    /// path, the activation scale of `qx` / `qf` on the int8 path.
    row_scale: Vec<f32>,
    q: Vec<f32>,
    /// Attention output `[m, C]`; before attention, the call's V rows on
    /// their way into the lanes' caches.
    attn_out: Vec<f32>,
    /// Wo / W_down output `[m, C]`; before attention, the call's K rows.
    proj: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    act: Vec<f32>,
    /// Attention scores `[score_rows(l), max_seq]`, `l` the rows of the
    /// call's longest lane: a band of four of one lane's rows over their
    /// positions, one head at a time ([`attend_rows`]), once a lane has
    /// four rows; one row in a fresh session, every clone and every call
    /// of shorter lanes — a decode step of any number of sessions.
    scores: Vec<f32>,
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

/// The per-op slots a recording [`InferenceSession::forward_rows`] books
/// its laps into (`op_budget`'s table rows). The embedding copy is booked
/// under `head` (the tied matrix), each residual add under the linear it
/// follows and the K/V copy into the caches with RoPE under `kv+rope`.
const OPS: [&str; 9] = [
    "norm", "qkv", "kv+rope", "attn", "requant", "wo", "ffn", "swiglu", "head",
];

impl Clone for InferenceSession {
    /// Copies the state — position, KV cache, last logits — and gives the
    /// copy one-row scratch whatever the source has grown to: scratch
    /// never outlives a call, and a cached snapshot must cost what
    /// [`ModelConfig::session_bytes`] says it does.
    fn clone(&self) -> Self {
        InferenceSession {
            cfg: self.cfg,
            pos: self.pos,
            k_cache: self.k_cache.clone(),
            v_cache: self.v_cache.clone(),
            logits: self.logits.clone(),
            rope_cos: self.rope_cos.clone(),
            rope_sin: self.rope_sin.clone(),
            scratch: Scratch::one_row(&self.cfg),
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
            cfg,
            pos: 0,
            k_cache: kv(),
            v_cache: kv(),
            logits: vec![0.0; cfg.vocab_size],
            rope_cos,
            rope_sin,
            scratch: Scratch::one_row(&cfg),
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
    /// session's allocations — the no-alloc fork used by an engine that
    /// scores thousands of prompts. Only the consumed KV rows and the last
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
        Self::forward_rows(p, &mut [Lane { session: self, tokens: &[token] }], None, None);
        Ok(&self.logits)
    }

    /// Feed one token; returns the logits for the *next* token.
    ///
    /// # Panics
    /// Panics when the cache is full (`position() == max_seq`); use
    /// [`Self::try_feed`] to handle that case as a typed error.
    pub fn feed(&mut self, p: &Params, token: u32) -> &[f32] {
        assert!(self.pos < self.cfg.max_seq, "KV cache full at {}", self.pos);
        Self::forward_rows(p, &mut [Lane { session: self, tokens: &[token] }], None, None);
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
            Self::forward_rows(p, &mut [Lane { session: self, tokens: block }], None, None);
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
        let mut rows = vec![0.0f32; tokens.len() * self.cfg.vocab_size];
        Self::forward_rows(p, &mut [Lane { session: self, tokens }], Some(&mut rows), None);
        Ok(rows)
    }

    /// Advance every lane's session by its tokens in **one** stacked
    /// forward — each weight matrix is streamed once for all lanes' rows
    /// — and write the logits after every token into `rows`
    /// (`Σ tokens.len() × vocab`, lane after lane). Each session ends
    /// exactly where feeding its tokens alone would have left it, bit for
    /// bit (see the module doc), `last_logits` included. When any lane
    /// lacks room, that lane's [`SessionError::CacheFull`] is returned and
    /// **no** session has moved.
    ///
    /// # Panics
    /// Panics on no lanes, an empty lane, lanes of different
    /// configurations or a `rows` of the wrong length.
    pub fn try_feed_lanes(
        p: &Params,
        lanes: &mut [Lane<'_>],
        rows: &mut [f32],
    ) -> Result<(), SessionError> {
        for lane in lanes.iter() {
            assert!(!lane.tokens.is_empty(), "empty lane");
            lane.session.room_for(lane.tokens.len())?;
        }
        Self::forward_rows(p, lanes, Some(rows), None);
        Ok(())
    }

    /// The one transformer forward on the inference path: advance every
    /// lane's tokens — `m` rows in all, lane after lane — through every
    /// block and the tied LM head. Each linear layer runs once over all
    /// `m` rows; a lane's K/V rows are copied into its own cache at
    /// `pos..pos + len` and rotated with its query rows ([`Self::kv_rope`]),
    /// then attend over that lane's own cache in one call
    /// ([`Self::attend`]). Capacity has already been checked. The scratch
    /// is the first lane's.
    ///
    /// The logits of every row go to `all_rows` (`m × vocab`) when the
    /// caller lends one, and each lane's last row to its session;
    /// otherwise — one lane only — just the last row gets its final norm
    /// and LM head, into the session.
    ///
    /// A [`WeightPrecision::Int8`] session uses the params' int8 copy
    /// when they carry one and the f32 weights otherwise — an int8
    /// session fed unquantized params is a benign precision downgrade,
    /// not an error.
    ///
    /// With `laps`, each op's wall time in µs is added to its [`OPS`]
    /// slot; the entry points pass `None`, and recording changes no bit.
    fn forward_rows(
        p: &Params,
        lanes: &mut [Lane<'_>],
        all_rows: Option<&mut [f32]>,
        laps: Option<&mut [f64; OPS.len()]>,
    ) {
        assert!(!lanes.is_empty(), "a forward needs a lane");
        let cfg = lanes[0].session.cfg;
        assert!(lanes.iter().all(|lane| lane.session.cfg == cfg), "lanes of different configs");
        assert!(all_rows.is_some() || lanes.len() == 1, "last-row logits are a one-lane mode");
        let c = cfg.d_model;
        let f = cfg.d_ff;
        let m: usize = lanes.iter().map(|lane| lane.tokens.len()).sum();
        if let Some(rows) = &all_rows {
            assert_eq!(rows.len(), m * cfg.vocab_size, "rows has wrong size");
        }
        let quant = match cfg.precision {
            WeightPrecision::Int8 => p.quant.as_ref(),
            WeightPrecision::F32 => None,
        };
        let int8 = quant.is_some();
        // A panic below (a token out of vocab) leaves the first lane an
        // empty scratch, which its next call grows back.
        let mut s = std::mem::take(&mut lanes[0].session.scratch);
        let longest = lanes.iter().map(|lane| lane.tokens.len()).max().unwrap_or(0);
        s.fit_rows(&cfg, m, longest);
        let mut clock = laps.map(|us| (us, Instant::now()));
        let mut lap = |op: usize| {
            if let Some((us, t)) = &mut clock {
                let now = Instant::now();
                us[op] += (now - *t).as_secs_f64() * 1e6;
                *t = now;
            }
        };
        let embed = p.view(&p.layout.embed);
        let tokens = lanes.iter().flat_map(|lane| lane.tokens);
        for (row, &t) in s.x.chunks_exact_mut(c).zip(tokens) {
            let tok = t as usize;
            assert!(tok < cfg.vocab_size, "token {tok} out of vocab");
            row.copy_from_slice(&embed[tok * c..(tok + 1) * c]);
        }
        lap(8);

        for l in 0..cfg.n_layers {
            let lay = &p.layout.layers[l];
            let ql = quant.map(|qp| &qp.layers[l]);
            s.norm_rows(&cfg, p.view(&lay.attn_norm), int8);
            lap(0);
            let (a, aq, sc) = (&s.ln, &s.qx, &s.row_scale);
            linear(&mut s.q, p.view(&lay.wq), ql.map(|q| &q.wq), a, aq, sc, m);
            linear(&mut s.proj, p.view(&lay.wk), ql.map(|q| &q.wk), a, aq, sc, m);
            linear(&mut s.attn_out, p.view(&lay.wv), ql.map(|q| &q.wv), a, aq, sc, m);
            lap(1);
            let mut r0 = 0;
            for lane in lanes.iter_mut() {
                lane.session.kv_rope(&mut s, l, r0, lane.tokens.len());
                r0 += lane.tokens.len();
            }
            lap(2);
            let mut r0 = 0;
            for lane in lanes.iter_mut() {
                lane.session.attend(&mut s, l, r0, lane.tokens.len());
                r0 += lane.tokens.len();
            }
            lap(3);
            // Output projection + residual; on the int8 path the attention
            // output is re-quantized at the boundary.
            if int8 {
                quantize_rows_q8(&mut s.qx, &mut s.row_scale, &s.attn_out, m, c);
            }
            lap(4);
            let (a, aq, sc) = (&s.attn_out, &s.qx, &s.row_scale);
            linear(&mut s.proj, p.view(&lay.wo), ql.map(|q| &q.wo), a, aq, sc, m);
            ops::add_assign(&mut s.x, &s.proj);
            lap(5);
            // FFN.
            s.norm_rows(&cfg, p.view(&lay.ffn_norm), int8);
            lap(0);
            let (a, aq, sc) = (&s.ln, &s.qx, &s.row_scale);
            linear(&mut s.gate, p.view(&lay.w_gate), ql.map(|q| &q.w_gate), a, aq, sc, m);
            linear(&mut s.up, p.view(&lay.w_up), ql.map(|q| &q.w_up), a, aq, sc, m);
            lap(6);
            s.swiglu_rows(f, int8);
            lap(7);
            let (a, aq, sc) = (&s.act, &s.qf, &s.row_scale);
            linear(&mut s.proj, p.view(&lay.w_down), ql.map(|q| &q.w_down), a, aq, sc, m);
            ops::add_assign(&mut s.x, &s.proj);
            lap(6);
        }

        if all_rows.is_none() && m > 1 {
            // Only the last row's logits are wanted: move it to the front
            // and finish as a one-row call.
            s.x.copy_within((m - 1) * c.., 0);
            s.fit_rows(&cfg, 1, 1);
        }
        s.norm_rows(&cfg, p.view(&p.layout.final_norm), int8);
        lap(0);
        // Tied LM head: logits[v] = ln · embed_row(v).
        let lm_head = quant.map(|qp| &qp.lm_head);
        let rows = s.row_scale.len();
        match all_rows {
            Some(out) => {
                linear(out, embed, lm_head, &s.ln, &s.qx, &s.row_scale, rows);
                let mut r0 = 0;
                for lane in lanes.iter_mut() {
                    r0 += lane.tokens.len();
                    let last = (r0 - 1) * cfg.vocab_size..r0 * cfg.vocab_size;
                    lane.session.logits.copy_from_slice(&out[last]);
                }
            }
            None => {
                let out = &mut lanes[0].session.logits;
                linear(out, embed, lm_head, &s.ln, &s.qx, &s.row_scale, rows);
            }
        }
        lap(8);
        for lane in lanes.iter_mut() {
            lane.session.pos += lane.tokens.len();
        }
        lanes[0].session.scratch = s;
    }

    /// This session's `m` rows of the call, scratch rows `r0..r0 + m`:
    /// copy their K and V rows (in `s.proj` and `s.attn_out`) into the
    /// cache at `pos..pos + m`, then RoPE, at each row's own position, on
    /// its query row in `s.q` and its K cache row. f32 under both weight
    /// precisions.
    fn kv_rope(&mut self, s: &mut Scratch, l: usize, r0: usize, m: usize) {
        let c = self.cfg.d_model;
        let hs = self.cfg.head_dim();
        let k_cache = &mut self.k_cache[l][..];
        let (rows, cached) = (r0 * c..(r0 + m) * c, self.pos * c..(self.pos + m) * c);
        k_cache[cached.clone()].copy_from_slice(&s.proj[rows.clone()]);
        self.v_cache[l][cached.clone()].copy_from_slice(&s.attn_out[rows.clone()]);
        let q_rows = s.q[rows].chunks_exact_mut(c);
        for (pos, (q, k)) in (self.pos..).zip(q_rows.zip(k_cache[cached].chunks_exact_mut(c))) {
            rope::<false>([q, k], &self.rope_cos, &self.rope_sin, pos, hs);
        }
    }

    /// Causal attention of this session's `m` rows, scratch rows
    /// `r0..r0 + m` of `s.q` into `s.attn_out`, after [`Self::kv_rope`]:
    /// one [`attend_rows`] call over every head, row `i` over positions
    /// `0..=pos + i` — which include this call's earlier rows.
    fn attend(&self, s: &mut Scratch, l: usize, r0: usize, m: usize) {
        let c = self.cfg.d_model;
        let (rows, cached) = (r0 * c..(r0 + m) * c, ..(self.pos + m) * c);
        let (k, v) = (&self.k_cache[l][cached], &self.v_cache[l][cached]);
        let (out, q) = (&mut s.attn_out[rows.clone()], &s.q[rows]);
        attend_rows(out, &mut s.scores, q, k, v, c, self.cfg.head_dim(), self.pos);
    }
}

impl Scratch {
    /// One-row scratch: what a fresh session and every clone hold.
    fn one_row(cfg: &ModelConfig) -> Self {
        let mut s = Scratch::default();
        s.fit_rows(cfg, 1, 1);
        s
    }

    /// Size the row scratch for an `m`-row call whose longest lane has
    /// `lane_rows` rows. Shrinking keeps the capacity and growing reserves
    /// exactly, so this allocates only when a call larger than any before
    /// arrives — never for a session that is fed one token at a time — and
    /// the scratch holds exactly as many rows as the largest call so far.
    fn fit_rows(&mut self, cfg: &ModelConfig, m: usize, lane_rows: usize) {
        fn fit<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
            buf.reserve_exact(len.saturating_sub(buf.len()));
            buf.resize(len, T::default());
        }
        let c = cfg.d_model;
        let f = cfg.d_ff;
        for buf in [&mut self.x, &mut self.ln, &mut self.q, &mut self.attn_out, &mut self.proj] {
            fit(buf, m * c);
        }
        for buf in [&mut self.gate, &mut self.up, &mut self.act] {
            fit(buf, m * f);
        }
        fit(&mut self.row_scale, m);
        fit(&mut self.scores, score_rows(lane_rows) * cfg.max_seq);
        if cfg.precision == WeightPrecision::Int8 {
            fit(&mut self.qx, m * c);
            fit(&mut self.qf, m * f);
        }
    }

    /// RMSNorm the residual rows into the next linear layer's input: f32
    /// rows in `ln`, or — fused, never materialising the normalised f32
    /// row — int8 rows in `qx` with their scales in `row_scale`.
    fn norm_rows(&mut self, cfg: &ModelConfig, g: &[f32], int8: bool) {
        let c = cfg.d_model;
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

    /// SwiGLU of `gate` and `up` into the W_down input: f32 rows in `act`,
    /// and on the int8 path their quantized copy in `qf` with the scales
    /// in `row_scale`.
    fn swiglu_rows(&mut self, f: usize, int8: bool) {
        if int8 {
            for i in 0..self.row_scale.len() {
                let r = i * f..(i + 1) * f;
                self.row_scale[i] = swiglu_quantize_row(
                    &mut self.qf[r.clone()],
                    &mut self.act[r.clone()],
                    &self.gate[r.clone()],
                    &self.up[r],
                );
            }
        } else {
            ops::swiglu(&mut self.act, &self.gate, &self.up);
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
            let s = &self.scratch;
            let f32_bufs = [
                &s.x, &s.ln, &s.row_scale, &s.q, &s.attn_out, &s.proj, &s.gate, &s.up, &s.act,
                &s.scores, &self.logits, &self.rope_cos, &self.rope_sin,
            ];
            let f32s: usize = f32_bufs
                .into_iter()
                .chain(&self.k_cache)
                .chain(&self.v_cache)
                .map(Vec::capacity)
                .sum();
            f32s * std::mem::size_of::<f32>() + s.qx.capacity() + s.qf.capacity()
        }
    }

    /// The training forward and the inference forward run the same
    /// kernels, so `TrainContext::forward`'s logits are `try_feed_chunk`'s
    /// for each batch row, bit for bit: every tier, batch 2, sequences
    /// short of one attention band (1, 3), one band (4), full bands and a
    /// leftover row (5, 13, 37) and the fast preset's 224 — those that fit
    /// the configuration's `max_seq` (32 for tiny).
    #[test]
    fn incremental_matches_batched_forward() {
        use crate::Tier;
        let tiers = [Tier::S7b, Tier::S8b, Tier::S70b].map(|t| ModelConfig::tier(t, 512));
        for cfg in [ModelConfig::tiny(24)].into_iter().chain(tiers) {
            let p = Params::init(cfg, &mut Rng::seed_from(4));
            let mut rng = Rng::seed_from(5);
            let vocab = cfg.vocab_size;
            for t in [1, 3, 4, 5, 13, 37, 224].into_iter().filter(|&t| t <= cfg.max_seq) {
                let tokens: Vec<u32> = (0..2 * t).map(|_| rng.below(vocab as u64) as u32).collect();
                let mut ctx = TrainContext::new(cfg, 2, t);
                ctx.forward(&p, &tokens);
                for (row, seq) in tokens.chunks(t).enumerate() {
                    let chunk = InferenceSession::new(cfg).try_feed_chunk(&p, seq).unwrap();
                    let batched = &ctx.logits[row * t * vocab..(row + 1) * t * vocab];
                    let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits();
                    let differ = chunk.iter().zip(batched).position(|pair| !same(pair));
                    let at = format!("d_model {} T {t} row {row}", cfg.d_model);
                    assert_eq!(differ, None, "{at}: index of the first differing logit");
                }
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

    /// Rows of each continuation variant in `op_columns`' stacked
    /// readouts, one column each: the workloads feed lanes of one row to
    /// sixteen.
    const READOUT_ROWS: [usize; 4] = [1, 2, 3, 16];

    /// `op_columns`' columns: prefill, decode, then one per readout size.
    const COLUMNS: usize = 2 + READOUT_ROWS.len();

    /// `p`'s per-op budget in µs per row, each op the median of `reps`
    /// recorded forwards: the last `PREFILL_ROWS`-row block of a
    /// `prompt`-token prompt, the decode row after it, and a stacked score
    /// readout at that position for each of `READOUT_ROWS` — `lanes` forks
    /// of the prompt fed that many continuation rows each in one all-rows
    /// forward. Every recorded forward's logits must equal
    /// `try_feed_prompt`'s, `feed`'s and `try_feed_lanes`' bit for bit.
    fn op_columns(p: &Params, prompt: usize, lanes: usize, reps: usize) -> [[f64; OPS.len()]; COLUMNS] {
        fn readout<'a>(forks: &'a mut [InferenceSession], variants: &'a [Vec<u32>]) -> Vec<Lane<'a>> {
            forks.iter_mut().zip(variants).map(|(session, tokens)| Lane { session, tokens }).collect()
        }
        let vocab = p.cfg.vocab_size;
        let tokens: Vec<u32> = (0..=prompt).map(|i| (i * 37 % vocab) as u32).collect();
        let (head, block) = tokens[..prompt].split_at(prompt - PREFILL_ROWS);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut base = InferenceSession::new(p.cfg);
        base.try_feed_prompt(p, head).unwrap();
        let mut oracle = base.clone();
        let block_logits = bits(oracle.try_feed_prompt(p, block).unwrap());
        let prompted = oracle.clone();
        let decode_logits = bits(oracle.feed(p, tokens[prompt]));
        let mut forks: Vec<InferenceSession> = vec![prompted.clone(); lanes];
        let readouts = READOUT_ROWS.map(|rows| {
            let variants: Vec<Vec<u32>> = (0..lanes)
                .map(|v| (0..rows).map(|i| ((v * 53 + i * 11) % vocab) as u32).collect())
                .collect();
            for fork in &mut forks {
                fork.assign_from(&prompted);
            }
            let mut logits = vec![0.0; lanes * rows * vocab];
            InferenceSession::try_feed_lanes(p, &mut readout(&mut forks, &variants), &mut logits).unwrap();
            (variants, bits(&logits))
        });

        let mut sess = InferenceSession::new(p.cfg);
        let mut rows = Vec::new();
        let mut laps = vec![[[0.0; OPS.len()]; COLUMNS]; reps];
        for [block_us, decode_us, readout_us @ ..] in &mut laps {
            sess.assign_from(&base);
            let mut lane = [Lane { session: &mut sess, tokens: block }];
            InferenceSession::forward_rows(p, &mut lane, None, Some(block_us));
            assert_eq!(bits(&sess.logits), block_logits, "recorded prefill block differs");
            let mut lane = [Lane { session: &mut sess, tokens: &tokens[prompt..] }];
            InferenceSession::forward_rows(p, &mut lane, None, Some(decode_us));
            assert_eq!(bits(&sess.logits), decode_logits, "recorded decode row differs");
            for ((variants, want), us) in readouts.iter().zip(readout_us) {
                for fork in &mut forks {
                    fork.assign_from(&prompted);
                }
                rows.resize(want.len(), 0.0);
                InferenceSession::forward_rows(p, &mut readout(&mut forks, variants), Some(&mut rows), Some(us));
                assert_eq!(bits(&rows), *want, "recorded {}-row stacked readout differs", variants[0].len());
            }
        }
        let per_row: Vec<usize> =
            [PREFILL_ROWS, 1].into_iter().chain(READOUT_ROWS.map(|r| lanes * r)).collect();
        std::array::from_fn(|column| {
            std::array::from_fn(|op| {
                let mut us: Vec<f64> = laps.iter().map(|rep| rep[column][op]).collect();
                us.sort_by(f64::total_cmp);
                us[reps / 2] / per_row[column] as f64
            })
        })
    }

    #[test]
    fn recorded_forward_matches_the_entry_points() {
        // `op_budget`'s bit checks, one rep on the tiny model (its context
        // stretched to fit the longest readout): recording laps changes no
        // logit of a prefill block, a decode row or a stacked readout.
        let cfg = ModelConfig { max_seq: 48, ..ModelConfig::tiny(64) };
        let p = Params::init(cfg, &mut Rng::seed_from(19));
        for p in [p.clone(), p.quantized()] {
            let columns = op_columns(&p, 24, 3, 1);
            assert!(columns.iter().all(|col| col.iter().sum::<f64>() > 0.0), "no laps recorded");
        }
    }

    /// Where a forward row's time goes, op by op — the table kernel and
    /// scheduler work is sized from (docs/TUNING.md). Log-only:
    ///
    /// ```sh
    /// cargo test --release -p astro-model --lib -- --ignored --nocapture op_budget
    /// ```
    ///
    /// `op_columns` for S7b and S70b × f32/int8 at a 136-token prompt
    /// (methods 2/3's length) and readouts of `READOUT_LANES` forks (the
    /// fast preset's eight variants) of 1, 2, 3 and 16 rows each, each op
    /// the median of `REPS` runs, in µs per row and as a share of the row.
    #[test]
    #[ignore]
    fn op_budget() {
        use crate::Tier;
        const REPS: usize = 101;
        const PROMPT: usize = 136;
        const READOUT_LANES: usize = 8;
        for tier in [Tier::S7b, Tier::S70b] {
            let f32_params = Params::init(ModelConfig::tier(tier, 512), &mut Rng::seed_from(19));
            let int8_params = f32_params.clone().quantized();
            for p in [&f32_params, &int8_params] {
                let columns = op_columns(p, PROMPT, READOUT_LANES, REPS);
                println!(
                    "op_budget {tier:?} {:?} ({:?} kernels): us/row (share)   \
                     prefill rows {}..{PROMPT}   decode row at {PROMPT}   \
                     readouts of {READOUT_LANES} lanes x {READOUT_ROWS:?} rows at {PROMPT}",
                    p.cfg.precision,
                    astro_tensor::simd(),
                    PROMPT - PREFILL_ROWS
                );
                print!("  {:<10}", "");
                let readouts = READOUT_ROWS.map(|r| format!("readout x{r}"));
                for head in ["prefill", "decode"].into_iter().chain(readouts.iter().map(String::as_str)) {
                    print!(" {head:>18}");
                }
                println!();
                let totals = columns.map(|col| col.iter().sum::<f64>());
                for (op, name) in OPS.iter().enumerate() {
                    print!("  {name:<10}");
                    for (col, total) in columns.iter().zip(totals) {
                        print!(" {:8.1} ({:4.1} %) ", col[op], 100.0 * col[op] / total);
                    }
                    println!();
                }
                print!("  {:<10}", "row");
                for total in totals {
                    print!(" {total:8.1}          ");
                }
                println!();
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
                let row = (5 * cfg.d_model + 1 + 3 * cfg.d_ff) * 4
                    + if precision == WeightPrecision::Int8 { cfg.d_model + cfg.d_ff } else { 0 };
                // A stacked decode step of four one-row lanes grows the
                // first lane's row scratch to four rows, its scores not.
                let mut others: [_; 3] = std::array::from_fn(|_| InferenceSession::new(cfg));
                let [b, c, d] = &mut others;
                let mut lanes = [&mut sess, b, c, d].map(|session| Lane { session, tokens: &[1] });
                let mut logits = vec![0.0; 4 * cfg.vocab_size];
                InferenceSession::try_feed_lanes(&p, &mut lanes, &mut logits).unwrap();
                assert_eq!(sess.buffer_bytes(), cfg.session_bytes() + 3 * row, "decode-stacked {cfg:?}");
                let mut sess = InferenceSession::new(cfg);
                // A first block of 9 rows, then full ones: the scratch ends
                // at one row block exactly — not at the prompt's length, and
                // not at twice the first growth — and the scores at one band.
                sess.try_feed_prompt(&p, &[1; 9]).unwrap();
                sess.try_feed_prompt(&p, &[1; PREFILL_ROWS + 3]).unwrap();
                let band = (score_rows(PREFILL_ROWS) - 1) * cfg.max_seq * 4;
                let grown = cfg.session_bytes() + (PREFILL_ROWS - 1) * row + band;
                assert_eq!(sess.buffer_bytes(), grown, "block-fed {cfg:?}");
                assert_eq!(sess.clone().buffer_bytes(), cfg.session_bytes(), "clone of block-fed {cfg:?}");
                // An all-rows chunk leaves the scratch at its row count.
                sess.try_feed_chunk(&p, &[1; 4]).unwrap();
                assert_eq!(sess.clone().buffer_bytes(), cfg.session_bytes(), "clone of chunk-fed {cfg:?}");
            }
        }
    }
}
