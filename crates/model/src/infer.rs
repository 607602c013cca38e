//! KV-cache incremental decoding.
//!
//! [`InferenceSession`] caches per-layer keys and values so each token
//! costs `O(params + pos·d_model)` — the standard autoregressive-serving
//! structure. Used by the full-instruct method (free generation) and the
//! next-token methods (single logit readout after the prompt).
//!
//! The transformer block is written once here. The private
//! `forward_rows` advances *runs* — token slices, each at some session's
//! position, `m ≥ 1` token rows in all — through embed → per layer
//! (RMSNorm → Q/K/V → RoPE → causal attention over `0..=pos` → Wo +
//! residual → RMSNorm → SwiGLU → W_down + residual) → final norm → tied LM
//! head. Every linear layer runs **once per weight matrix over all runs'
//! rows**, so a weight is streamed from memory once per call however many
//! sequences it serves; what belongs to one run stays per run: its K/V
//! rows are copied into its session's cache and rotated (RoPE) with its
//! query rows, each at its own position, and then one [`attend_rows`] call
//! takes all of the run's rows and heads over that cache, in bands of four
//! rows that share every key and value load — before the next run writes
//! its K/V. A run is a *lane* (a session and the tokens that advance it)
//! or a *branch* (tokens that start at one shared session's position and
//! read its prefix in place, without moving it). The row scratch is the
//! first session's. The head has two modes: logits of every row, into a
//! buffer the caller lends (each lane's last row also lands in its
//! session), or — one lane — of the last row only, into the session; then
//! the final norm and the `vocab × d_model` product run on one row
//! whatever `m` is. Five entries call it:
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
//!   positions in one stacked call, every row's logits: `astro-serve`'s
//!   scheduler feeds the tokens a step's decoding sequences sampled — one
//!   lane and one row each — so a decode step streams the weights once,
//!   not once per sequence;
//! * [`InferenceSession::try_feed_branches`] — several runs branching off
//!   one session in one stacked call, every row's logits: `astro-serve`'s
//!   score readout feeds a question's continuation variants after its
//!   prompt, every variant attending the one resident copy of the prompt's
//!   K/V instead of a fork of it each.
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
//! them by the f32 weight or by its one packed copy ([`Packed`]): int8 rows
//! by `Packed::Int8`, the int8 panels on every CPU, which only an int8
//! session reads; f32 rows by `Packed::Panels` when the params carry them
//! (`Params::frozen`, what an engine serves, packs them on an AVX-512
//! CPU), else by the f32 weight. RoPE, attention, the residual stream and
//! the KV cache are f32 under both precisions.
//!
//! How a token stream is split into calls — or stacked with other
//! sessions' rows, or fed as a branch rather than to a fork — never
//! changes a bit of the result: on the f32 path
//! every output element is the same [`dot`] over the same operands
//! whatever the row blocking and whether the panels or the row-major
//! weight ran (`matmul_a_bt`'s contract, and `Panels`'), on the int8 path
//! the integer accumulation is exact whichever tile ran, attention returns
//! each (row, head) the bits of the naive per-key loops whatever rows
//! share its call (`attend_rows`' contract) and reads no cache row past
//! its own position — so not another branch's — and every other op is per
//! row (`tests/chunk_split.rs`).

use crate::params::{Packed, Params, LINEARS};
use crate::{rope, rope_tables, ModelConfig, WeightPrecision};
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
/// can continue independently — used by the serial scoring reference to
/// score each answer continuation against one prompt without re-encoding
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
    /// forward runs in its first session's).
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

/// What one `forward_rows` call advances: its *runs*, each a token slice
/// at some session's position, stacked into the call's rows in order.
enum Runs<'s, 'a> {
    /// Each lane's run extends its own session ([`InferenceSession::try_feed_lanes`]
    /// and, as one lane, every single-session feed).
    Lanes(&'s mut [Lane<'a>]),
    /// Every run branches off the one session's position and reads its
    /// prefix in place; none moves it ([`InferenceSession::try_feed_branches`]).
    Branches(&'s mut InferenceSession, &'s [&'a [u32]]),
}

impl Runs<'_, '_> {
    /// The session whose scratch the call runs in: the first lane's, or
    /// the one the branches share.
    fn first(&mut self) -> &mut InferenceSession {
        match self {
            Runs::Lanes(lanes) => &mut *lanes[0].session,
            Runs::Branches(session, _) => session,
        }
    }

    /// Every run's tokens, in row order.
    fn tokens(&self) -> impl Iterator<Item = &[u32]> {
        let (lanes, runs): (&[Lane<'_>], &[&[u32]]) = match self {
            Runs::Lanes(lanes) => (lanes, &[]),
            Runs::Branches(_, runs) => (&[], runs),
        };
        lanes.iter().map(|lane| lane.tokens).chain(runs.iter().copied())
    }

    /// `f(session, r0, len)` for every run in row order: the session it
    /// extends or branches off, and its rows `r0..r0 + len` of the call.
    fn for_each_run(&mut self, mut f: impl FnMut(&mut InferenceSession, usize, usize)) {
        let mut r0 = 0;
        let mut run = |session: &mut InferenceSession, len: usize| {
            f(session, r0, len);
            r0 += len;
        };
        match self {
            Runs::Lanes(lanes) => {
                lanes.iter_mut().for_each(|lane| run(&mut *lane.session, lane.tokens.len()))
            }
            Runs::Branches(session, runs) => runs.iter().for_each(|r| run(session, r.len())),
        }
    }
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
    /// their way into the runs' caches.
    attn_out: Vec<f32>,
    /// Wo / W_down output `[m, C]`; before attention, the call's K rows.
    proj: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    act: Vec<f32>,
    /// Attention scores `[score_rows(l), max_seq]`, `l` the rows of the
    /// call's longest run: a band of four of one run's rows over their
    /// positions, one head at a time ([`attend_rows`]), once a run has
    /// four rows; one row in a fresh session, every clone and every call
    /// of shorter runs — a decode step of any number of sessions.
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
        Self::forward_rows(p, Runs::Lanes(&mut [Lane { session: self, tokens: &[token] }]), None, None);
        Ok(&self.logits)
    }

    /// Feed one token; returns the logits for the *next* token.
    ///
    /// # Panics
    /// Panics when the cache is full (`position() == max_seq`); use
    /// [`Self::try_feed`] to handle that case as a typed error.
    pub fn feed(&mut self, p: &Params, token: u32) -> &[f32] {
        assert!(self.pos < self.cfg.max_seq, "KV cache full at {}", self.pos);
        Self::forward_rows(p, Runs::Lanes(&mut [Lane { session: self, tokens: &[token] }]), None, None);
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
            Self::forward_rows(p, Runs::Lanes(&mut [Lane { session: self, tokens: block }]), None, None);
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
        Self::forward_rows(p, Runs::Lanes(&mut [Lane { session: self, tokens }]), Some(&mut rows), None);
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
        Self::forward_rows(p, Runs::Lanes(lanes), Some(rows), None);
        Ok(())
    }

    /// Feed each of `runs` as a **branch** of this session: every run
    /// starts at this session's position and attends its prefix K/V in
    /// place — nothing is copied — and all runs' rows go through **one**
    /// stacked forward, each weight matrix streamed once for them all. The
    /// logits after every token land in `rows` (`Σ run.len() × vocab`, run
    /// after run), bit for bit what feeding the run to a fork of this
    /// session returns (see the module doc). The session's position and
    /// last logits do not move; its cache rows from its position on are
    /// overwritten, which is free, since every feed writes its rows before
    /// it reads them. When a run lacks room, that run's
    /// [`SessionError::CacheFull`] is returned and nothing has been fed.
    ///
    /// # Panics
    /// Panics on no runs, an empty run or a `rows` of the wrong length.
    pub fn try_feed_branches(
        &mut self,
        p: &Params,
        runs: &[&[u32]],
        rows: &mut [f32],
    ) -> Result<(), SessionError> {
        for run in runs {
            assert!(!run.is_empty(), "empty run");
            self.room_for(run.len())?;
        }
        Self::forward_rows(p, Runs::Branches(self, runs), Some(rows), None);
        Ok(())
    }

    /// The one transformer forward on the inference path: advance every
    /// run's tokens — `m` rows in all, run after run — through every block
    /// and the tied LM head. Each linear layer runs once over all `m`
    /// rows; then, per layer and run, the run's K/V rows are copied into
    /// its session's cache at `pos..pos + len` and rotated with its query
    /// rows ([`Self::kv_rope`]), and its rows attend over that cache in one
    /// call ([`Self::attend`]) before the next run writes — which is what
    /// lets branches share one session's rows past its position. Capacity
    /// has already been checked. The scratch is the first session's.
    ///
    /// The logits of every row go to `all_rows` (`m × vocab`) when the
    /// caller lends one, and each lane's last row to its session;
    /// otherwise — one lane only — just the last row gets its final norm
    /// and LM head, into the session. Lanes advance their sessions;
    /// branches leave theirs where it was, last logits included.
    ///
    /// The int8 arm runs only when the session is
    /// [`WeightPrecision::Int8`] and the params' packed copy is int8 too,
    /// in either form; an f32 session ignores an int8 copy. Every other
    /// pairing — an int8 session on f32 or panel params, an f32 session on
    /// quantized ones, frozen or not — runs the f32 arms: a benign
    /// precision downgrade, not an error.
    ///
    /// With `laps`, each op's wall time in µs is added to its [`OPS`]
    /// slot; the entry points pass `None`, and recording changes no bit.
    fn forward_rows(
        p: &Params,
        mut runs: Runs<'_, '_>,
        all_rows: Option<&mut [f32]>,
        laps: Option<&mut [f64; OPS.len()]>,
    ) {
        assert!(runs.tokens().next().is_some(), "a forward needs a lane");
        let cfg = runs.first().cfg;
        if let Runs::Lanes(lanes) = &runs {
            assert!(lanes.iter().all(|lane| lane.session.cfg == cfg), "lanes of different configs");
        }
        let one_lane = matches!(runs, Runs::Lanes([_]));
        assert!(all_rows.is_some() || one_lane, "last-row logits are a one-lane mode");
        let c = cfg.d_model;
        let f = cfg.d_ff;
        let m: usize = runs.tokens().map(<[u32]>::len).sum();
        if let Some(rows) = &all_rows {
            assert_eq!(rows.len(), m * cfg.vocab_size, "rows has wrong size");
        }
        let packed: &[Packed] = match (cfg.precision, p.packed.last()) {
            (WeightPrecision::F32, Some(w)) if w.is_int8() => &[],
            _ => &p.packed[..],
        };
        let int8 = packed.last().is_some_and(Packed::is_int8);
        // A panic below (a token out of vocab) leaves the first session an
        // empty scratch, which its next call grows back.
        let mut s = std::mem::take(&mut runs.first().scratch);
        let longest = runs.tokens().map(<[u32]>::len).max().unwrap_or(0);
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
        for (row, &t) in s.x.chunks_exact_mut(c).zip(runs.tokens().flatten()) {
            let tok = t as usize;
            assert!(tok < cfg.vocab_size, "token {tok} out of vocab");
            row.copy_from_slice(&embed[tok * c..(tok + 1) * c]);
        }
        lap(8);

        for (l, lay) in p.layout.layers.iter().enumerate() {
            let (ranges, copies) = (lay.linears(), packed.get(l * LINEARS..(l + 1) * LINEARS));
            let [wq, wk, wv, wo, w_gate, w_up, w_down] =
                std::array::from_fn(|j| (p.view(ranges[j]), copies.map(|w| &w[j])));
            s.norm_rows(&cfg, p.view(&lay.attn_norm), int8);
            lap(0);
            let (a, aq, sc) = (&s.ln, &s.qx, &s.row_scale);
            linear(&mut s.q, wq, a, aq, sc, m);
            linear(&mut s.proj, wk, a, aq, sc, m);
            linear(&mut s.attn_out, wv, a, aq, sc, m);
            lap(1);
            runs.for_each_run(|sess, r0, len| {
                sess.kv_rope(&mut s, l, r0, len);
                lap(2);
                sess.attend(&mut s, l, r0, len);
                lap(3);
            });
            // Output projection + residual; on the int8 path the attention
            // output is re-quantized at the boundary.
            if int8 {
                quantize_rows_q8(&mut s.qx, &mut s.row_scale, &s.attn_out, m, c);
            }
            lap(4);
            let (a, aq, sc) = (&s.attn_out, &s.qx, &s.row_scale);
            linear(&mut s.proj, wo, a, aq, sc, m);
            ops::add_assign(&mut s.x, &s.proj);
            lap(5);
            // FFN.
            s.norm_rows(&cfg, p.view(&lay.ffn_norm), int8);
            lap(0);
            let (a, aq, sc) = (&s.ln, &s.qx, &s.row_scale);
            linear(&mut s.gate, w_gate, a, aq, sc, m);
            linear(&mut s.up, w_up, a, aq, sc, m);
            lap(6);
            s.swiglu_rows(f, int8);
            lap(7);
            let (a, aq, sc) = (&s.act, &s.qf, &s.row_scale);
            linear(&mut s.proj, w_down, a, aq, sc, m);
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
        let head = (embed, packed.last());
        let rows = s.row_scale.len();
        match all_rows {
            Some(out) => {
                linear(out, head, &s.ln, &s.qx, &s.row_scale, rows);
                if let Runs::Lanes(lanes) = &mut runs {
                    let mut r0 = 0;
                    for lane in lanes.iter_mut() {
                        r0 += lane.tokens.len();
                        let last = (r0 - 1) * cfg.vocab_size..r0 * cfg.vocab_size;
                        lane.session.logits.copy_from_slice(&out[last]);
                    }
                }
            }
            None => {
                let out = &mut runs.first().logits;
                linear(out, head, &s.ln, &s.qx, &s.row_scale, rows);
            }
        }
        lap(8);
        if let Runs::Lanes(lanes) = &mut runs {
            for lane in lanes.iter_mut() {
                lane.session.pos += lane.tokens.len();
            }
        }
        runs.first().scratch = s;
    }

    /// One run's `m` rows of the call, scratch rows `r0..r0 + m`, on this
    /// session: copy their K and V rows (in `s.proj` and `s.attn_out`) into the
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

    /// Causal attention of one run's `m` rows on this session, scratch rows
    /// `r0..r0 + m` of `s.q` into `s.attn_out`, after [`Self::kv_rope`]:
    /// one [`attend_rows`] call over every head, row `i` over positions
    /// `0..=pos + i` — which include the run's earlier rows, and no row
    /// past its own, where another branch's K/V may lie.
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

    /// Size the row scratch for an `m`-row call whose longest run has
    /// `run_rows` rows. Shrinking keeps the capacity and growing reserves
    /// exactly, so this allocates only when a call larger than any before
    /// arrives — never for a session that is fed one token at a time — and
    /// the scratch holds exactly as many rows as the largest call so far.
    fn fit_rows(&mut self, cfg: &ModelConfig, m: usize, run_rows: usize) {
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
        fit(&mut self.scores, score_rows(run_rows) * cfg.max_seq);
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
/// precision is chosen. `w` is the f32 weight with the packed copy the
/// session reads, if any: the int8 panels read the rows as int8 `aq` with
/// one scale each; f32 panels, or no copy, read them as f32 `a`, against
/// the panels or the f32 weight. Each form returns the bits of its
/// precision's row-major reference.
fn linear(
    out: &mut [f32],
    (w, packed): (&[f32], Option<&Packed>),
    a: &[f32],
    aq: &[i8],
    scales: &[f32],
    m: usize,
) {
    match packed {
        Some(Packed::Int8(wp)) => wp.a_bt(out, aq, scales, m),
        Some(Packed::Panels(wp)) => {
            out.fill(0.0);
            wp.a_bt_acc(out, a, m);
        }
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
    fn branches_leave_the_session_where_it_was() {
        // Branches overwrite the cache rows from the session's position on,
        // which no later feed reads before it writes them: position and
        // last logits do not move, and a prompt block shorter than the
        // longest branch, then a decode row, return a fresh session's bits.
        use crate::Tier;
        for base in [ModelConfig::tiny(24), ModelConfig::tier(Tier::S7b, 24)] {
            let p32 = Params::init(base, &mut Rng::seed_from(20));
            for p in [p32.clone(), p32.quantized()] {
                let prompt: Vec<u32> = (0..11).map(|i| (i * 5 % 24) as u32).collect();
                let (head, tail) = prompt.split_at(7);
                let mut sess = InferenceSession::new(p.cfg);
                sess.try_feed_prompt(&p, head).unwrap();
                let before = sess.last_logits().to_vec();
                let runs: [&[u32]; 3] = [&[1, 2, 3, 4, 5, 6], &[7], &[8, 9, 10, 11, 12, 13, 14, 15]];
                let mut rows = vec![0.0; 15 * p.cfg.vocab_size];
                sess.try_feed_branches(&p, &runs, &mut rows).unwrap();
                assert_eq!(sess.position(), head.len());
                assert_eq!(sess.last_logits(), &before[..]);

                let mut fresh = InferenceSession::new(p.cfg);
                let want = fresh.try_feed_prompt(&p, &prompt).unwrap().to_vec();
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(sess.try_feed_prompt(&p, tail).unwrap()), bits(&want), "prompt block");
                let want = fresh.feed(&p, 3).to_vec();
                assert_eq!(bits(sess.feed(&p, 3)), bits(&want), "decode row");
            }
        }
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
    fn int8_arm_needs_an_int8_session_and_int8_weights() {
        // Every other pairing of session precision and weight copy is a
        // benign downgrade to the f32 path: a prompt and one decode step
        // return the plain f32 session's logits, bit for bit.
        use WeightPrecision::{Int8, F32};
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(17));
        let run = |precision: WeightPrecision, params: &Params| {
            let mut sess = InferenceSession::new(cfg.with_precision(precision));
            let mut logits = sess.feed_prompt(params, &[3, 1, 4, 1, 5]);
            logits.extend_from_slice(sess.feed(params, 9));
            logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let want = run(F32, &p);
        let table = [
            (Int8, p.clone(), "plain f32"),
            (Int8, p.clone().with_panels(), "panel"),
            (F32, p.clone().quantized(), "int8"),
        ];
        for (precision, params, copy) in &table {
            assert_eq!(run(*precision, params), want, "{precision:?} session on {copy} params");
        }
    }

    /// Rows of each continuation variant in `op_columns`' score readouts,
    /// one column each: the workloads feed runs of one row to sixteen.
    const READOUT_ROWS: [usize; 4] = [1, 2, 3, 16];

    /// `op_columns`' columns: prefill, decode, then one per readout size.
    const COLUMNS: usize = 2 + READOUT_ROWS.len();

    /// The runs of a readout's continuation variants.
    fn runs(variants: &[Vec<u32>]) -> Vec<&[u32]> {
        variants.iter().map(Vec::as_slice).collect()
    }

    /// `p`'s per-op budget in µs per row, each op the median of `reps`
    /// recorded forwards: the last `PREFILL_ROWS`-row block of a
    /// `prompt`-token prompt, the decode row after it, and a score readout
    /// at that position for each of `READOUT_ROWS` — `branches`
    /// continuation variants of that many rows each, fed as branches of the
    /// prompt's session in one all-rows forward. Every recorded forward's
    /// logits must equal, bit for bit, what `try_feed_prompt`, `feed` and
    /// `try_feed_branches` return on `reference` — the same weights as
    /// `p`, with or without a panel copy — and each readout's rows what
    /// `try_feed_lanes` returns on forks of the prompt.
    fn op_columns(
        reference: &Params,
        p: &Params,
        prompt: usize,
        branches: usize,
        reps: usize,
    ) -> [[f64; OPS.len()]; COLUMNS] {
        let vocab = p.cfg.vocab_size;
        let tokens: Vec<u32> = (0..=prompt).map(|i| (i * 37 % vocab) as u32).collect();
        let (head, block) = tokens[..prompt].split_at(prompt - PREFILL_ROWS);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut base = InferenceSession::new(p.cfg);
        base.try_feed_prompt(reference, head).unwrap();
        let mut oracle = base.clone();
        let block_logits = bits(oracle.try_feed_prompt(reference, block).unwrap());
        let mut prompted = oracle.clone();
        let decode_logits = bits(oracle.feed(reference, tokens[prompt]));
        let readouts = READOUT_ROWS.map(|rows| {
            let variants: Vec<Vec<u32>> = (0..branches)
                .map(|v| (0..rows).map(|i| ((v * 53 + i * 11) % vocab) as u32).collect())
                .collect();
            let mut logits = vec![0.0; branches * rows * vocab];
            prompted.try_feed_branches(reference, &runs(&variants), &mut logits).unwrap();
            let mut forks = vec![prompted.clone(); branches];
            let mut lanes: Vec<Lane<'_>> =
                forks.iter_mut().zip(&variants).map(|(session, tokens)| Lane { session, tokens }).collect();
            let mut forked = vec![0.0; logits.len()];
            InferenceSession::try_feed_lanes(reference, &mut lanes, &mut forked).unwrap();
            assert_eq!(bits(&logits), bits(&forked), "{rows}-row branches differ from forked lanes");
            (variants, bits(&logits))
        });

        let mut sess = InferenceSession::new(p.cfg);
        let mut rows = Vec::new();
        let mut laps = vec![[[0.0; OPS.len()]; COLUMNS]; reps];
        for [block_us, decode_us, readout_us @ ..] in &mut laps {
            sess.assign_from(&base);
            let lane = Runs::Lanes(&mut [Lane { session: &mut sess, tokens: block }]);
            InferenceSession::forward_rows(p, lane, None, Some(block_us));
            assert_eq!(bits(&sess.logits), block_logits, "recorded prefill block differs");
            let lane = Runs::Lanes(&mut [Lane { session: &mut sess, tokens: &tokens[prompt..] }]);
            InferenceSession::forward_rows(p, lane, None, Some(decode_us));
            assert_eq!(bits(&sess.logits), decode_logits, "recorded decode row differs");
            for ((variants, want), us) in readouts.iter().zip(readout_us) {
                rows.resize(want.len(), 0.0);
                let branched = Runs::Branches(&mut prompted, &runs(variants));
                InferenceSession::forward_rows(p, branched, Some(&mut rows), Some(us));
                assert_eq!(bits(&rows), *want, "recorded {}-row readout differs", variants[0].len());
            }
        }
        let per_row: Vec<usize> =
            [PREFILL_ROWS, 1].into_iter().chain(READOUT_ROWS.map(|r| branches * r)).collect();
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
        // stretched to fit the longest readout) and the S7b and S70b tiers:
        // recording laps changes no logit of a prefill block, a decode row
        // or a readout's branches, and neither does the f32 forward's panel
        // copy, whatever kernel level this CPU runs it at; and branches
        // return the rows of forked lanes.
        use crate::Tier;
        let tiny = ModelConfig { max_seq: 48, ..ModelConfig::tiny(64) };
        for cfg in [tiny, ModelConfig::tier(Tier::S7b, 512), ModelConfig::tier(Tier::S70b, 512)] {
            let p = Params::init(cfg, &mut Rng::seed_from(19));
            let (q, panelled) = (p.clone().quantized(), p.clone().with_panels());
            let pairs = [(&p, &p), (&p, &panelled), (&q, &q)];
            for (reference, recorded) in pairs {
                let columns = op_columns(reference, recorded, 24, 3, 1);
                assert!(columns.iter().all(|col| col.iter().sum::<f64>() > 0.0), "no laps recorded");
            }
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
    /// (methods 2/3's length) and readouts of `READOUT_BRANCHES` branches
    /// (the fast preset's eight variants) of 1, 2, 3 and 16 rows each, each op
    /// the median of `REPS` runs, in µs per row and as a share of the row.
    #[test]
    #[ignore]
    fn op_budget() {
        use crate::Tier;
        const REPS: usize = 101;
        const PROMPT: usize = 136;
        const READOUT_BRANCHES: usize = 8;
        for tier in [Tier::S7b, Tier::S70b] {
            let f32_params = Params::init(ModelConfig::tier(tier, 512), &mut Rng::seed_from(19));
            let int8_params = f32_params.clone().quantized();
            // Both precisions' weights as an engine serves them
            // (`Params::frozen`), checked against the plain ones.
            let served = [&f32_params, &int8_params].map(|p| p.clone().frozen());
            for (reference, p) in [&f32_params, &int8_params].into_iter().zip(&served) {
                let columns = op_columns(reference, p, PROMPT, READOUT_BRANCHES, REPS);
                println!(
                    "op_budget {tier:?} {:?} ({:?} kernels{}): us/row (share)   \
                     prefill rows {}..{PROMPT}   decode row at {PROMPT}   \
                     readouts of {READOUT_BRANCHES} branches x {READOUT_ROWS:?} rows at {PROMPT}",
                    p.cfg.precision,
                    astro_tensor::simd(),
                    if p.packed.is_empty() { "" } else { ", panels" },
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
