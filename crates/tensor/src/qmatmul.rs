//! Int8 quantized kernels for the serving hot path.
//!
//! The quantization scheme is symmetric int8 with one f32 scale per
//! *output channel* (weight-matrix row) and one scale per activation row:
//! `q = round(x / scale)` with `scale = max|x| / 127`, dequantized as
//! `x ≈ q · scale`. Matmuls accumulate in `i32` — exact for every
//! supported shape (`k ≤ 2^16` keeps `Σ |a·b| ≤ k · 127² < 2^31`) — and
//! dequantize once per output element, so results are independent of
//! loop order and bitwise-reproducible across the single-token and
//! chunked paths.
//!
//! Vectorization (the build targets baseline x86-64, SSE2):
//!
//! * the portable [`dot_q8`] reduction is the canonical `i32 += i8·i8`
//!   pattern; integer adds are associative, so LLVM may vectorize the
//!   reduction without a fast-math opt-in;
//! * on x86-64 AVX2 inner kernels are selected by *runtime* feature
//!   detection. Because every path accumulates exactly in `i32`, they
//!   return bit-identical results: the dispatch never affects
//!   determinism, only speed;
//! * [`matmul_q8_a_bt`] streams each weight row once per block of
//!   activation rows (j-outer, i-inner). Its AVX2 kernel is a register
//!   tile of one activation row against four weight rows: each activation
//!   load is shared by the four, 32 int8 lanes go through one
//!   `vpsignb`/`vpmaddubsw` pair (no widening pass), and the four
//!   horizontal sums are reduced and dequantized together. The tile does
//!   not depend on `m`, so a decode step's single row does a prefill
//!   block's work per row; what more rows per call still buy is the
//!   weight traffic — one read of the matrix per row block instead of one
//!   per row (a one-row call measures 0.7–1.0 of the eight-row rate at
//!   the S70b shapes, weights in L2);
//! * the fused epilogues ([`rmsnorm_quantize_row`],
//!   [`swiglu_quantize_row`]) fold the activation-quantization pass into
//!   the preceding normalization / gating loop so the int8 decode path
//!   never materialises a separate normalized f32 row.
//!
//! All kernels take slices and never allocate.

/// Largest representable quantized magnitude (symmetric: `-127..=127`;
/// `-128` is never produced so negation is always exact).
pub const Q8_MAX: f32 = 127.0;

/// Activation-row block: how many quantized activation rows the blocked
/// [`matmul_q8_a_bt`] keeps hot while streaming weight rows. 16 rows of
/// `k ≤ 512` int8 fit in a fraction of L1.
const ROW_BLOCK: usize = 16;

/// Exact integer dot product of two int8 slices, accumulated in `i32`.
///
/// The result is exact (no rounding), so it is independent of
/// accumulation order — the chunked and single-token paths, and the
/// scalar and AVX2 implementations, agree bitwise by construction.
pub fn dot_q8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if crate::avx2() {
        // SAFETY: AVX2 support was verified at runtime just above.
        return unsafe { x86::dot(a, b) };
    }
    dot_q8_scalar(a, b)
}

/// Portable fallback for [`dot_q8`]; also the reference the SIMD path is
/// tested against.
fn dot_q8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// Dequantize one accumulated dot product. Every kernel in this module
/// funnels through this helper so the float rounding of the two-scale
/// product is identical everywhere.
#[inline]
fn dequant(acc: i32, a_scale: f32, b_scale: f32) -> f32 {
    (acc as f32) * (a_scale * b_scale)
}

/// `v.round().clamp(-127.0, 127.0) as i8` without the call: `f32::round`
/// (ties away from zero) has no instruction on the baseline SSE2 target
/// and goes through libm's `roundf` once per element. Adding the largest
/// f32 below one half, with `v`'s sign, and truncating rounds the same way
/// — a tie `n + 0.5` lands on `n + 1` after the add's own rounding, the
/// value just below it stays under `n + 1` — for every `|v| <= 128`; the
/// clamp brings the rest of the line there first and NaN falls out of the
/// cast as 0. Equal to the expression above on all 2^32 bit patterns.
#[inline]
fn round_q8(v: f32) -> i8 {
    let c = v.clamp(-128.0, 128.0);
    ((c + 0.499_999_97_f32.copysign(c)) as i32).clamp(-127, 127) as i8
}

/// Quantize `x` against a precomputed `amax = max|x|`; returns the scale.
fn quantize_with_amax(q: &mut [i8], x: &[f32], amax: f32) -> f32 {
    debug_assert_eq!(q.len(), x.len());
    let inv = Q8_MAX / amax;
    // amax of 0 (all-zero row) or subnormal makes `inv` overflow to
    // infinity; a NaN amax propagates. An infinite amax (a row holding
    // ±inf) makes `inv` zero, which would yield a q of all zeros with an
    // *infinite* scale — dequantizing that is 0·inf = NaN. All of these
    // rows have no meaningful int8 representation, so collapse them to a
    // well-defined zero row with scale 0.
    if !inv.is_finite() || !amax.is_finite() {
        q.fill(0);
        return 0.0;
    }
    for (qi, &v) in q.iter_mut().zip(x.iter()) {
        *qi = round_q8(v * inv);
    }
    amax / Q8_MAX
}

/// Symmetric int8 quantization of one row; returns the scale
/// (`max|x| / 127`). Non-finite or all-zero rows quantize to zeros with
/// scale `0.0`.
pub fn quantize_row_q8(q: &mut [i8], x: &[f32]) -> f32 {
    let mut amax = 0.0f32;
    for &v in x {
        amax = amax.max(v.abs());
    }
    quantize_with_amax(q, x, amax)
}

/// Quantize `rows` rows of `cols` f32 values, one scale per row.
pub fn quantize_rows_q8(q: &mut [i8], scales: &mut [f32], x: &[f32], rows: usize, cols: usize) {
    assert_eq!(x.len(), rows * cols, "x has wrong size");
    assert_eq!(q.len(), rows * cols, "q has wrong size");
    assert_eq!(scales.len(), rows, "scales has wrong size");
    for r in 0..rows {
        scales[r] = quantize_row_q8(&mut q[r * cols..(r + 1) * cols], &x[r * cols..(r + 1) * cols]);
    }
}

/// Dequantize one row: `y = q · scale`.
pub fn dequantize_row_q8(y: &mut [f32], q: &[i8], scale: f32) {
    debug_assert_eq!(y.len(), q.len());
    for (yv, &qv) in y.iter_mut().zip(q.iter()) {
        *yv = f32::from(qv) * scale;
    }
}

/// `c = a · bᵀ` on int8 with per-row scales: `a` is `m×k` quantized
/// activations (`a_scales[i]` per row), `b` is `n×k` quantized weights
/// (`b_scales[j]` per output channel), `c` is `m×n` f32.
///
/// Loop order is j-outer / i-inner inside a block of activation rows, so
/// each weight row is streamed from memory exactly once per row block.
/// Because the integer accumulation is exact, `c` is bitwise-identical to
/// `m` independent [`matvec_q8`] calls.
///
/// `b` must not contain `-128` — no quantizer here produces it (see
/// [`Q8_MAX`]) — or the AVX2 kernel, which negates weight lanes, is no
/// longer exact.
#[allow(clippy::too_many_arguments)]
pub fn matmul_q8_a_bt(
    c: &mut [f32],
    a: &[i8],
    a_scales: &[f32],
    b: &[i8],
    b_scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "a has wrong size");
    assert_eq!(b.len(), n * k, "b has wrong size");
    assert_eq!(c.len(), m * n, "c has wrong size");
    assert_eq!(a_scales.len(), m, "a_scales has wrong size");
    assert_eq!(b_scales.len(), n, "b_scales has wrong size");
    debug_assert!(!b.iter().fold(false, |hit, &w| hit | (w == i8::MIN)), "weight of -128");
    for i0 in (0..m).step_by(ROW_BLOCK) {
        let i1 = (i0 + ROW_BLOCK).min(m);
        let (cb, ab, sb) = (&mut c[i0 * n..i1 * n], &a[i0 * k..i1 * k], &a_scales[i0..i1]);
        #[cfg(target_arch = "x86_64")]
        if crate::avx2() {
            // SAFETY: AVX2 support was verified at runtime just above; the
            // block's slices hold `i1 - i0` rows of `n`, `k` and one
            // element, and `b` / `b_scales` were asserted against `n`/`k`.
            unsafe { x86::matmul_a_bt(cb, ab, sb, b, b_scales, k, n) };
            continue;
        }
        matmul_q8_a_bt_portable(cb, ab, sb, b, b_scales, k, n);
    }
}

/// One row block of [`matmul_q8_a_bt`], portably — the reference the AVX2
/// kernel is tested against, and the only path off x86-64.
fn matmul_q8_a_bt_portable(
    c: &mut [f32],
    a: &[i8],
    a_scales: &[f32],
    b: &[i8],
    b_scales: &[f32],
    k: usize,
    n: usize,
) {
    for j in 0..n {
        let brow = &b[j * k..(j + 1) * k];
        for (i, &sa) in a_scales.iter().enumerate() {
            let acc = dot_q8_scalar(&a[i * k..(i + 1) * k], brow);
            c[i * n + j] = dequant(acc, sa, b_scales[j]);
        }
    }
}

/// Single-row `y = x · Wᵀ` on int8: `x` is one quantized activation row
/// with scale `x_scale`, `w` is `d_out×d_in` with per-output-channel
/// scales. Exactly [`matmul_q8_a_bt`] with `m = 1`.
pub fn matvec_q8(
    y: &mut [f32],
    x: &[i8],
    x_scale: f32,
    w: &[i8],
    w_scales: &[f32],
    d_in: usize,
    d_out: usize,
) {
    matmul_q8_a_bt(y, x, &[x_scale], w, w_scales, 1, d_in, d_out);
}

/// Fused RMSNorm → int8 quantization of one row; returns the activation
/// scale.
///
/// Computes `y = x / rms(x) ⊙ g` exactly as
/// [`crate::ops::rmsnorm_rows`] would (same mean-square reduction, same
/// `1/sqrt(ms + eps)`), but never materialises the f32 `y` row: the
/// first pass folds the quantization `amax` into the mean-square loop
/// (`max|x·g| · inv = max|y|` since `inv > 0`), the second writes int8
/// directly.
pub fn rmsnorm_quantize_row(q: &mut [i8], x: &[f32], g: &[f32], eps: f32) -> f32 {
    let n = x.len();
    assert_eq!(g.len(), n, "gain has wrong size");
    assert_eq!(q.len(), n, "q has wrong size");
    let mut ss = 0.0f32;
    let mut amax_xg = 0.0f32;
    for (&xv, &gv) in x.iter().zip(g.iter()) {
        ss += xv * xv;
        amax_xg = amax_xg.max((xv * gv).abs());
    }
    let inv = 1.0 / (ss / n as f32 + eps).sqrt();
    let amax = amax_xg * inv;
    let qinv = Q8_MAX / amax;
    if !qinv.is_finite() {
        q.fill(0);
        return 0.0;
    }
    for ((qi, &xv), &gv) in q.iter_mut().zip(x.iter()).zip(g.iter()) {
        *qi = round_q8(xv * inv * gv * qinv);
    }
    amax / Q8_MAX
}

/// Fused SwiGLU → int8 quantization of one row; returns the activation
/// scale.
///
/// Computes `act = gate ⊙ σ(gate) ⊙ up` (SiLU gating, identical to the
/// f32 decode path), tracks `max|act|` in the same pass, writes the f32
/// activations into `act` (caller scratch, useful for diagnostics), and
/// quantizes into `q` in a second pass.
pub fn swiglu_quantize_row(q: &mut [i8], act: &mut [f32], gate: &[f32], up: &[f32]) -> f32 {
    let n = gate.len();
    assert_eq!(up.len(), n, "up has wrong size");
    assert_eq!(act.len(), n, "act has wrong size");
    assert_eq!(q.len(), n, "q has wrong size");
    let mut amax = 0.0f32;
    for ((av, &gv), &uv) in act.iter_mut().zip(gate.iter()).zip(up.iter()) {
        let a = gv * crate::ops::sigmoid(gv) * uv;
        *av = a;
        amax = amax.max(a.abs());
    }
    quantize_with_amax(q, act, amax)
}

/// Runtime-dispatched AVX2 inner kernels.
///
/// Everything here accumulates exactly in `i32`, so results are
/// bit-identical to the portable loops — the dispatch is invisible to
/// the differential suites. `vpmaddwd` adds adjacent `i16·i16` products
/// into `i32` lanes; with operands in `-127..=127` a pair sums to at
/// most `2·127² < 2^15·2`, well inside `i32`, and a row of `k ≤ 2^16`
/// terms stays inside `i32` overall.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_abs_epi8, _mm256_add_epi32, _mm256_castsi256_si128,
        _mm256_cvtepi8_epi16, _mm256_extracti128_si256, _mm256_hadd_epi32, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_set1_epi16, _mm256_setzero_si256,
        _mm256_sign_epi8, _mm256_zextsi128_si256, _mm_add_epi32, _mm_cvtepi32_ps, _mm_cvtsi128_si32,
        _mm_loadl_epi64, _mm_loadu_ps, _mm_loadu_si128, _mm_mul_ps, _mm_set1_ps,
        _mm_shuffle_epi32, _mm_storeu_ps, _mm_storeu_si128,
    };

    /// Horizontal sum of eight `i32` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(acc: __m256i) -> i32 {
        let s4 = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
        let s2 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, 0b1110));
        _mm_cvtsi128_si32(_mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0b01)))
    }

    /// Sign-extend 16 int8 lanes to int16.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load16(p: *const i8) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast::<__m128i>()))
    }

    /// AVX2 [`super::dot_q8`]: 16 lanes per `vpmaddwd`, scalar tail.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            acc = _mm256_add_epi32(
                acc,
                _mm256_madd_epi16(load16(a.as_ptr().add(i)), load16(b.as_ptr().add(i))),
            );
            i += 16;
        }
        let mut s = hsum(acc);
        while i < n {
            s += i32::from(*a.get_unchecked(i)) * i32::from(*b.get_unchecked(i));
            i += 1;
        }
        s
    }

    /// Weight rows per register tile of [`matmul_a_bt`]: four `i32`
    /// accumulators, reduced together by three `vphaddd`.
    const TILE_W: usize = 4;

    /// The next `N` ∈ {32, 16, 8} int8 lanes at `p`, the lanes above them
    /// zero — a zero lane adds nothing to [`mac`], so a `k % 32` tail takes
    /// the same step on a shorter load.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support and that `p` is readable for `N`
    /// bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes<const N: usize>(p: *const i8) -> __m256i {
        match N {
            32 => _mm256_loadu_si256(p.cast::<__m256i>()),
            16 => _mm256_zextsi128_si256(_mm_loadu_si128(p.cast::<__m128i>())),
            _ => _mm256_zextsi128_si256(_mm_loadl_epi64(p.cast::<__m128i>())),
        }
    }

    /// `acc[w] += Σ va·vb[w]` over 32 int8 lanes, into eight `i32` lanes
    /// per weight row. `vpmaddubsw` wants one unsigned operand: it gets
    /// `|va|`, and `vpsignb` moves `va`'s sign onto the weight lanes
    /// (exact while no weight is `-128`), so each product is unchanged.
    /// With both operands in `-127..=127` — `|va|` may be 128 — an adjacent
    /// pair sums to at most `2·128·127 < 2^15`: the `i16` never saturates,
    /// and `vpmaddwd` by ones widens pairs of them to `i32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mac(acc: &mut [__m256i; TILE_W], va: __m256i, vb: [__m256i; TILE_W]) {
        let ones = _mm256_set1_epi16(1);
        let abs = _mm256_abs_epi8(va);
        for (ac, vw) in acc.iter_mut().zip(vb) {
            let pairs = _mm256_maddubs_epi16(abs, _mm256_sign_epi8(vw, va));
            *ac = _mm256_add_epi32(*ac, _mm256_madd_epi16(pairs, ones));
        }
    }

    /// AVX2 `a · bᵀ` with per-row scales for one block of activation rows
    /// (`a_scales.len()` of them): for each tile of [`TILE_W`] weight rows,
    /// every activation row in turn — the tile stays in L1 across the
    /// block — with each activation load shared by the tile's rows
    /// ([`mac`]), a scalar tail for `k % 8`, and the four sums reduced and
    /// dequantized together. The `n % TILE_W` leftover weight rows are
    /// plain [`dot`]s.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support and that `a`, `b` and `c` hold
    /// `a_scales.len()` rows of `k`, `n` rows of `k` and `a_scales.len()`
    /// rows of `n` elements (asserted by the public wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_a_bt(
        c: &mut [f32],
        a: &[i8],
        a_scales: &[f32],
        b: &[i8],
        b_scales: &[f32],
        k: usize,
        n: usize,
    ) {
        let full = n - n % TILE_W;
        for j in (0..full).step_by(TILE_W) {
            let wrows: [*const i8; TILE_W] = std::array::from_fn(|w| b[(j + w) * k..].as_ptr());
            let wscales = _mm_loadu_ps(b_scales[j..j + TILE_W].as_ptr());
            for (i, &sa) in a_scales.iter().enumerate() {
                let arow = a[i * k..(i + 1) * k].as_ptr();
                let mut acc = [_mm256_setzero_si256(); TILE_W];
                let mut t = 0;
                macro_rules! step {
                    ($n:literal) => {
                        mac(&mut acc, lanes::<$n>(arow.add(t)), wrows.map(|w| lanes::<$n>(w.add(t))));
                        t += $n;
                    };
                }
                while t + 32 <= k {
                    step!(32);
                }
                if t + 16 <= k {
                    step!(16);
                }
                if t + 8 <= k {
                    step!(8);
                }
                // [acc0 acc1 acc2 acc3] pairwise, then the two halves.
                let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
                let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
                let s = _mm256_hadd_epi32(s01, s23);
                let (lo, hi) = (_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
                let mut sums = _mm_add_epi32(lo, hi);
                if t < k {
                    let mut tail = [0i32; TILE_W];
                    _mm_storeu_si128(tail.as_mut_ptr().cast::<__m128i>(), sums);
                    for (sum, row) in tail.iter_mut().zip(wrows) {
                        for tt in t..k {
                            *sum += i32::from(*arow.add(tt)) * i32::from(*row.add(tt));
                        }
                    }
                    sums = _mm_loadu_si128(tail.as_ptr().cast::<__m128i>());
                }
                // `super::dequant`, four lanes at a time: the same two f32
                // multiplies per element.
                let out = _mm_mul_ps(_mm_cvtepi32_ps(sums), _mm_mul_ps(_mm_set1_ps(sa), wscales));
                _mm_storeu_ps(c[i * n + j..i * n + j + TILE_W].as_mut_ptr(), out);
            }
        }
        for j in full..n {
            let brow = &b[j * k..(j + 1) * k];
            for (i, &sa) in a_scales.iter().enumerate() {
                c[i * n + j] = super::dequant(dot(&a[i * k..(i + 1) * k], brow), sa, b_scales[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_a_bt;
    use crate::ops::rmsnorm_rows;

    /// Deterministic pseudo-random f32 in roughly [-1, 1).
    fn lcg_f32(state: &mut u64) -> f32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((*state >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
    }

    fn random_vec(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..n).map(|_| lcg_f32(&mut s)).collect()
    }

    #[test]
    fn simd_dispatch_is_bitwise_identical_to_scalar() {
        // Exercise SIMD widths and scalar tails. The dispatched kernels
        // must agree with the portable reference exactly, element by
        // element, on whatever CPU runs the tests.
        for &k in &[1usize, 7, 15, 16, 17, 33, 144, 200] {
            let (m, n) = (5, 9);
            let a_f = random_vec(m * k, k as u64);
            let b_f = random_vec(n * k, 1000 + k as u64);
            let (mut aq, mut asc) = (vec![0i8; m * k], vec![0.0; m]);
            let (mut bq, mut bsc) = (vec![0i8; n * k], vec![0.0; n]);
            quantize_rows_q8(&mut aq, &mut asc, &a_f, m, k);
            quantize_rows_q8(&mut bq, &mut bsc, &b_f, n, k);
            let mut c = vec![0.0f32; m * n];
            matmul_q8_a_bt(&mut c, &aq, &asc, &bq, &bsc, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let acc = dot_q8_scalar(&aq[i * k..(i + 1) * k], &bq[j * k..(j + 1) * k]);
                    assert_eq!(dot_q8(&aq[i * k..(i + 1) * k], &bq[j * k..(j + 1) * k]), acc);
                    assert_eq!(c[i * n + j], dequant(acc, asc[i], bsc[j]), "k={k} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn portable_dispatched_and_matvec_agree_bitwise_at_every_tile_edge() {
        // On an AVX2 host the portable loop is otherwise dead code. Shapes
        // on both sides of the 32-, 16- and 8-lane steps and the scalar
        // tail (`k`), of the four-row weight tile (`n`) and of the
        // activation row block (`m`), plus the S70b `d_model` / `d_ff`.
        for m in [1usize, 2, 3, 4, 5, 9, ROW_BLOCK + 1] {
            for k in [1usize, 7, 8, 15, 16, 24, 33, 144, 392] {
                for n in [1usize, 3, 4, 5, 9, 517] {
                    let (mut aq, mut asc) = (vec![0i8; m * k], vec![0.0; m]);
                    let (mut bq, mut bsc) = (vec![0i8; n * k], vec![0.0; n]);
                    quantize_rows_q8(&mut aq, &mut asc, &random_vec(m * k, (m * k) as u64), m, k);
                    quantize_rows_q8(&mut bq, &mut bsc, &random_vec(n * k, (n + k) as u64), n, k);
                    // No quantizer emits it, but the kernels stay exact for
                    // an activation (not a weight) of -128.
                    aq[m * k - 1] = i8::MIN;
                    let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let mut portable = vec![f32::NAN; m * n];
                    matmul_q8_a_bt_portable(&mut portable, &aq, &asc, &bq, &bsc, k, n);
                    let mut dispatched = vec![f32::NAN; m * n];
                    matmul_q8_a_bt(&mut dispatched, &aq, &asc, &bq, &bsc, m, k, n);
                    assert_eq!(bits(&dispatched), bits(&portable), "dispatched {m}x{k}x{n}");
                    let mut rows = vec![f32::NAN; m * n];
                    for (i, row) in rows.chunks_exact_mut(n).enumerate() {
                        matvec_q8(row, &aq[i * k..(i + 1) * k], asc[i], &bq, &bsc, k, n);
                    }
                    assert_eq!(bits(&rows), bits(&portable), "matvec {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn round_q8_is_round_then_clamp_on_every_edge() {
        let old = |v: f32| v.round().clamp(-Q8_MAX, Q8_MAX) as i8;
        let mut probes = vec![0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        let small_and_large = [f32::MIN_POSITIVE, 1.0e-40, f32::from_bits(1), f32::MAX];
        probes.extend(small_and_large.iter().flat_map(|&v| [v, -v]));
        // Every tie the int8 range can see, and the f32 on either side.
        for n in 0..=128 {
            let tie = n as f32 + 0.5;
            for bits in [tie.to_bits() - 1, tie.to_bits(), tie.to_bits() + 1] {
                probes.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
            }
        }
        // A strided sweep of the whole bit space (~430 k values).
        probes.extend((0..=u32::MAX).step_by(9973).map(f32::from_bits));
        for v in probes {
            assert_eq!(round_q8(v), old(v), "{v:e} ({:#010x})", v.to_bits());
        }
    }

    #[test]
    fn dot_q8_matches_naive() {
        let a: Vec<i8> = (0i32..37).map(|i| ((i * 7) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0i32..37).map(|i| ((i * 13 + 5) % 255 - 127) as i8).collect();
        let naive: i32 = a.iter().zip(b.iter()).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
        assert_eq!(dot_q8(&a, &b), naive);
    }

    #[test]
    fn quantize_round_trip_within_half_scale() {
        let x = random_vec(256, 3);
        let mut q = vec![0i8; 256];
        let scale = quantize_row_q8(&mut q, &x);
        assert!(scale > 0.0);
        let mut y = vec![0.0f32; 256];
        dequantize_row_q8(&mut y, &q, scale);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a - b).abs() <= scale * 0.5 * (1.0 + 1e-4), "{a} vs {b} (scale {scale})");
        }
    }

    #[test]
    fn quantize_zero_and_nonfinite_rows_are_safe() {
        let mut q = vec![7i8; 8];
        assert_eq!(quantize_row_q8(&mut q, &[0.0; 8]), 0.0);
        assert!(q.iter().all(|&v| v == 0));
        // `f32::max` skips NaN lanes, so amax comes from the finite
        // values; the NaN lane itself saturating-casts to 0.
        let mut q2 = vec![7i8; 3];
        let scale = quantize_row_q8(&mut q2, &[f32::NAN, 1.0, -2.0]);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9, "scale {scale}");
        assert_eq!(q2[0], 0, "NaN lane must quantize to zero");
        assert_eq!(q2[2], -127);
        // An all-NaN row has amax 0 and collapses to the zero row.
        let mut q3 = vec![7i8; 2];
        assert_eq!(quantize_row_q8(&mut q3, &[f32::NAN, f32::NAN]), 0.0);
        assert!(q3.iter().all(|&v| v == 0));
    }

    #[test]
    fn matmul_q8_a_bt_matches_dequantized_f32_reference() {
        let (m, k, n) = (3, 48, 20);
        let a_f = random_vec(m * k, 11);
        let b_f = random_vec(n * k, 12);
        let (mut aq, mut asc) = (vec![0i8; m * k], vec![0.0; m]);
        let (mut bq, mut bsc) = (vec![0i8; n * k], vec![0.0; n]);
        quantize_rows_q8(&mut aq, &mut asc, &a_f, m, k);
        quantize_rows_q8(&mut bq, &mut bsc, &b_f, n, k);
        // Exact f32 reference over the *dequantized* operands: the int8
        // kernel must agree with it to f32 rounding, independent of the
        // quantization error itself.
        let mut a_dq = vec![0.0f32; m * k];
        let mut b_dq = vec![0.0f32; n * k];
        for i in 0..m {
            dequantize_row_q8(&mut a_dq[i * k..(i + 1) * k], &aq[i * k..(i + 1) * k], asc[i]);
        }
        for j in 0..n {
            dequantize_row_q8(&mut b_dq[j * k..(j + 1) * k], &bq[j * k..(j + 1) * k], bsc[j]);
        }
        let mut c_ref = vec![0.0f32; m * n];
        matmul_a_bt(&mut c_ref, &a_dq, &b_dq, m, k, n);
        let mut c = vec![0.0f32; m * n];
        matmul_q8_a_bt(&mut c, &aq, &asc, &bq, &bsc, m, k, n);
        for (x, y) in c.iter().zip(c_ref.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn chunked_rows_bitwise_match_single_row_matvec() {
        let (m, k, n) = (7, 33, 29);
        let a_f = random_vec(m * k, 21);
        let b_f = random_vec(n * k, 22);
        let (mut aq, mut asc) = (vec![0i8; m * k], vec![0.0; m]);
        let (mut bq, mut bsc) = (vec![0i8; n * k], vec![0.0; n]);
        quantize_rows_q8(&mut aq, &mut asc, &a_f, m, k);
        quantize_rows_q8(&mut bq, &mut bsc, &b_f, n, k);
        let mut chunk = vec![0.0f32; m * n];
        matmul_q8_a_bt(&mut chunk, &aq, &asc, &bq, &bsc, m, k, n);
        for i in 0..m {
            let mut row = vec![0.0f32; n];
            matvec_q8(&mut row, &aq[i * k..(i + 1) * k], asc[i], &bq, &bsc, k, n);
            assert_eq!(&chunk[i * n..(i + 1) * n], &row[..], "row {i} diverged");
        }
    }

    #[test]
    fn fused_rmsnorm_quantize_matches_unfused() {
        let n = 96;
        let x = random_vec(n, 41);
        let g = random_vec(n, 42);
        // Unfused reference: f32 rmsnorm, then plain quantization.
        let mut y = vec![0.0f32; n];
        let mut inv = vec![0.0f32; 1];
        rmsnorm_rows(&mut y, &mut inv, &x, &g, 1, n, 1e-5);
        let mut q_ref = vec![0i8; n];
        let s_ref = quantize_row_q8(&mut q_ref, &y);
        let mut q = vec![0i8; n];
        let s = rmsnorm_quantize_row(&mut q, &x, &g, 1e-5);
        // The fused amax is max|x·g|·inv vs max|x·inv·g| unfused — equal
        // up to one f32 rounding, so allow a ±1 step on each lane.
        assert!((s - s_ref).abs() <= s_ref * 1e-5, "scale {s} vs {s_ref}");
        for (a, b) in q.iter().zip(q_ref.iter()) {
            assert!((i32::from(*a) - i32::from(*b)).abs() <= 1, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_swiglu_quantize_matches_unfused() {
        let n = 64;
        let gate = random_vec(n, 51);
        let up = random_vec(n, 52);
        let mut act_ref = vec![0.0f32; n];
        for i in 0..n {
            act_ref[i] = gate[i] * crate::ops::sigmoid(gate[i]) * up[i];
        }
        let mut q_ref = vec![0i8; n];
        let s_ref = quantize_row_q8(&mut q_ref, &act_ref);
        let mut act = vec![0.0f32; n];
        let mut q = vec![0i8; n];
        let s = swiglu_quantize_row(&mut q, &mut act, &gate, &up);
        assert_eq!(s, s_ref);
        assert_eq!(q, q_ref);
        assert_eq!(act, act_ref);
    }
}
