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
//! The int8 matmul that serves is [`crate::Q8Panels::a_bt`], on weights
//! packed once into `k`-major panels; this module holds what feeds it and
//! what it is tested against:
//!
//! * [`matmul_q8_a_bt`], `c = a · bᵀ` on row-major int8 in plain loops —
//!   the reference whose bits every level's panel tile returns. Integer
//!   adds are associative, so LLVM may vectorize its `i32 += i8·i8`
//!   reduction without a fast-math opt-in;
//! * the quantizers ([`quantize_row_q8`], the fused
//!   [`rmsnorm_quantize_row`] and [`swiglu_quantize_row`], which never
//!   materialise a separate normalized f32 row). On x86-64 they follow the
//!   level [`crate::simd`] detects once at run time: from AVX2 up they take
//!   `amax` and round eight lanes at a time — the same products in the
//!   same order, `amax` skipping NaN lanes as `f32::max` does, the rounder
//!   sending them to 0 as `as i32` does — so every level returns the
//!   portable loops' bits. SwiGLU's `exp` is
//!   [`crate::ops::exp_in_place`]; RMSNorm's mean square (a sequential f32
//!   sum) stays scalar, because it fixes bits.
//!
//! All kernels take slices and never allocate.

use crate::{supported, Simd};

/// Largest representable quantized magnitude (symmetric: `-127..=127`;
/// `-128` is never produced so negation is always exact).
pub const Q8_MAX: f32 = 127.0;

/// Exact integer dot product of two int8 slices, accumulated in `i32`:
/// exact, so independent of accumulation order.
fn dot_q8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
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
pub(crate) fn dequant(acc: i32, a_scale: f32, b_scale: f32) -> f32 {
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
    ((c + ROUND_HALF.copysign(c)) as i32).clamp(-127, 127) as i8
}

/// The largest f32 below one half: [`round_q8`]'s addend.
const ROUND_HALF: f32 = 0.499_999_97;

/// `max |x[i]|`, or `max |x[i] · g[i]|` with `g` (as long as `x`): the
/// quantizer's `amax`. NaN lanes are skipped, as `f32::max` skips them,
/// so a row of NaNs has `amax` 0.
fn amax(level: Simd, x: &[f32], g: Option<&[f32]>) -> f32 {
    assert!(g.is_none_or(|g| g.len() == x.len()), "gain has wrong size");
    match supported(level) {
        // SAFETY: `supported` verified AVX2 at runtime.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx2Vnni | Simd::Avx512 => unsafe { x86::amax(x, g) },
        _ => amax_portable(x, g),
    }
}

/// [`amax`] one lane at a time — the reference the AVX2 one is tested
/// against, and its tail.
fn amax_portable(x: &[f32], g: Option<&[f32]>) -> f32 {
    match g {
        None => x.iter().fold(0.0f32, |m, &v| m.max(v.abs())),
        Some(g) => x.iter().zip(g).fold(0.0f32, |m, (&v, &gv)| m.max((v * gv).abs())),
    }
}

/// `q[i] = round_q8(x[i] · a)`, or with `gb = (g, b)` (`g` as long as `x`)
/// `round_q8(x[i] · a · g[i] · b)`, the products taken left to right.
fn scale_round(level: Simd, q: &mut [i8], x: &[f32], a: f32, gb: Option<(&[f32], f32)>) {
    assert_eq!(q.len(), x.len(), "q has wrong size");
    assert!(gb.is_none_or(|(g, _)| g.len() == x.len()), "gain has wrong size");
    match supported(level) {
        // SAFETY: `supported` verified AVX2 at runtime.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx2Vnni | Simd::Avx512 => unsafe { x86::scale_round(q, x, a, gb) },
        _ => scale_round_portable(q, x, a, gb),
    }
}

/// [`scale_round`] one lane at a time — the reference the AVX2 one is
/// tested against, and its tail.
fn scale_round_portable(q: &mut [i8], x: &[f32], a: f32, gb: Option<(&[f32], f32)>) {
    match gb {
        None => {
            for (qi, &v) in q.iter_mut().zip(x) {
                *qi = round_q8(v * a);
            }
        }
        Some((g, b)) => {
            for ((qi, &v), &gv) in q.iter_mut().zip(x).zip(g) {
                *qi = round_q8(v * a * gv * b);
            }
        }
    }
}

/// Symmetric int8 quantization of one row; returns the scale
/// (`max|x| / 127`). Non-finite or all-zero rows quantize to zeros with
/// scale `0.0`.
pub fn quantize_row_q8(q: &mut [i8], x: &[f32]) -> f32 {
    quantize_row_at(crate::simd(), q, x)
}

/// [`quantize_row_q8`] on the kernels of `level`.
fn quantize_row_at(level: Simd, q: &mut [i8], x: &[f32]) -> f32 {
    let amax = amax(level, x, None);
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
    scale_round(level, q, x, inv, None);
    amax / Q8_MAX
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
/// (`b_scales[j]` per output channel), `c` is `m×n` f32 — each element one
/// exact [`dot_q8`], dequantized once, so a row's result does not depend on
/// which other rows share the call. The portable reference
/// [`crate::Q8Panels::a_bt`] is tested against; the serving path runs the
/// panels.
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
    matmul_q8_a_bt_portable(c, a, a_scales, b, b_scales, k, n);
}

/// [`matmul_q8_a_bt`]'s loops, `m` = `a_scales.len()`: weight row outer,
/// activation row inner.
pub(crate) fn matmul_q8_a_bt_portable(
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
            let acc = dot_q8(&a[i * k..(i + 1) * k], brow);
            c[i * n + j] = dequant(acc, sa, b_scales[j]);
        }
    }
}

/// Fused RMSNorm → int8 quantization of one row; returns the activation
/// scale.
///
/// Computes `y = x / rms(x) ⊙ g` exactly as
/// [`crate::ops::rmsnorm_rows`] would (same mean-square reduction, same
/// `1/sqrt(ms + eps)`), but never materialises the f32 `y` row: the
/// quantization `amax` is taken over `x·g` (`max|x·g| · inv = max|y|`
/// since `inv > 0`), then int8 is written directly. A row whose `y` has
/// no int8 representation — `amax` zero, NaN or infinite, as when
/// `max|x·g|` overflows though the mean square does not — quantizes to
/// zeros with scale `0.0`, as quantizing `y` itself would.
pub fn rmsnorm_quantize_row(q: &mut [i8], x: &[f32], g: &[f32], eps: f32) -> f32 {
    rmsnorm_quantize_at(crate::simd(), q, x, g, eps)
}

/// [`rmsnorm_quantize_row`] on the kernels of `level`.
fn rmsnorm_quantize_at(level: Simd, q: &mut [i8], x: &[f32], g: &[f32], eps: f32) -> f32 {
    let n = x.len();
    assert_eq!(g.len(), n, "gain has wrong size");
    assert_eq!(q.len(), n, "q has wrong size");
    let mut ss = 0.0f32;
    for &xv in x {
        ss += xv * xv;
    }
    let inv = 1.0 / (ss / n as f32 + eps).sqrt();
    let amax = amax(level, x, Some(g)) * inv;
    let qinv = Q8_MAX / amax;
    if !qinv.is_finite() || !amax.is_finite() {
        q.fill(0);
        return 0.0;
    }
    scale_round(level, q, x, inv, Some((g, qinv)));
    amax / Q8_MAX
}

/// Fused SwiGLU → int8 quantization of one row; returns the activation
/// scale.
///
/// Computes `act = gate ⊙ σ(gate) ⊙ up` ([`crate::ops::swiglu`], the f32
/// path's own SiLU gating) into `act` (caller scratch, useful for
/// diagnostics), then quantizes it into `q` as [`quantize_row_q8`] does.
pub fn swiglu_quantize_row(q: &mut [i8], act: &mut [f32], gate: &[f32], up: &[f32]) -> f32 {
    swiglu_quantize_at(crate::simd(), q, act, gate, up)
}

/// [`swiglu_quantize_row`] on the kernels of `level`.
fn swiglu_quantize_at(level: Simd, q: &mut [i8], act: &mut [f32], gate: &[f32], up: &[f32]) -> f32 {
    assert_eq!(q.len(), gate.len(), "q has wrong size");
    crate::ops::swiglu_at(level, act, gate, up);
    quantize_row_at(level, q, act)
}

/// The AVX2 quantize epilogues. Each repeats the portable loops' f32
/// operations lane by lane, so results are bit-identical to them — the
/// dispatch is invisible to the differential suites.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{amax_portable, scale_round_portable, ROUND_HALF};
    use std::arch::x86_64::{
        __m128i, __m256, _mm256_add_ps, _mm256_and_ps, _mm256_castsi256_si128, _mm256_cmp_ps,
        _mm256_cvttps_epi32, _mm256_extracti128_si256, _mm256_loadu_ps, _mm256_max_ps,
        _mm256_min_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm_max_epi8, _mm_packs_epi16, _mm_packs_epi32, _mm_set1_epi8,
        _mm_storel_epi64, _CMP_ORD_Q,
    };

    /// AVX2 [`super::amax`]: eight running maxima, then their maximum and
    /// the `len % 8` tail. `vmaxps` returns its second operand when either
    /// is NaN, so with the running maximum second a NaN lane leaves it
    /// unchanged, as `f32::max` does; the maximum of non-negative non-NaN
    /// values does not depend on the order it is taken in.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn amax(x: &[f32], g: Option<&[f32]>) -> f32 {
        let n = x.len();
        let g = g.map(|g| &g[..n]);
        // All bits but the sign: `vandps` with it is `f32::abs`.
        let abs = _mm256_set1_ps(f32::from_bits(0x7fff_ffff));
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let mut v = _mm256_loadu_ps(x.as_ptr().add(i));
            if let Some(g) = g {
                v = _mm256_mul_ps(v, _mm256_loadu_ps(g.as_ptr().add(i)));
            }
            acc = _mm256_max_ps(_mm256_and_ps(v, abs), acc);
            i += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let tail = amax_portable(&x[i..], g.map(|g| &g[i..]));
        lanes.iter().fold(tail, |m, &l| m.max(l))
    }

    /// [`super::round_q8`] of eight lanes, into the low eight bytes: the
    /// same clamp to ±128, the same add of [`ROUND_HALF`] with the lane's
    /// sign and the same truncation (`vcvttps2dq`), then `vpackssdw` /
    /// `vpacksswb` (exact on `-128..=128` but for 128, which saturates to
    /// 127) and `vpmaxsb` for the clamp at −127. A NaN lane is zeroed
    /// before the add, so it truncates to 0 as `as i32` makes it.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn round8(v: __m256) -> __m128i {
        let c = _mm256_min_ps(_mm256_max_ps(v, _mm256_set1_ps(-128.0)), _mm256_set1_ps(128.0));
        let c = _mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(v, v));
        let half = _mm256_or_ps(_mm256_set1_ps(ROUND_HALF), _mm256_and_ps(c, _mm256_set1_ps(-0.0)));
        let t = _mm256_cvttps_epi32(_mm256_add_ps(c, half));
        let w = _mm_packs_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256(t, 1));
        _mm_max_epi8(_mm_packs_epi16(w, w), _mm_set1_epi8(-127))
    }

    /// AVX2 [`super::scale_round`]: eight lanes a step through
    /// [`round8`], the products in the portable order, then the
    /// `len % 8` tail portably.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale_round(q: &mut [i8], x: &[f32], a: f32, gb: Option<(&[f32], f32)>) {
        let n = x.len();
        let q = &mut q[..n];
        let gb = gb.map(|(g, b)| (&g[..n], b));
        let va = _mm256_set1_ps(a);
        let mut i = 0;
        while i + 8 <= n {
            let mut v = _mm256_mul_ps(_mm256_loadu_ps(x.as_ptr().add(i)), va);
            if let Some((g, b)) = gb {
                v = _mm256_mul_ps(_mm256_mul_ps(v, _mm256_loadu_ps(g.as_ptr().add(i))), _mm256_set1_ps(b));
            }
            _mm_storel_epi64(q.as_mut_ptr().add(i).cast::<__m128i>(), round8(v));
            i += 8;
        }
        scale_round_portable(&mut q[i..], &x[i..], a, gb.map(|(g, b)| (&g[i..], b)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{guarded, host_levels};
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
    fn matmul_q8_a_bt_is_each_rows_exact_dot_dequantized() {
        // Every element is the naive integer dot, summed in i64 here, through
        // `dequant`; and each row's elements are what a call on that row
        // alone returns. Lengths on both sides of 8-, 16- and 32-lane steps.
        for &k in &[1usize, 7, 15, 16, 17, 33, 37, 144, 200] {
            let (m, n) = (5, 9);
            let (mut aq, mut asc) = (vec![0i8; m * k], vec![0.0; m]);
            let (mut bq, mut bsc) = (vec![0i8; n * k], vec![0.0; n]);
            quantize_rows_q8(&mut aq, &mut asc, &random_vec(m * k, k as u64), m, k);
            quantize_rows_q8(&mut bq, &mut bsc, &random_vec(n * k, 1000 + k as u64), n, k);
            let mut c = vec![0.0f32; m * n];
            matmul_q8_a_bt(&mut c, &aq, &asc, &bq, &bsc, m, k, n);
            for (i, (arow, crow)) in aq.chunks_exact(k).zip(c.chunks_exact(n)).enumerate() {
                let mut alone = vec![f32::NAN; n];
                matmul_q8_a_bt(&mut alone, arow, &asc[i..=i], &bq, &bsc, 1, k, n);
                assert_eq!(bits(&alone), bits(crow), "k={k} row {i}");
                for (j, brow) in bq.chunks_exact(k).enumerate() {
                    let naive: i64 =
                        arow.iter().zip(brow).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum();
                    assert_eq!(crow[j], dequant(naive as i32, asc[i], bsc[j]), "k={k} ({i},{j})");
                }
            }
        }
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Lanes a quantizer must survive, mixed into rows at random; the
    /// first six make a mean square NaN or infinite.
    const EDGES: [f32; 16] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        -f32::MAX,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        0.5,
        -126.5,
    ];

    /// A row of `len`: about one lane in three from [`EDGES`] — every
    /// other seed only from the finite small ones, so that a normalised
    /// row still reaches the rounder — the rest random at a magnitude that
    /// varies by row.
    fn edge_row(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let magnitude = [1e-3f32, 1.0, 127.0, 1e20][(seed / 2 % 4) as usize];
        let pool = if seed.is_multiple_of(2) { &EDGES[6..] } else { &EDGES[..] };
        (0..len)
            .map(|_| {
                let pick = lcg_f32(&mut s);
                if pick < -0.33 {
                    pool[((pick + 1.0) * 48.0) as usize % pool.len()]
                } else {
                    lcg_f32(&mut s) * magnitude
                }
            })
            .collect()
    }

    #[test]
    fn vector_epilogues_match_the_portable_ones_on_edge_lanes() {
        let vector: Vec<Simd> = host_levels().into_iter().filter(|&l| l > Simd::Portable).collect();
        let p = Simd::Portable;
        let mut seed = 0;
        for len in 1..=40 {
            for _ in 0..50 {
                seed += 1;
                let (x, g) = (edge_row(len, seed), edge_row(len, seed + 7_000));
                for &level in &vector {
                    let at = format!("{level:?} len {len} seed {seed}");
                    assert_eq!(amax(level, &x, None).to_bits(), amax(p, &x, None).to_bits(), "{at}");
                    let (want, got) = (amax(p, &x, Some(&g)), amax(level, &x, Some(&g)));
                    assert_eq!(got.to_bits(), want.to_bits(), "amax x·g {at}");
                    for (a, b) in [(1.0, 1.0), (127.0 / 3.0, 0.5), (1e30, 1e-30), (f32::INFINITY, 2.0)] {
                        let (mut want, mut got) = (vec![7i8; len], vec![7i8; len]);
                        scale_round(p, &mut want, &x, a, None);
                        scale_round(level, &mut got, &x, a, None);
                        assert_eq!(got, want, "x·{a} {at}");
                        scale_round(p, &mut want, &x, a, Some((&g, b)));
                        scale_round(level, &mut got, &x, a, Some((&g, b)));
                        assert_eq!(got, want, "x·{a}·g·{b} {at}");
                    }
                    let (mut want, mut got) = (vec![7i8; len], vec![7i8; len]);
                    let (sw, sg) = (quantize_row_at(p, &mut want, &x), quantize_row_at(level, &mut got, &x));
                    assert_eq!((sg.to_bits(), &got), (sw.to_bits(), &want), "quantize {at}");
                    let sw = rmsnorm_quantize_at(p, &mut want, &x, &g, 1e-5);
                    let sg = rmsnorm_quantize_at(level, &mut got, &x, &g, 1e-5);
                    assert_eq!((sg.to_bits(), &got), (sw.to_bits(), &want), "rmsnorm {at}");
                }
            }
        }
    }

    #[test]
    fn int8_kernels_write_only_their_output_at_every_level() {
        // Each output between guards, against the same call on exactly
        // sized outputs: the quantizers' `q`, scales and SwiGLU's `act`, at
        // lengths on both sides of the 8-, 16- and 32-lane steps. (The
        // int8 matmul tiles are `Q8Panels`', guarded in `panel.rs`.)
        let levels = host_levels();
        for len in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40] {
            let (x, g, up) = (edge_row(len, 2), edge_row(len, 4), edge_row(len, 6));
            // Two rows, so that the scales have an inside too.
            let (mut q, mut scales) = (vec![7i8; 2 * len], vec![0.0f32; 2]);
            let xx = [x.clone(), g.clone()].concat();
            quantize_rows_q8(&mut q, &mut scales, &xx, 2, len);
            let got_scales = guarded(&[0.0f32; 2], |s| {
                let got_q = guarded(&vec![7i8; 2 * len], |q| quantize_rows_q8(q, s, &xx, 2, len));
                assert_eq!(got_q, q, "quantize_rows_q8 len {len}");
            });
            assert_eq!(bits(&got_scales), bits(&scales), "quantize_rows_q8 len {len}");
            for &level in &levels {
                let at = format!("{level:?} len {len}");
                let mut want = vec![7i8; len];
                let s = quantize_row_at(level, &mut want, &x);
                let got = guarded(&vec![7i8; len], |q| {
                    assert_eq!(quantize_row_at(level, q, &x).to_bits(), s.to_bits(), "{at}");
                });
                assert_eq!(got, want, "quantize {at}");
                let s = rmsnorm_quantize_at(level, &mut want, &x, &g, 1e-5);
                let got = guarded(&vec![7i8; len], |q| {
                    let got = rmsnorm_quantize_at(level, q, &x, &g, 1e-5);
                    assert_eq!(got.to_bits(), s.to_bits(), "{at}");
                });
                assert_eq!(got, want, "rmsnorm_quantize {at}");
                let mut act = vec![f32::NAN; len];
                let s = swiglu_quantize_at(level, &mut want, &mut act, &g, &up);
                let got_act = guarded(&vec![f32::NAN; len], |a| {
                    let got = guarded(&vec![7i8; len], |q| {
                        let got = swiglu_quantize_at(level, q, a, &g, &up);
                        assert_eq!(got.to_bits(), s.to_bits(), "{at}");
                    });
                    assert_eq!(got, want, "swiglu_quantize {at}");
                });
                assert_eq!(bits(&got_act), bits(&act), "swiglu_quantize act {at}");
            }
        }
    }

    #[test]
    fn rmsnorm_quantize_row_with_an_overflowing_gain_product_is_the_zero_row() {
        // `max|x·g|` overflows to inf while the mean square stays finite:
        // the normalised row holds inf, which quantizing it unfused turns
        // into the zero row with scale 0 — not a zero row with an
        // infinite scale, which dequantizes to NaN.
        let (x, g) = ([1e19f32, 0.0], [f32::MAX, 1.0]);
        let (mut y, mut inv) = ([0.0f32; 2], [0.0f32]);
        rmsnorm_rows(&mut y, &mut inv, &x, &g, 1, 2, 1e-5);
        let mut q_ref = [7i8; 2];
        assert_eq!(quantize_row_q8(&mut q_ref, &y), 0.0);
        assert_eq!(q_ref, [0, 0]);
        for level in host_levels() {
            let mut q = [7i8; 2];
            assert_eq!(rmsnorm_quantize_at(level, &mut q, &x, &g, 1e-5), 0.0, "{level:?}");
            assert_eq!(q, [0, 0], "{level:?}");
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
        for &v in &probes {
            assert_eq!(round_q8(v), old(v), "{v:e} ({:#010x})", v.to_bits());
        }
        // The same probes through each level's rounder (`v · 1` is `v`),
        // eight lanes at a time on the vector levels.
        for level in host_levels() {
            let mut q = vec![7i8; probes.len()];
            scale_round(level, &mut q, &probes, 1.0, None);
            for (&got, &v) in q.iter().zip(&probes) {
                assert_eq!(got, old(v), "{level:?} {v:e} ({:#010x})", v.to_bits());
            }
        }
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
    fn fused_swiglu_quantize_matches_unfused_at_every_level() {
        // Gates at random magnitudes, then with edge lanes mixed in:
        // beyond ±88 (the 8-lane `exp` hands those lanes to the scalar
        // one, or zeroes them below −104), ±inf and NaN.
        let edges = [88.5f32, -88.5, 95.0, -103.5, -104.5, 200.0, -200.0, f32::INFINITY, f32::NAN];
        // NaN lanes compare as one: which payload `g · σ(g) · u` carries
        // depends on the compiler's operand order.
        let values = |x: &[f32]| -> Vec<u32> {
            x.iter().map(|v| if v.is_nan() { 0 } else { v.to_bits() }).collect()
        };
        for n in [1usize, 7, 8, 9, 64, 392] {
            for scale in [1.0f32, 30.0, 120.0] {
                let mut gate = random_vec(n, 51 + n as u64);
                gate.iter_mut().for_each(|g| *g *= scale);
                let up = random_vec(n, 52);
                for with_edges in [false, true] {
                    if with_edges {
                        for (i, g) in gate.iter_mut().enumerate().step_by(3) {
                            *g = edges[i % edges.len()];
                        }
                    }
                    let sigmoid = crate::ops::sigmoid_reference;
                    let act_ref: Vec<f32> =
                        gate.iter().zip(&up).map(|(&g, &u)| g * sigmoid(g) * u).collect();
                    let mut q_ref = vec![0i8; n];
                    let s_ref = quantize_row_at(Simd::Portable, &mut q_ref, &act_ref);
                    for level in host_levels() {
                        let at = format!("{level:?} n={n} scale={scale} edges={with_edges}");
                        let (mut act, mut q) = (vec![0.0f32; n], vec![0i8; n]);
                        let s = swiglu_quantize_at(level, &mut q, &mut act, &gate, &up);
                        assert_eq!((s.to_bits(), &q), (s_ref.to_bits(), &q_ref), "{at}");
                        assert_eq!(values(&act), values(&act_ref), "act {at}");
                    }
                }
            }
        }
    }
}

