//! Blocked matrix-multiplication kernels in the three orientations a
//! manual-backward transformer needs.
//!
//! All matrices are row-major slices. Kernels *accumulate* into `out`
//! (`out += a·b`), which lets backward passes add gradient contributions
//! without temporaries; callers that need assignment zero the buffer first
//! (see [`matmul`] which does this for convenience via `matmul_acc` +
//! `fill`).
//!
//! [`matmul_acc`] and [`matmul_at_b_acc`] run `i-k-j`: the innermost loop
//! walks contiguous rows of `b` and `out`, an AXPY the compiler
//! auto-vectorises, and in `matmul_acc` a cache block over `k` keeps the
//! working set of `b` rows resident in L1/L2 for large matrices.
//! [`matmul_a_bt_acc`] — every linear-layer forward, in training and in
//! inference — is a grid of [`dot`]s instead, computed a register tile at
//! a time; its results do not depend on the tiling or on `m`, bit for bit.

/// Cache block size over the shared dimension. 64 f32 rows of a typical
/// `n ≤ 512` matrix fit comfortably in L2.
const KB: usize = 64;

/// `out = a · b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n`.
pub fn matmul(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_acc(out, a, b, m, k, n);
}

/// `out += a · b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n`.
pub fn matmul_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong size");
    assert_eq!(b.len(), k * n, "b has wrong size");
    assert_eq!(out.len(), m * n, "out has wrong size");
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let aik = arow[kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * bv;
                }
            }
        }
    }
}

/// `out = a · bᵀ` where `a` is `m×k`, `b` is `n×k`, `out` is `m×n`.
///
/// This is the natural orientation for `x · Wᵀ` with row-major weight
/// matrices `W[out_features, in_features]` — i.e. every linear-layer
/// forward pass.
pub fn matmul_a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_a_bt_acc(out, a, b, m, k, n);
}

/// Register tile of [`matmul_a_bt_acc`] for full bands of `a` rows:
/// `TILE_R × TILE_C` output elements advance together, eight 4-lane
/// accumulators — half of the sixteen baseline SSE registers, the rest
/// hold the tile's operands. Measured best of 4×2, 2×4, 4×3, 3×4, 6×2
/// and 8×1 at the S70b layer shapes.
const TILE_R: usize = 4;
const TILE_C: usize = 2;
/// Column count of the one-row tile that covers the `m % TILE_R` leftover
/// rows — every row of a single-token (`m = 1`) call. Eight accumulators
/// again; 4, 6, 12 and 16 columns measured no faster.
const ROW_TILE_C: usize = 8;

/// `out += a · bᵀ` (see [`matmul_a_bt`]).
///
/// One [`dot`] is one chain of dependent 4-lane adds, so a loop that
/// finishes one output element before starting the next waits out the
/// add latency at every step. Here a register tile keeps `R × C` of those
/// chains in flight at once (`dot_tile`, or the 8-lane tile of the `x86`
/// module where the CPU has AVX2), and a band of `R` activation rows reads
/// each weight row once. Each chain is still exactly [`dot`], so every
/// output element is bit-identical to `out[i][j] + dot(a_i, b_j)` and the
/// result is bitwise-independent of `m`, of the tiling and of which tile
/// ran — single-row calls and chunked calls agree exactly.
pub fn matmul_a_bt_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong size");
    assert_eq!(b.len(), n * k, "b has wrong size");
    assert_eq!(out.len(), m * n, "out has wrong size");
    #[cfg(target_arch = "x86_64")]
    if crate::simd() >= crate::Simd::Avx2 {
        // SAFETY: AVX2 support was verified at runtime just above, and the
        // three slices were asserted against `m`, `k` and `n`.
        unsafe { x86::a_bt_acc(out, a, b, m, k, n) };
        return;
    }
    a_bt_acc_portable(out, a, b, m, k, n);
}

/// [`matmul_a_bt_acc`] on the baseline target's 4-lane registers — the
/// reference the AVX2 tile is tested against, and the only path off
/// x86-64.
fn a_bt_acc_portable(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let full = m - m % TILE_R;
    for i in (0..full).step_by(TILE_R) {
        let band = i * n..(i + TILE_R) * n;
        a_bt_band::<TILE_R, TILE_C>(&mut out[band], &a[i * k..(i + TILE_R) * k], b, k, n);
    }
    for i in full..m {
        a_bt_band::<1, ROW_TILE_C>(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
    }
}

/// `R` rows of `out += a · bᵀ`, `C` columns at a time; the `n % C`
/// leftover columns are plain [`dot`]s.
fn a_bt_band<const R: usize, const C: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let full = n - n % C;
    for j in (0..full).step_by(C) {
        let brows: [&[f32]; C] = std::array::from_fn(|c| &b[(j + c) * k..(j + c + 1) * k]);
        let tile = dot_tile(&arows, &brows);
        for (r, sums) in tile.iter().enumerate() {
            for (o, s) in out[r * n + j..r * n + j + C].iter_mut().zip(sums) {
                *o += s;
            }
        }
    }
    for j in full..n {
        let brow = &b[j * k..(j + 1) * k];
        for (r, arow) in arows.iter().enumerate() {
            out[r * n + j] += dot(arow, brow);
        }
    }
}

/// `R × C` dot products of equal-length rows, advanced together. Each one
/// runs [`dot`]'s exact sequence of operations — four strided lane sums
/// ([`lane_sums`]), `(s0 + s1) + (s2 + s3)`, then the scalar tail in
/// order — so it returns the same bits.
///
/// Inlined into each caller: one tile over rows as short as an attention
/// head or an S7b layer (16–64 elements) is a few dozen multiply-adds, and
/// a call that passes and returns the tile through memory cost 7–18 % of
/// an S7b f32 decode step's linears when this stopped being inlined by
/// itself (a second caller, `attention`'s one-row path).
#[inline(always)]
pub(crate) fn dot_tile<const R: usize, const C: usize>(
    a: &[&[f32]; R],
    b: &[&[f32]; C],
) -> [[f32; C]; R] {
    let a: [(&[[f32; 4]], &[f32]); R] = std::array::from_fn(|r| a[r].as_chunks());
    let b: [(&[[f32; 4]], &[f32]); C] = std::array::from_fn(|c| b[c].as_chunks());
    let lanes = lane_sums(&a.map(|(quads, _)| quads), &b.map(|(quads, _)| quads));
    let mut sums = [[0.0f32; C]; R];
    for r in 0..R {
        for c in 0..C {
            let [s0, s1, s2, s3] = lanes[r][c];
            let mut s = (s0 + s1) + (s2 + s3);
            for (x, y) in a[r].1.iter().zip(b[c].1) {
                s += x * y;
            }
            sums[r][c] = s;
        }
    }
    sums
}

/// The hot loop: for every `(r, c)`, lane `l` sums `a[r][q][l] * b[c][q][l]`
/// over the quads `q` in order — [`dot`]'s `s0..s3`, as `R × C` independent
/// 4-lane multiply-then-add chains over rows loaded once per step.
///
/// Not inlined on purpose. Inlined next to the `(s0 + s1) + (s2 + s3)`
/// reduction, LLVM's SLP pass vectorises *across* the tile's `(r, c)`
/// entries instead of along the lanes, transposing in registers and
/// spilling (measured 8 GFLOP/s against 28 for this form at the S70b
/// shapes, same bits either way). Returning the lane sums through memory
/// ends the vectoriser's view at one 4-float store per accumulator.
#[inline(never)]
fn lane_sums<const R: usize, const C: usize>(
    a: &[&[[f32; 4]]; R],
    b: &[&[[f32; 4]]; C],
) -> [[[f32; 4]; C]; R] {
    let quads = a[0].len();
    let a: [&[[f32; 4]]; R] = std::array::from_fn(|r| &a[r][..quads]);
    let b: [&[[f32; 4]]; C] = std::array::from_fn(|c| &b[c][..quads]);
    let mut lanes = [[[0.0f32; 4]; C]; R];
    for q in 0..quads {
        for r in 0..R {
            for c in 0..C {
                for l in 0..4 {
                    lanes[r][c][l] += a[r][q][l] * b[c][q][l];
                }
            }
        }
    }
    lanes
}

/// Runtime-dispatched AVX2 tiles of [`dot`] grids, bit-identical to the
/// portable ones.
///
/// [`dot`]'s contract is four strided lane sums, so one dot can never use
/// more than four lanes — but a 256-bit register holds the four lanes of
/// **two different dots**: the `a` quad broadcast to both halves
/// (`vbroadcastf128`) against a `[b_c quad | b_c' quad]` pair, `vmulps`
/// then `vaddps`. Every lane performs the multiply and the add [`dot`]
/// performs, in the same order, and two `vhaddps` are its
/// `(s0 + s1) + (s2 + s3)`.
///
/// Only `avx2` is enabled, never `fma`: a fused multiply-add rounds once
/// where [`dot`] rounds the product and then the sum, so it would change
/// low bits of every output — and with them every golden score.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::dot;
    use std::arch::x86_64::{
        __m128, __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps,
        _mm256_hadd_ps, _mm256_loadu2_m128, _mm256_mul_ps, _mm256_set_m128, _mm256_setzero_ps,
        _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_set_ps, _mm_shuffle_ps,
        _mm_storeu_ps,
    };

    /// The hot loop: `R` rows of `a` (at `a_stride`) against `2 * P` rows of
    /// `b` (at `b_stride`), `quads` 4-element steps. `acc[r][p]` holds the
    /// four lane sums of `dot(a_r, b_p)` in its low half and those of
    /// `dot(a_r, b_{p + P})` in its high half.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support and that every row is readable for
    /// `4 * quads` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn lane_sums<const R: usize, const P: usize>(
        a: *const f32,
        a_stride: usize,
        b: *const f32,
        b_stride: usize,
        quads: usize,
    ) -> [[__m256; P]; R] {
        let mut acc = [[_mm256_setzero_ps(); P]; R];
        for at in (0..4 * quads).step_by(4) {
            let mut vb = [_mm256_setzero_ps(); P];
            for (p, v) in vb.iter_mut().enumerate() {
                *v = _mm256_loadu2_m128(b.add((p + P) * b_stride + at), b.add(p * b_stride + at));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let quad = _mm_loadu_ps(a.add(r * a_stride + at));
                let va = _mm256_set_m128(quad, quad);
                for (ac, &v) in row.iter_mut().zip(&vb) {
                    *ac = _mm256_add_ps(*ac, _mm256_mul_ps(va, v));
                }
            }
        }
        acc
    }

    /// [`dot`]'s `(s0 + s1) + (s2 + s3)` for eight dots at once: element
    /// `i` of the first result reduces the low half of `acc[i]`, element
    /// `i` of the second its high half.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn reduce4(acc: [__m256; 4]) -> (__m128, __m128) {
        let h = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]), _mm256_hadd_ps(acc[2], acc[3]));
        (_mm256_castps256_ps128(h), _mm256_extractf128_ps(h, 1))
    }

    /// [`dot`]'s scalar tail for four dots of one `a` row at once:
    /// `sums[i] += a[t] * b_i[t]` for `t` in `from..k`, in order.
    ///
    /// # Safety
    /// `a` and the four rows at `b`, `b + b_stride`, … are readable for `k`
    /// elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn tail4(
        mut sums: __m128,
        a: *const f32,
        b: *const f32,
        b_stride: usize,
        from: usize,
        k: usize,
    ) -> __m128 {
        for t in from..k {
            let bt = b.add(t);
            let (b0, b1, b2, b3) = (*bt, *bt.add(b_stride), *bt.add(2 * b_stride), *bt.add(3 * b_stride));
            let vb = _mm_set_ps(b3, b2, b1, b0);
            sums = _mm_add_ps(sums, _mm_mul_ps(_mm_set1_ps(*a.add(t)), vb));
        }
        sums
    }

    /// Eight dots of one row: `dot(a, b_i)` for the rows `b_i` at
    /// `b + i * b_stride`, `i` in `0..8`, as two quads — the one-row score
    /// tile of `attention` and the narrow one-row tile of
    /// [`a_bt_acc`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 support and that `a` and the eight rows are
    /// readable for `k` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dots8(
        a: *const f32,
        b: *const f32,
        b_stride: usize,
        k: usize,
    ) -> (__m128, __m128) {
        let [acc] = lane_sums::<1, 4>(a, 0, b, b_stride, k / 4);
        let (lo, hi) = reduce4(acc);
        let from = k - k % 4;
        (tail4(lo, a, b, b_stride, from, k), tail4(hi, a, b.add(4 * b_stride), b_stride, from, k))
    }

    /// `out[..4] += sums`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add4(out: *mut f32, sums: __m128) {
        _mm_storeu_ps(out, _mm_add_ps(_mm_loadu_ps(out), sums));
    }

    /// AVX2 [`super::matmul_a_bt_acc`]: the same band / leftover-row split
    /// as the portable loops, with a 4-row × 4-column tile under the band
    /// and a 1 × 16 tile (then 1 × 8, then plain [`dot`]s) under a single
    /// row — eight 8-lane accumulators either way.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support and that `out`, `a` and `b` hold
    /// `m × n`, `m × k` and `n × k` elements (asserted by the public
    /// wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn a_bt_acc(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let full = m - m % 4;
        for i in (0..full).step_by(4) {
            band4(&mut out[i * n..(i + 4) * n], &a[i * k..(i + 4) * k], b, k, n);
        }
        for i in full..m {
            row1(&mut out[i * n..(i + 1) * n], &a[i * k..(i + 1) * k], b, k, n);
        }
    }

    /// Four rows of `out += a · bᵀ`, four columns at a time.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn band4(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let from = k - k % 4;
        let full = n - n % 4;
        for j in (0..full).step_by(4) {
            let bj = bp.add(j * k);
            // acc[r] = [col j | col j + 2], [col j + 1 | col j + 3].
            let acc = lane_sums::<4, 2>(ap, k, bj, k, k / 4);
            for r in [0, 2] {
                // lo = [r: j, j + 1 | r + 1: j, j + 1], hi the same of
                // columns j + 2, j + 3.
                let (lo, hi) = reduce4([acc[r][0], acc[r][1], acc[r + 1][0], acc[r + 1][1]]);
                let upper = _mm_shuffle_ps(lo, hi, 0b01_00_01_00);
                let lower = _mm_shuffle_ps(lo, hi, 0b11_10_11_10);
                for (r, sums) in [(r, upper), (r + 1, lower)] {
                    add4(op.add(r * n + j), tail4(sums, ap.add(r * k), bj, k, from, k));
                }
            }
        }
        for j in full..n {
            let brow = &b[j * k..(j + 1) * k];
            for r in 0..4 {
                out[r * n + j] += dot(&a[r * k..(r + 1) * k], brow);
            }
        }
    }

    /// One row of `out += a · bᵀ`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row1(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let from = k - k % 4;
        let mut j = 0;
        while j + 16 <= n {
            let bj = bp.add(j * k);
            // acc[p] = [col j + p | col j + p + 8].
            let [acc] = lane_sums::<1, 8>(ap, 0, bj, k, k / 4);
            let (q0, q2) = reduce4([acc[0], acc[1], acc[2], acc[3]]);
            let (q1, q3) = reduce4([acc[4], acc[5], acc[6], acc[7]]);
            for (c, sums) in [q0, q1, q2, q3].into_iter().enumerate() {
                add4(op.add(j + 4 * c), tail4(sums, ap, bj.add(4 * c * k), k, from, k));
            }
            j += 16;
        }
        if j + 8 <= n {
            let (lo, hi) = dots8(ap, bp.add(j * k), k, k);
            add4(op.add(j), lo);
            add4(op.add(j + 4), hi);
            j += 8;
        }
        for (j, o) in out.iter_mut().enumerate().skip(j) {
            *o += dot(a, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `out = aᵀ · b` where `a` is `k×m`, `b` is `k×n`, `out` is `m×n`.
///
/// This is the weight-gradient orientation: `dW = dyᵀ · x`.
pub fn matmul_at_b(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_at_b_acc(out, a, b, m, k, n);
}

/// `out += aᵀ · b` (see [`matmul_at_b`]).
pub fn matmul_at_b_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "a has wrong size");
    assert_eq!(b.len(), k * n, "b has wrong size");
    assert_eq!(out.len(), m * n, "out has wrong size");
    // Loop over the shared dim outermost; inner loop is again an AXPY over
    // contiguous rows of b and out.
    for kk in 0..k {
        let arow = &a[kk * m..(kk + 1) * m];
        let brow = &b[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Dot product of two equal-length slices, unrolled 4-wide so the compiler
/// keeps independent accumulator chains (hides FP latency).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for c in 0..chunks {
        let i = c * 4;
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in (chunks * 4)..n {
        s += a[i] * b[i];
    }
    s
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x.iter()) {
        *yv += alpha * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::edge_values;

    /// Naive reference multiply used to validate the blocked kernels.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn arange(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32 - 11.0) * scale).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_reference_various_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 64, 8), (3, 130, 5), (16, 16, 16)] {
            let a = arange(m * k, 0.1);
            let b = arange(k * n, 0.05);
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul(&mut got, &a, &b, m, k, n);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut out = vec![10.0; 4];
        matmul_acc(&mut out, &a, &b, 2, 2, 2);
        assert_eq!(out, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn a_bt_matches_reference() {
        for &(m, k, n) in &[(2, 3, 4), (5, 65, 3), (7, 8, 7)] {
            let a = arange(m * k, 0.07);
            let bt = arange(n * k, 0.03); // b is n×k, we want a·bᵀ
            // build b = btᵀ as k×n for the reference
            let mut b = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    b[kk * n + j] = bt[j * k + kk];
                }
            }
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul_a_bt(&mut got, &a, &bt, m, k, n);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn a_bt_is_bitwise_dot_at_every_tile_edge() {
        // The portable tile and the dispatched one (the AVX2 tile where the
        // host has it — there the portable loops are otherwise dead code),
        // each against plain `dot`s: m and n on both sides of every tile
        // multiple of either (4-row band; 2-, 4-, 8- and 16-column tiles,
        // odd n), k below one quad, k with a scalar tail, k a quad but not
        // an oct multiple (6, 12, 20), and the S7b / S70b layer shapes.
        let mut shapes = Vec::new();
        for m in [1, 2, 3, 4, 5, 7, 8, 9, 16] {
            for n in [1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 33] {
                for k in [1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 20, 64] {
                    shapes.push((m, k, n));
                }
            }
        }
        for (d, ff) in [(64, 176), (144, 392)] {
            for m in [1, 6, 16] {
                shapes.extend([(m, d, d), (m, d, ff), (m, ff, d), (m, d, 517)]);
            }
        }
        type Kernel = fn(&mut [f32], &[f32], &[f32], usize, usize, usize);
        let kernels: [(&str, Kernel); 2] =
            [("portable", a_bt_acc_portable), ("dispatched", matmul_a_bt_acc)];
        for (m, k, n) in shapes {
            let operands = [
                (arange(m * k, 0.013), arange(n * k, 0.017)),
                (edge_values(m * k, m + k), edge_values(n * k, n)),
            ];
            for (a, b) in operands {
                for (name, kernel) in kernels {
                    // Accumulating into a non-zero `out`: `out + dot`.
                    let seed = arange(m * n, 0.11);
                    let mut got = seed.clone();
                    kernel(&mut got, &a, &b, m, k, n);
                    for i in 0..m {
                        for j in 0..n {
                            let (arow, brow) = (&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                            let want = seed[i * n + j] + dot(arow, brow);
                            assert_eq!(
                                got[i * n + j].to_bits(),
                                want.to_bits(),
                                "{name} {m}x{k}x{n} at ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn at_b_matches_reference() {
        for &(m, k, n) in &[(3, 2, 4), (4, 70, 3), (6, 9, 6)] {
            let at = arange(k * m, 0.09); // a is k×m, we want aᵀ·b
            let b = arange(k * n, 0.02);
            // build aT = aᵀ as m×k for the reference
            let mut a = vec![0.0; m * k];
            for kk in 0..k {
                for i in 0..m {
                    a[i * k + kk] = at[kk * m + i];
                }
            }
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul_at_b(&mut got, &at, &b, m, k, n);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn dot_matches_reference() {
        for len in [0, 1, 3, 4, 5, 8, 13, 100] {
            let a = arange(len, 0.2);
            let b = arange(len, 0.3);
            let want: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - want).abs() < 1e-3, "len {len}");
        }
    }

    #[test]
    fn axpy_known() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_bad_shapes() {
        let mut out = vec![0.0; 4];
        matmul(&mut out, &[1.0; 5], &[1.0; 4], 2, 2, 2);
    }
}
