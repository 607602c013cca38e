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
/// chains in flight at once (`dot_tile`), and a band of `R` activation
/// rows reads each weight row once. Each chain is still exactly [`dot`],
/// so every output element is bit-identical to `out[i][j] + dot(a_i, b_j)`
/// and the result is bitwise-independent of `m` and of the tiling —
/// single-row calls and chunked calls agree exactly.
pub fn matmul_a_bt_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong size");
    assert_eq!(b.len(), n * k, "b has wrong size");
    assert_eq!(out.len(), m * n, "out has wrong size");
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
/// itself (a second caller, `attention::attend_head`).
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
        // m and n on both sides of every tile multiple, k below one quad,
        // k with a scalar tail, and the S7b / S70b layer shapes.
        let mut shapes = Vec::new();
        for m in [1, 2, 3, 4, 5, 7, 8, 9, 16] {
            for n in [1, 2, 3, 7, 8, 9, 15, 16, 17] {
                for k in [1, 2, 3, 4, 5, 7, 8, 13, 64] {
                    shapes.push((m, k, n));
                }
            }
        }
        for (d, ff) in [(64, 176), (144, 392)] {
            for m in [1, 6, 16] {
                shapes.extend([(m, d, d), (m, d, ff), (m, ff, d), (m, d, 517)]);
            }
        }
        for (m, k, n) in shapes {
            let a = arange(m * k, 0.013);
            let b = arange(n * k, 0.017);
            let mut got = vec![0.0; m * n];
            matmul_a_bt(&mut got, &a, &b, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let want = 0.0 + dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(got[i * n + j].to_bits(), want.to_bits(), "{m}x{k}x{n} at ({i}, {j})");
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
