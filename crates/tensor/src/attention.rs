//! Causal attention of one query head over its cached positions.
//!
//! The same contract as [`crate::matmul::matmul_a_bt_acc`]: more
//! independent chains in flight, every output element still the same
//! sequence of IEEE operations as the naive per-key loops (the
//! `#[cfg(test)]` reference below), so a caller may not observe the
//! blocking — not in one bit.

use crate::matmul::{dot, dot_tile};
use crate::ops::softmax_row_at;
use crate::{supported, Simd};

/// Keys scored together: the one-row tile of `matmul_a_bt_acc`, eight
/// [`dot`] chains in flight against one query.
const KEY_TILE: usize = 8;

/// Most 4-lane accumulators the value pass keeps in registers across the
/// key loop: 12 of the sixteen baseline SSE registers, the rest hold the
/// weight and the product. A head wider than `4 * VALUE_QUADS` takes one
/// pass over the keys per `VALUE_QUADS` quads.
const VALUE_QUADS: usize = 12;

/// `out = softmax(scale · q·Kᵀ) · V` for one head: `q` and `out` are the
/// head's `head_dim` elements of the query and output rows; position `j`'s
/// key and value are `k[j * stride..][..head_dim]` and likewise in `v`
/// (the caller slices the cache at the head's column offset, `stride` is
/// the cache row length); `scores` lends one f32 per position,
/// `n = scores.len()`, and holds the attention weights on return.
///
/// Bit for bit: `scores[j] = dot(q, k_j) * scale`, then
/// [`crate::ops::softmax_rows`] over them, then `out[d]` is `0.0` plus
/// `scores[j] * v_j[d]` added in ascending `j`.
pub fn attend_head(
    out: &mut [f32],
    scores: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    stride: usize,
    scale: f32,
) {
    attend_head_at(crate::simd(), out, scores, q, k, v, stride, scale);
}

/// [`attend_head`] on the kernels of `level` — every level returns the
/// same bits. Panics if this CPU does not run `level`.
#[allow(clippy::too_many_arguments)]
pub fn attend_head_at(
    level: Simd,
    out: &mut [f32],
    scores: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    stride: usize,
    scale: f32,
) {
    let hd = q.len();
    let n = scores.len();
    assert_eq!(out.len(), hd, "out has wrong size");
    assert!(n > 0 && hd > 0 && stride >= hd, "empty head or overlapping rows");
    let span = (n - 1) * stride + hd;
    assert!(k.len() >= span && v.len() >= span, "cache shorter than {n} positions");
    match supported(level) {
        // SAFETY: `supported` verified AVX2 and FMA at runtime; `out` holds
        // `head_dim` elements and `k` / `v` reach the last position's head
        // (`span`), both asserted above.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx2Vnni => unsafe {
            x86::attend_head(out, scores, q, k, v, stride, scale)
        },
        _ => attend_head_portable(out, scores, q, k, v, stride, scale),
    }
}

/// [`attend_head`] on the baseline target's 4-lane registers — the
/// reference the AVX2 tiles are tested against, and the only path off
/// x86-64. Shapes were checked by the public wrapper.
fn attend_head_portable(
    out: &mut [f32],
    scores: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    stride: usize,
    scale: f32,
) {
    let hd = q.len();
    let key = |j: usize| &k[j * stride..][..hd];
    let mut tiles = scores.chunks_exact_mut(KEY_TILE);
    let mut j = 0;
    for tile in &mut tiles {
        let keys: [&[f32]; KEY_TILE] = std::array::from_fn(|t| key(j + t));
        let [dots] = dot_tile(&[q], &keys);
        for (s, d) in tile.iter_mut().zip(dots) {
            *s = d * scale;
        }
        j += KEY_TILE;
    }
    for s in tiles.into_remainder() {
        *s = dot(q, key(j)) * scale;
        j += 1;
    }
    softmax_row_at(Simd::Portable, scores);

    let mut d = 0;
    while hd - d >= 4 {
        let quads = ((hd - d) / 4).min(VALUE_QUADS);
        let (o, vd) = (&mut out[d..d + 4 * quads], &v[d..]);
        match quads {
            1 => weighted_sum::<1>(o, scores, vd, stride),
            2 => weighted_sum::<2>(o, scores, vd, stride),
            3 => weighted_sum::<3>(o, scores, vd, stride),
            4 => weighted_sum::<4>(o, scores, vd, stride),
            5 => weighted_sum::<5>(o, scores, vd, stride),
            6 => weighted_sum::<6>(o, scores, vd, stride),
            7 => weighted_sum::<7>(o, scores, vd, stride),
            8 => weighted_sum::<8>(o, scores, vd, stride),
            9 => weighted_sum::<9>(o, scores, vd, stride),
            10 => weighted_sum::<10>(o, scores, vd, stride),
            11 => weighted_sum::<11>(o, scores, vd, stride),
            _ => weighted_sum::<VALUE_QUADS>(o, scores, vd, stride),
        }
        d += 4 * quads;
    }
    value_tail(out, scores, v, stride, d);
}

/// The `head_dim % 4` dimensions left after the register passes, from
/// `d` on: `out[t] = Σ_j w[j] · v_j[t]`, one scalar chain each.
fn value_tail(out: &mut [f32], w: &[f32], v: &[f32], stride: usize, d: usize) {
    for (t, o) in out.iter_mut().enumerate().skip(d) {
        let mut s = 0.0f32;
        for (&wj, row) in w.iter().zip(v.chunks(stride)) {
            s += wj * row[t];
        }
        *o = s;
    }
}

/// `out[..4 * Q] = Σ_j w[j] · v_j[..4 * Q]`, the sum started at `0.0` and
/// taken in ascending `j` with the `Q` accumulators held in registers —
/// what `out.fill(0.0)` and one `out[d] += w[j] * v_j[d]` sweep per key
/// compute, without the round trip through `out` per key.
fn weighted_sum<const Q: usize>(out: &mut [f32], w: &[f32], v: &[f32], stride: usize) {
    let mut acc = [[0.0f32; 4]; Q];
    for (&wj, row) in w.iter().zip(v.chunks(stride)) {
        let (row, _) = row[..4 * Q].as_chunks::<4>();
        for q in 0..Q {
            for l in 0..4 {
                acc[q][l] += wj * row[q][l];
            }
        }
    }
    out.copy_from_slice(acc.as_flattened());
}

/// Runtime-dispatched AVX2 [`attend_head`]: the score tile is
/// `matmul::x86`'s two-dots-per-register tile (eight keys in four
/// registers), and the value pass keeps the same per-dimension
/// accumulators as [`weighted_sum`], eight to a register — output
/// dimensions are independent lanes, so the width changes no bit. The
/// tiles are `avx2` only, never `fma` (see `matmul::x86`); the softmax's
/// `exp` is `ops`' 8-lane one.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{softmax_row_at, value_tail, Simd, KEY_TILE, VALUE_QUADS};
    use crate::matmul::{dot, x86::dots8};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_castps256_ps128, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm256_zextps128_ps256, _mm_loadu_ps, _mm_mul_ps,
        _mm_set1_ps, _mm_storeu_ps,
    };

    /// # Safety
    /// Caller must ensure AVX2 and FMA support and the shapes
    /// [`super::attend_head_at`] asserts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn attend_head(
        out: &mut [f32],
        scores: &mut [f32],
        q: &[f32],
        k: &[f32],
        v: &[f32],
        stride: usize,
        scale: f32,
    ) {
        let hd = q.len();
        let n = scores.len();
        let tiled = n - n % KEY_TILE;
        for j in (0..tiled).step_by(KEY_TILE) {
            let (lo, hi) = dots8(q.as_ptr(), k.as_ptr().add(j * stride), stride, hd);
            let s = scores.as_mut_ptr().add(j);
            _mm_storeu_ps(s, _mm_mul_ps(lo, _mm_set1_ps(scale)));
            _mm_storeu_ps(s.add(4), _mm_mul_ps(hi, _mm_set1_ps(scale)));
        }
        for j in tiled..n {
            scores[j] = dot(q, &k[j * stride..][..hd]) * scale;
        }
        softmax_row_at(Simd::Avx2, scores);

        let mut d = 0;
        while hd - d >= 4 {
            let quads = ((hd - d) / 4).min(VALUE_QUADS);
            let (o, vd) = (out[d..].as_mut_ptr(), v[d..].as_ptr());
            match quads {
                1 => weighted_sum::<1, true>(o, scores, vd, stride),
                2 => weighted_sum::<1, false>(o, scores, vd, stride),
                3 => weighted_sum::<2, true>(o, scores, vd, stride),
                4 => weighted_sum::<2, false>(o, scores, vd, stride),
                5 => weighted_sum::<3, true>(o, scores, vd, stride),
                6 => weighted_sum::<3, false>(o, scores, vd, stride),
                7 => weighted_sum::<4, true>(o, scores, vd, stride),
                8 => weighted_sum::<4, false>(o, scores, vd, stride),
                9 => weighted_sum::<5, true>(o, scores, vd, stride),
                10 => weighted_sum::<5, false>(o, scores, vd, stride),
                11 => weighted_sum::<6, true>(o, scores, vd, stride),
                _ => weighted_sum::<6, false>(o, scores, vd, stride),
            }
            d += 4 * quads;
        }
        value_tail(out, scores, v, stride, d);
    }

    /// [`super::weighted_sum`] with `O` 8-lane accumulators; when `HALF`,
    /// the last one covers four dimensions only (its upper lanes load
    /// zeros and are not stored), so `out` gets `8 * O` or `8 * O - 4`
    /// elements.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support, that `out` is writable for that many
    /// elements and each of the `w.len()` rows at `v + j * stride` readable
    /// for as many.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn weighted_sum<const O: usize, const HALF: bool>(
        out: *mut f32,
        w: &[f32],
        v: *const f32,
        stride: usize,
    ) {
        let mut acc = [_mm256_setzero_ps(); O];
        for (j, &wj) in w.iter().enumerate() {
            let row = v.add(j * stride);
            let vw = _mm256_set1_ps(wj);
            for (o, ac) in acc.iter_mut().enumerate() {
                let vals = if HALF && o + 1 == O {
                    _mm256_zextps128_ps256(_mm_loadu_ps(row.add(8 * o)))
                } else {
                    _mm256_loadu_ps(row.add(8 * o))
                };
                *ac = _mm256_add_ps(*ac, _mm256_mul_ps(vw, vals));
            }
        }
        for (o, &ac) in acc.iter().enumerate() {
            if HALF && o + 1 == O {
                _mm_storeu_ps(out.add(8 * o), _mm256_castps256_ps128(ac));
            } else {
                _mm256_storeu_ps(out.add(8 * o), ac);
            }
        }
    }
}

/// The naive loops `attend_head` must equal bit for bit: one [`dot`] per
/// key, the one-element-at-a-time softmax, then one sweep of `out` per key.
#[cfg(test)]
pub(crate) fn attend_head_reference(
    out: &mut [f32],
    scores: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    stride: usize,
    scale: f32,
) {
    let hd = q.len();
    for (j, s) in scores.iter_mut().enumerate() {
        *s = dot(q, &k[j * stride..j * stride + hd]) * scale;
    }
    crate::ops::softmax_row_reference(scores);
    out.fill(0.0);
    for (j, &w) in scores.iter().enumerate() {
        crate::matmul::axpy(w, &v[j * stride..j * stride + hd], out);
    }
}

/// Test operands with both signs, both zeros, a subnormal and magnitudes
/// spread enough that a different summation order — or one fused
/// multiply-add — changes low bits.
#[cfg(test)]
pub(crate) fn edge_values(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let t = (i * 37 + salt * 11) % 23;
            match t {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0e-40,
                _ => (t as f32 - 11.0) * 0.173 * (1.0 + (i % 7) as f32 * 0.31),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores whose distance below the maximum (0, the seventh) crosses
    /// `exp`'s branch points: 88 (the 8-lane main path ends), 103.3 (the
    /// "may underflow" band) and 104 (zero in registers), and training's
    /// −1e30 causal mask.
    const SPREAD: [f32; 12] = [
        -103.2, -103.4, -103.9, -104.1, -150.0, -1.0e30, 0.0, -20.0, -87.9, -88.1, -95.0, -103.0,
    ];

    /// A key set's name, its keys and the query scored against them.
    type KeySet = (&'static str, Vec<f32>, Vec<f32>);

    /// The three key sets of the head at column `off` of an `n × stride`
    /// cache, each with its query: the edge operands; keys whose scores
    /// are [`SPREAD`] (the query picks dimension 0, which holds the score
    /// over `scale`); the edge keys with one NaN score.
    fn key_sets(n: usize, hd: usize, stride: usize, scale: f32) -> [KeySet; 3] {
        let edge = edge_values(n * stride, 1);
        let mut spread = edge.clone();
        let mut nan = edge.clone();
        for (j, row) in spread.chunks_mut(stride).enumerate() {
            for head in row.chunks_exact_mut(hd) {
                head[0] = SPREAD[j % SPREAD.len()] / scale;
            }
        }
        for head in nan[n / 2 * stride..][..stride].chunks_exact_mut(hd) {
            head[hd - 1] = f32::NAN;
        }
        let mut pick = vec![0.0; hd];
        pick[0] = 1.0;
        let q = edge_values(hd, 3);
        [("edge", edge, q.clone()), ("spread", spread, pick), ("nan", nan, q)]
    }

    #[test]
    fn attend_head_is_bitwise_the_naive_loops_at_every_tile_edge() {
        let levels = crate::tests::host_levels();
        let lens = (1..=17).chain([31, 32, 33, 136, 288]);
        for n in lens {
            // Below one quad, scalar tails, quad-but-not-oct multiples (4,
            // 12, 20, 36), the tiers' 16 / 24 / 36 and more than one value
            // pass (52, 100).
            for hd in [2usize, 4, 6, 8, 12, 16, 20, 24, 36, 40, 52, 100] {
                // Four heads per cache row plus padding: stride > head_dim,
                // first and last head offsets.
                let heads = 4;
                let stride = heads * hd + 3;
                let v = edge_values(n * stride, 2);
                let scale = 1.0 / (hd as f32).sqrt();
                for (set, k, q) in key_sets(n, hd, stride, scale) {
                    for head in [0, heads - 1] {
                        let off = head * hd;
                        // The last head of the last row ends inside the
                        // cache row: the kernel may not read past
                        // `head_dim`.
                        let end = (n - 1) * stride + off + hd;
                        let (ks, vs) = (&k[off..end], &v[off..end]);
                        let (mut want, mut ws) = (vec![f32::NAN; hd], vec![f32::NAN; n]);
                        attend_head_reference(&mut want, &mut ws, &q, ks, vs, stride, scale);
                        let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        // Each level by name: on an AVX2 host the portable
                        // tiles are otherwise dead code.
                        for &level in &levels {
                            let (mut got, mut gs) = (vec![f32::NAN; hd], vec![f32::NAN; n]);
                            attend_head_at(level, &mut got, &mut gs, &q, ks, vs, stride, scale);
                            let at = format!("{level:?} {set} n={n} hd={hd} head={head}");
                            assert_eq!(bits(&gs), bits(&ws), "scores {at}");
                            assert_eq!(bits(&got), bits(&want), "out {at}");
                        }
                    }
                }
            }
        }
    }
}
