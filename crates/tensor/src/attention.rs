//! Causal attention of a sequence's new query rows, all heads, over its
//! cached positions.
//!
//! The same contract as [`crate::matmul::matmul_a_bt_acc`]: more
//! independent chains in flight, every output element still the same
//! sequence of IEEE operations as the naive per-(row, head, key) loops
//! (the `#[cfg(test)]` reference below), so a caller may not observe the
//! blocking — not in one bit.

use crate::matmul::{dot, dot_tile};
use crate::ops::softmax_row_at;
use crate::{supported, Simd};

/// Query rows of one head that share every key load on AVX2: the band of
/// `matmul_a_bt_acc`'s 4-row tile.
const BAND: usize = 4;

/// Rows of scores an `m`-row [`attend_rows`] call borrows: a band's when
/// it has a full band, else one, which each row reuses in turn.
pub fn score_rows(m: usize) -> usize {
    if m >= BAND {
        BAND
    } else {
        1
    }
}

/// Keys scored together by one row: the one-row tile of
/// `matmul_a_bt_acc`, eight [`dot`] chains in flight against one query.
const KEY_TILE: usize = 8;

/// Most 4-lane accumulators the one-row value pass keeps in registers
/// across the key loop: 12 of the sixteen baseline SSE registers, the rest
/// hold the weight and the product. A head wider than `4 * VALUE_QUADS`
/// takes one pass over the keys per `VALUE_QUADS` quads.
const VALUE_QUADS: usize = 12;

/// Causal attention of one sequence's `m` new rows at positions
/// `p0..p0 + m`, every head: `out = softmax(q·Kᵀ / √head_dim) · V` per
/// (row, head), row `i` over the positions `0..=p0 + i`.
///
/// `q` and `out` are the `m` query and output rows of `width` elements,
/// `width / head_dim` heads side by side; `k` and `v` are the sequence's
/// cache, position `j`'s row at `j * width`, holding at least `p0 + m`
/// rows — the last `m` of them this call's own. `scores` lends
/// [`score_rows`]`(m) × (p0 + m)` floats of scratch; what it holds on
/// return is unspecified.
///
/// Bit for bit, per (row, head): `s_j = dot(q_h, k_j,h) * scale`, then
/// [`crate::ops::softmax_rows`] over the row's `s_0..=s_{p0+i}`, then
/// `out[d]` is `0.0` plus `s_j * v_j[d]` added in ascending `j` — whatever
/// `m`, `p0` and the dispatch level.
#[allow(clippy::too_many_arguments)]
pub fn attend_rows(
    out: &mut [f32],
    scores: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    width: usize,
    head_dim: usize,
    p0: usize,
) {
    attend_rows_at(crate::simd(), out, scores, q, k, v, width, head_dim, p0);
}

/// [`attend_rows`] on the kernels of `level` — every level returns the
/// same bits. Panics if this CPU does not run `level`.
#[allow(clippy::too_many_arguments)]
pub fn attend_rows_at(
    level: Simd,
    out: &mut [f32],
    scores: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    width: usize,
    head_dim: usize,
    p0: usize,
) {
    assert!(
        head_dim > 0 && width.is_multiple_of(head_dim),
        "{width} is not whole heads of {head_dim}"
    );
    assert!(
        !q.is_empty() && q.len().is_multiple_of(width),
        "q is not whole rows of {width}"
    );
    assert_eq!(out.len(), q.len(), "out has wrong size");
    let m = q.len() / width;
    let n = p0 + m;
    assert!(
        k.len() >= n * width && v.len() >= n * width,
        "cache shorter than {n} positions"
    );
    assert!(
        scores.len() >= score_rows(m) * n,
        "scores shorter than {} rows of {n}",
        score_rows(m)
    );
    let scale = 1.0 / (head_dim as f32).sqrt();
    match supported(level) {
        // SAFETY: `supported` verified AVX2 and FMA at runtime; `out` and
        // `q` are `m` whole rows, `k` and `v` reach position `p0 + m - 1`
        // and `scores` holds `score_rows(m)` rows of `p0 + m`, all asserted
        // above.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx2Vnni => unsafe {
            x86::attend_rows(out, scores, q, k, v, width, head_dim, p0, scale)
        },
        _ => {
            for (i, (out, q)) in out
                .chunks_exact_mut(width)
                .zip(q.chunks_exact(width))
                .enumerate()
            {
                let n = p0 + i + 1;
                let heads = out.chunks_exact_mut(head_dim).zip(q.chunks_exact(head_dim));
                for (h, (out, q)) in (0..width).step_by(head_dim).zip(heads) {
                    let cached = h..(n - 1) * width + h + head_dim;
                    let (k, v) = (&k[cached.clone()], &v[cached]);
                    one_head(out, &mut scores[..n], q, k, v, width, scale);
                }
            }
        }
    }
}

/// One row of one head on the baseline target's 4-lane registers — the
/// reference the AVX2 tiles are tested against, and the only path off
/// x86-64: `q` and `out` are the head's `head_dim` elements, position
/// `j`'s key and value `k[j * stride..][..head_dim]` and likewise in `v`,
/// one score per position in `scores`.
fn one_head(
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

/// Runtime-dispatched AVX2 [`attend_rows`]. Per head, full bands of
/// [`BAND`] rows go through [`band`]: their scores come from the 4 × 4
/// tile of `matmul_a_bt_acc` (`matmul::x86::lane_sums::<4, 2>`, four keys
/// against four queries, each key's head read once for the band), and
/// their values from a 4-row register tile over the keys every row of the
/// band sees. The `m % 4` rows left over — every row of a one-token call
/// — take [`one_head`] one at a time: the two-dots-per-register 1 × 8
/// score tile and the value pass with [`weighted_sum`]'s per-dimension
/// accumulators, eight to a register (output dimensions are independent
/// lanes, so the width changes no bit). The tiles are `avx2` only, never `fma` (see
/// `matmul::x86`); the softmax's `exp` is `ops`' 8-lane one.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{softmax_row_at, value_tail, Simd, BAND, KEY_TILE, VALUE_QUADS};
    use crate::matmul::dot;
    use crate::matmul::x86::{dots8, lane_sums, reduce4, tail4};
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_zextps128_ps256, _mm_loadu_ps,
        _mm_mul_ps, _mm_set1_ps, _mm_shuffle_ps, _mm_storeu_ps,
    };

    /// Most 8-lane accumulators per row the band's value pass keeps
    /// across the key loop: `BAND × BAND_OCTS` of them plus the value
    /// loads and one weight fit the sixteen AVX registers. A wider head
    /// takes one pass over the keys per `BAND_OCTS` octs; three measured
    /// no faster at `head_dim` 24 and 36.
    const BAND_OCTS: usize = 2;

    /// # Safety
    /// Caller must ensure AVX2 and FMA support and the shapes
    /// [`super::attend_rows_at`] asserts.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn attend_rows(
        out: &mut [f32],
        scores: &mut [f32],
        q: &[f32],
        k: &[f32],
        v: &[f32],
        width: usize,
        hd: usize,
        p0: usize,
        scale: f32,
    ) {
        let m = q.len() / width;
        let full = m - m % BAND;
        for h in (0..width).step_by(hd) {
            for i in (0..full).step_by(BAND) {
                let (out, q) = (&mut out[i * width + h..], &q[i * width + h..]);
                band(out, scores, q, &k[h..], &v[h..], width, hd, p0 + i + 1, scale);
            }
            for i in full..m {
                let n = p0 + i + 1;
                let row = i * width + h..i * width + h + hd;
                let cached = h..(n - 1) * width + h + hd;
                let (k, v) = (&k[cached.clone()], &v[cached]);
                one_head(
                    &mut out[row.clone()],
                    &mut scores[..n],
                    &q[row],
                    k,
                    v,
                    width,
                    scale,
                );
            }
        }
    }

    /// One head of the [`BAND`] rows whose first sees `n0` positions and
    /// whose `r`-th sees `n0 + r`: `q` and `out` start at the first row's
    /// head and `k` and `v` at position 0's, rows `width` apart. Score row
    /// `r` lives at `scores[r * nb..]`, `nb = n0 + BAND - 1`; the 4 × 4
    /// tile scores every key below `nb` rounded down to four for all four
    /// rows — an entry past its row's causal bound lands in that row's
    /// unread part and is dropped — and plain [`dot`]s the rest.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support, that `q` and `out` hold the band's
    /// heads, `k` and `v` the `nb` positions' and `scores` `BAND × nb`
    /// floats.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    unsafe fn band(
        out: &mut [f32],
        scores: &mut [f32],
        q: &[f32],
        k: &[f32],
        v: &[f32],
        width: usize,
        hd: usize,
        n0: usize,
        scale: f32,
    ) {
        let nb = n0 + BAND - 1;
        let (qp, kp, sp) = (q.as_ptr(), k.as_ptr(), scores.as_mut_ptr());
        let from = hd - hd % 4;
        let tiled = nb - nb % 4;
        for j in (0..tiled).step_by(4) {
            let kj = kp.add(j * width);
            // acc[r] = [key j | key j + 2], [key j + 1 | key j + 3].
            let acc = lane_sums::<BAND, 2>(qp, width, kj, width, hd / 4);
            for r in (0..BAND).step_by(2) {
                let (lo, hi) = reduce4([acc[r][0], acc[r][1], acc[r + 1][0], acc[r + 1][1]]);
                let upper = _mm_shuffle_ps(lo, hi, 0b01_00_01_00);
                let lower = _mm_shuffle_ps(lo, hi, 0b11_10_11_10);
                for (r, sums) in [(r, upper), (r + 1, lower)] {
                    let sums = tail4(sums, qp.add(r * width), kj, width, from, hd);
                    _mm_storeu_ps(sp.add(r * nb + j), _mm_mul_ps(sums, _mm_set1_ps(scale)));
                }
            }
        }
        for j in tiled..nb {
            let key = &k[j * width..][..hd];
            // The rows that see position `j`: `n0 + r > j`.
            for r in (j + 1).saturating_sub(n0)..BAND {
                scores[r * nb + j] = dot(&q[r * width..][..hd], key) * scale;
            }
        }
        for r in 0..BAND {
            softmax_row_at(Simd::Avx2, &mut scores[r * nb..][..n0 + r]);
        }

        let mut d = 0;
        while hd - d >= 4 {
            let quads = ((hd - d) / 4).min(2 * BAND_OCTS);
            let (o, w, vd) = (out[d..].as_mut_ptr(), scores.as_ptr(), v[d..].as_ptr());
            match quads {
                1 => band_sum::<1, true>(o, width, w, nb, n0, vd),
                2 => band_sum::<1, false>(o, width, w, nb, n0, vd),
                3 => band_sum::<2, true>(o, width, w, nb, n0, vd),
                _ => band_sum::<BAND_OCTS, false>(o, width, w, nb, n0, vd),
            }
            d += 4 * quads;
        }
        for r in 0..BAND {
            let w = &scores[r * nb..][..n0 + r];
            value_tail(&mut out[r * width..][..hd], w, v, width, d);
        }
    }

    /// The band's value pass over `8 * O` dimensions (`8 * O - 4` when
    /// `HALF`: the last accumulator's upper lanes load zeros and are not
    /// stored): `out_r = Σ_j w_r[j] · v_j` for each of the [`BAND`] rows,
    /// started at `0.0` and taken in ascending `j` — the `n0` positions
    /// every row sees through a 4-row tile that loads each value row once,
    /// then row `r`'s own `r` positions after them. Rows of `out`
    /// and `v` are `stride` apart, weight rows `w_stride`.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support, that the four rows at `out` are
    /// writable for that many elements, the rows of `v` at positions
    /// `0..n0 + BAND - 1` readable for as many, and weight row `r` for
    /// `n0 + r` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn band_sum<const O: usize, const HALF: bool>(
        out: *mut f32,
        stride: usize,
        w: *const f32,
        w_stride: usize,
        n0: usize,
        v: *const f32,
    ) {
        let mut acc = [[_mm256_setzero_ps(); O]; BAND];
        for j in 0..n0 {
            let vals = values::<O, HALF>(v.add(j * stride));
            for (r, row) in acc.iter_mut().enumerate() {
                let wr = _mm256_set1_ps(*w.add(r * w_stride + j));
                for (ac, &x) in row.iter_mut().zip(&vals) {
                    *ac = _mm256_add_ps(*ac, _mm256_mul_ps(wr, x));
                }
            }
        }
        for (r, row) in acc.iter_mut().enumerate().skip(1) {
            for j in n0..n0 + r {
                let vals = values::<O, HALF>(v.add(j * stride));
                let wr = _mm256_set1_ps(*w.add(r * w_stride + j));
                for (ac, &x) in row.iter_mut().zip(&vals) {
                    *ac = _mm256_add_ps(*ac, _mm256_mul_ps(wr, x));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            store::<O, HALF>(out.add(r * stride), row);
        }
    }

    /// The `O` value registers of one position's row at `v`.
    ///
    /// # Safety
    /// AVX2, and `v` readable for `8 * O` floats (`8 * O - 4` when `HALF`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn values<const O: usize, const HALF: bool>(v: *const f32) -> [__m256; O] {
        let mut vals = [_mm256_setzero_ps(); O];
        for (o, x) in vals.iter_mut().enumerate() {
            *x = if HALF && o + 1 == O {
                _mm256_zextps128_ps256(_mm_loadu_ps(v.add(8 * o)))
            } else {
                _mm256_loadu_ps(v.add(8 * o))
            };
        }
        vals
    }

    /// `out[..8 * O] = acc` (`8 * O - 4` when `HALF`).
    ///
    /// # Safety
    /// AVX2, and `out` writable for that many floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store<const O: usize, const HALF: bool>(out: *mut f32, acc: &[__m256; O]) {
        for (o, &ac) in acc.iter().enumerate() {
            if HALF && o + 1 == O {
                _mm_storeu_ps(out.add(8 * o), _mm256_castps256_ps128(ac));
            } else {
                _mm256_storeu_ps(out.add(8 * o), ac);
            }
        }
    }

    /// [`super::one_head`] on AVX2: the score tile is `matmul::x86`'s
    /// two-dots-per-register tile (eight keys in four registers), the
    /// value pass [`weighted_sum`].
    ///
    /// Not inlined, and neither is [`band`]: inlined into one caller with
    /// the bands, this one-row path — every decode row's — measured up to
    /// 10 % slower in `op_budget`'s decode column, same bits.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and FMA support, and the shapes of
    /// [`super::one_head`]: `out` and `q` of `head_dim`, `k` and `v`
    /// reaching the last position's head.
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    unsafe fn one_head(
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
    /// the last one covers four dimensions only, so `out` gets `8 * O` or
    /// `8 * O - 4` elements.
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
            let vals = values::<O, HALF>(v.add(j * stride));
            let vw = _mm256_set1_ps(wj);
            for (ac, &x) in acc.iter_mut().zip(&vals) {
                *ac = _mm256_add_ps(*ac, _mm256_mul_ps(vw, x));
            }
        }
        store::<O, HALF>(out, &acc);
    }
}

/// The naive loops [`attend_rows`] must equal bit for bit, one (row, head)
/// at a time: one [`dot`] per key, the one-element-at-a-time softmax, then
/// one sweep of `out` per key.
#[cfg(test)]
pub(crate) fn attend_rows_reference(
    out: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    width: usize,
    hd: usize,
    p0: usize,
) {
    let scale = 1.0 / (hd as f32).sqrt();
    for (i, (out, q)) in out
        .chunks_exact_mut(width)
        .zip(q.chunks_exact(width))
        .enumerate()
    {
        let mut scores = vec![0.0; p0 + i + 1];
        let heads = out.chunks_exact_mut(hd).zip(q.chunks_exact(hd));
        for (h, (out, q)) in (0..width).step_by(hd).zip(heads) {
            let head = |j: usize| j * width + h..j * width + h + hd;
            for (j, s) in scores.iter_mut().enumerate() {
                *s = dot(q, &k[head(j)]) * scale;
            }
            crate::ops::softmax_row_reference(&mut scores);
            out.fill(0.0);
            for (j, &w) in scores.iter().enumerate() {
                crate::matmul::axpy(w, &v[head(j)], out);
            }
        }
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

    /// Every tier's cache length: a call may end at the cache's last row.
    const MAX_SEQ: usize = 288;

    /// A key set's name, its keys and the query rows scored against them.
    type KeySet = (&'static str, Vec<f32>, Vec<f32>);

    /// The three key sets of an `n × width` cache of `hd`-wide heads, each
    /// with `m` query rows: the edge operands; keys whose scores are
    /// [`SPREAD`] (every head of every query picks dimension 0, which
    /// holds the score over `scale`); the edge keys with one NaN score in
    /// every head, at a position every row sees when `n / 2` is cached
    /// before the call and one only the later rows see otherwise.
    fn key_sets(n: usize, m: usize, hd: usize, width: usize) -> [KeySet; 3] {
        let scale = 1.0 / (hd as f32).sqrt();
        let edge = edge_values(n * width, 1);
        let mut spread = edge.clone();
        let mut nan = edge.clone();
        for (j, row) in spread.chunks_mut(width).enumerate() {
            for head in row.chunks_exact_mut(hd) {
                head[0] = SPREAD[j % SPREAD.len()] / scale;
            }
        }
        for head in nan[n / 2 * width..][..width].chunks_exact_mut(hd) {
            head[hd - 1] = f32::NAN;
        }
        let mut pick = vec![0.0; m * width];
        for head in pick.chunks_exact_mut(hd) {
            head[0] = 1.0;
        }
        let q = edge_values(m * width, 3);
        [
            ("edge", edge, q.clone()),
            ("spread", spread, pick),
            ("nan", nan, q),
        ]
    }

    #[test]
    fn attend_rows_is_bitwise_the_naive_loops_at_every_tile_edge() {
        let levels = crate::tests::host_levels();
        let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // Bands of four plus 0–3 leftover rows.
        for m in 1..=17 {
            // An empty cache, one position, both sides of the 8-key tile,
            // op_budget's prompt block and a call ending at the cache's
            // last row.
            for p0 in [0, 1, 7, 8, 120, MAX_SEQ - m] {
                // Below one quad, scalar tails, quad-but-not-oct multiples
                // (4, 12, 20, 36), the tiers' 16 / 24 / 36 and more than
                // one value pass (52, 100).
                for hd in [2usize, 4, 6, 8, 12, 16, 20, 24, 36, 40, 52, 100] {
                    let width = 4 * hd;
                    let n = p0 + m;
                    let v = edge_values(n * width, 2);
                    for (set, k, q) in key_sets(n, m, hd, width) {
                        // The cache ends at the call's last row: the kernel
                        // may not read past position `p0 + m - 1`.
                        let mut want = vec![f32::NAN; m * width];
                        attend_rows_reference(&mut want, &q, &k, &v, width, hd, p0);
                        // Each level by name: on an AVX2 host the portable
                        // loops are otherwise dead code. Scores and output
                        // start as NaN, so reading a score the kernel did
                        // not write, or leaving an output unwritten, fails.
                        for &level in &levels {
                            let mut got = vec![f32::NAN; m * width];
                            let mut scores = vec![f32::NAN; score_rows(m) * n];
                            attend_rows_at(level, &mut got, &mut scores, &q, &k, &v, width, hd, p0);
                            let at = format!("{level:?} {set} m={m} p0={p0} hd={hd}");
                            assert_eq!(bits(&got), bits(&want), "{at}");
                        }
                    }
                }
            }
        }
    }
}
