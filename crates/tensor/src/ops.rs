//! Fused element-wise and normalisation kernels with explicit backward
//! passes.
//!
//! Each forward kernel has a matching `*_backward` that consumes the saved
//! forward activations; gradients *accumulate* into `dx` buffers so a value
//! used by several consumers collects all contributions.
//!
//! Every `exp` below — softmax, log-sum-exp, cross-entropy, SiLU gating —
//! is one [`exp_in_place`] over a row: [`exp`] (glibc's `expf`, replayed
//! bit for bit) on each element, eight lanes at a time on AVX2 + FMA.

use crate::{supported, Simd};

/// `N / ln 2` for [`EXP_T`]'s `N = 32` entries.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2^52`: added to a double of magnitude below `2^51`, it rounds it
/// to an integer `k` (ties to even) and leaves `k` in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/N) ≈ 1 + C2·r + C1·r² + C0·r³` for `|r| ≤ 1/2`.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `T[i] = bits(2^(i/N)) − (i << 47)`, so `T[k % N] + (k << 47)` is the bits
/// of `2^(k/N)` for every `|k| < 150·N`.
#[rustfmt::skip]
const EXP_T: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f, 0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa, 0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715, 0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429, 0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74, 0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db, 0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c, 0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f, 0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];
/// `0x1.62e42ep6 ≈ 88.72`, `ln 2^128`: above it `exp` overflows to `+inf`.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `−0x1.9fe368p6 ≈ −103.97`, `ln 2^−150`: below it `exp` is `+0`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `−0x1.9d1d9ep6 ≈ −103.28`, `ln 2^−149`: from [`EXP_UNDERFLOW`] up to
/// here glibc returns the smallest subnormal, its "may underflow" value.
const EXP_MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// `e^x` in f32, bit for bit glibc's `expf` (glibc 2.27 on,
/// `sysdeps/ieee754/flt-32/e_expf.c`) as its x86-64 ifunc runs it on an FMA
/// CPU — the same fused operations, constants and branches: `x·N/ln 2`
/// rounded to `k` by adding [`SHIFT`], `r` the remainder, then
/// `2^(k/N)` from [`EXP_T`] with `k / N` added to its exponent times the
/// cubic in `r`, all in f64, rounded to f32 once. `mul_add` is one fused
/// instruction where the code is compiled with one (`vfmadd` inside the
/// AVX2 + FMA kernel) and a libm `fma` call otherwise: the same bits
/// either way, on any host. Every level of [`exp_at`] returns these bits.
#[inline]
pub(crate) fn exp(x: f32) -> f32 {
    // The exponent and top three mantissa bits: |x| >= 88, or NaN.
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= 0x42b {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            // +inf, or NaN quieted.
            return x + x;
        }
        if x > EXP_OVERFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UNDERFLOW {
            return 0.0;
        }
        if x < EXP_MAY_UNDERFLOW {
            return f32::from_bits(1);
        }
    }
    let xd = f64::from(x);
    let ks = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = ks.to_bits();
    let kd = ks - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_T[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = EXP_C[0]
        .mul_add(r, EXP_C[1])
        .mul_add(r * r, EXP_C[2].mul_add(r, 1.0));
    (y * s) as f32
}

/// `x[i] = e^x[i]` for every element, each exactly [`exp`].
pub fn exp_in_place(x: &mut [f32]) {
    exp_at(crate::simd(), x);
}

/// [`exp_in_place`] on the kernels of `level`: [`exp`] one element at a
/// time, or on AVX2 + FMA eight (see `x86::exp8`). Every level returns
/// the same bits. Panics if this CPU does not run `level`.
pub fn exp_at(level: Simd, x: &mut [f32]) {
    match supported(level) {
        // SAFETY: `supported` verified AVX2 and FMA at runtime.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx2Vnni => unsafe { x86::exp_in_place(x) },
        _ => x.iter_mut().for_each(|v| *v = exp(*v)),
    }
}

/// `max x[i]` on the kernels of `level`, NaN skipped as [`f32::max`]
/// skips it; `−inf` for an empty or all-NaN slice. A zero maximum may come
/// out either sign, which none of the callers below can tell: `v − ±0` is
/// `v` but for `v = −0`, and `e^±0` is 1.
fn max_at(level: Simd, x: &[f32]) -> f32 {
    match supported(level) {
        // SAFETY: `supported` verified AVX2 at runtime.
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx2Vnni => unsafe { x86::max(x) },
        _ => x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)),
    }
}

/// Numerically stable softmax over each row of an `m×n` matrix, in place.
pub fn softmax_rows(x: &mut [f32], m: usize, n: usize) {
    assert_eq!(x.len(), m * n);
    let level = crate::simd();
    for row in x.chunks_exact_mut(n) {
        softmax_row_at(level, row);
    }
}

/// One row of [`softmax_rows`] on the kernels of `level`: the maximum,
/// `x − max`, [`exp_at`], the sum as one chain in ascending order, then
/// each element times `1 / sum`.
pub(crate) fn softmax_row_at(level: Simd, row: &mut [f32]) {
    let max = max_at(level, row);
    for v in row.iter_mut() {
        *v -= max;
    }
    exp_at(level, row);
    let mut sum = 0.0;
    for &v in row.iter() {
        sum += v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// Backward of row-softmax: given the forward output `y` and upstream
/// gradient `dy`, accumulate `dx += y ⊙ (dy − (dy·y))` row-wise.
pub fn softmax_rows_backward(dx: &mut [f32], y: &[f32], dy: &[f32], m: usize, n: usize) {
    assert_eq!(dx.len(), m * n);
    assert_eq!(y.len(), m * n);
    assert_eq!(dy.len(), m * n);
    for i in 0..m {
        let yr = &y[i * n..(i + 1) * n];
        let dyr = &dy[i * n..(i + 1) * n];
        let dot: f32 = yr.iter().zip(dyr.iter()).map(|(a, b)| a * b).sum();
        let dxr = &mut dx[i * n..(i + 1) * n];
        for ((d, &yv), &dyv) in dxr.iter_mut().zip(yr.iter()).zip(dyr.iter()) {
            *d += yv * (dyv - dot);
        }
    }
}

/// Log-sum-exp of a slice (stable).
pub fn log_sum_exp(x: &[f32]) -> f32 {
    log_sum_exp_at(crate::simd(), x)
}

/// [`log_sum_exp`] on the kernels of `level`: the maximum, then
/// `e^(x − max)` a stack chunk at a time, summed as one chain in
/// ascending order.
fn log_sum_exp_at(level: Simd, x: &[f32]) -> f32 {
    let max = max_at(level, x);
    if max.is_infinite() {
        return max;
    }
    let mut e = [0.0f32; 64];
    let mut s = 0.0f32;
    for chunk in x.chunks(e.len()) {
        let e = &mut e[..chunk.len()];
        for (ev, &v) in e.iter_mut().zip(chunk) {
            *ev = v - max;
        }
        exp_at(level, e);
        for &ev in e.iter() {
            s += ev;
        }
    }
    max + s.ln()
}

/// Mean cross-entropy over rows of `logits` (`m×n`) against integer
/// `targets`, skipping positions where `mask` is false.
///
/// Also writes the *gradient of the mean loss w.r.t. the logits* into
/// `dlogits` (overwritten, not accumulated): `softmax(logits) − onehot`,
/// scaled by `1/active`, zero at masked positions. Returns
/// `(mean_loss, active_count)`; when no position is active the loss is 0.
pub fn cross_entropy_rows(
    dlogits: &mut [f32],
    logits: &[f32],
    targets: &[usize],
    mask: &[bool],
    m: usize,
    n: usize,
) -> (f32, usize) {
    assert_eq!(logits.len(), m * n);
    assert_eq!(dlogits.len(), m * n);
    assert_eq!(targets.len(), m);
    assert_eq!(mask.len(), m);
    let active = mask.iter().filter(|&&b| b).count();
    dlogits.fill(0.0);
    if active == 0 {
        return (0.0, 0);
    }
    let inv = 1.0 / active as f32;
    let mut loss = 0.0f64;
    for i in 0..m {
        if !mask[i] {
            continue;
        }
        let row = &logits[i * n..(i + 1) * n];
        let t = targets[i];
        debug_assert!(t < n, "target {t} out of vocab {n}");
        let lse = log_sum_exp(row);
        loss += (lse - row[t]) as f64;
        let drow = &mut dlogits[i * n..(i + 1) * n];
        for (d, &l) in drow.iter_mut().zip(row) {
            *d = l - lse;
        }
        // `drow` now holds the softmax `p`.
        exp_in_place(drow);
        for (j, d) in drow.iter_mut().enumerate() {
            *d = (*d - if j == t { 1.0 } else { 0.0 }) * inv;
        }
    }
    ((loss / active as f64) as f32, active)
}

/// RMSNorm forward: `y = x / rms(x) * g` per row, where
/// `rms(x) = sqrt(mean(x²) + eps)`. Returns nothing; per-row inverse RMS
/// values are written to `inv_rms` (length `m`) for the backward pass.
pub fn rmsnorm_rows(
    y: &mut [f32],
    inv_rms: &mut [f32],
    x: &[f32],
    g: &[f32],
    m: usize,
    n: usize,
    eps: f32,
) {
    assert_eq!(x.len(), m * n);
    assert_eq!(y.len(), m * n);
    assert_eq!(g.len(), n);
    assert_eq!(inv_rms.len(), m);
    for i in 0..m {
        let xr = &x[i * n..(i + 1) * n];
        let ms: f32 = xr.iter().map(|v| v * v).sum::<f32>() / n as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        inv_rms[i] = inv;
        let yr = &mut y[i * n..(i + 1) * n];
        for ((yv, &xv), &gv) in yr.iter_mut().zip(xr.iter()).zip(g.iter()) {
            *yv = xv * inv * gv;
        }
    }
}

/// RMSNorm backward. Accumulates into `dx` and `dg`.
///
/// With `x̂ = x·inv`, `y = x̂ ⊙ g`:
/// `dg += Σ_rows dy ⊙ x̂`,
/// `dx += inv · (dy⊙g − x̂ · mean(dy⊙g⊙x̂))`.
#[allow(clippy::too_many_arguments)]
pub fn rmsnorm_rows_backward(
    dx: &mut [f32],
    dg: &mut [f32],
    dy: &[f32],
    x: &[f32],
    g: &[f32],
    inv_rms: &[f32],
    m: usize,
    n: usize,
) {
    assert_eq!(dx.len(), m * n);
    assert_eq!(dy.len(), m * n);
    assert_eq!(x.len(), m * n);
    assert_eq!(dg.len(), n);
    assert_eq!(g.len(), n);
    assert_eq!(inv_rms.len(), m);
    for i in 0..m {
        let inv = inv_rms[i];
        let xr = &x[i * n..(i + 1) * n];
        let dyr = &dy[i * n..(i + 1) * n];
        // mean over the row of dy*g*x̂
        let mut mdot = 0.0f32;
        for j in 0..n {
            mdot += dyr[j] * g[j] * xr[j] * inv;
        }
        mdot /= n as f32;
        let dxr = &mut dx[i * n..(i + 1) * n];
        for j in 0..n {
            let xhat = xr[j] * inv;
            dg[j] += dyr[j] * xhat;
            dxr[j] += inv * (dyr[j] * g[j] - xhat * mdot);
        }
    }
}

/// SiLU (a.k.a. swish) activation: `y = x · σ(x)`, element-wise.
pub fn silu(y: &mut [f32], x: &[f32]) {
    sigmoid_at(crate::simd(), y, x);
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv *= xv;
    }
}

/// Backward of SiLU: `dx += dy · (σ(x) + x·σ(x)·(1−σ(x)))`, `σ` a stack
/// chunk at a time.
pub fn silu_backward(dx: &mut [f32], dy: &[f32], x: &[f32]) {
    assert_eq!(dx.len(), x.len());
    assert_eq!(dy.len(), x.len());
    let level = crate::simd();
    let mut s = [0.0f32; 64];
    for ((dx, dy), x) in dx
        .chunks_mut(s.len())
        .zip(dy.chunks(s.len()))
        .zip(x.chunks(s.len()))
    {
        let s = &mut s[..x.len()];
        sigmoid_at(level, s, x);
        for (((d, &dyv), &xv), &sv) in dx.iter_mut().zip(dy).zip(x).zip(s.iter()) {
            *d += dyv * (sv + xv * sv * (1.0 - sv));
        }
    }
}

/// SwiGLU gating: `act = gate ⊙ σ(gate) ⊙ up`, the products left to
/// right — the FFN activation of inference, f32 and int8 alike.
pub fn swiglu(act: &mut [f32], gate: &[f32], up: &[f32]) {
    swiglu_at(crate::simd(), act, gate, up);
}

/// [`swiglu`] on the kernels of `level`.
pub(crate) fn swiglu_at(level: Simd, act: &mut [f32], gate: &[f32], up: &[f32]) {
    assert_eq!(up.len(), gate.len(), "up has wrong size");
    sigmoid_at(level, act, gate);
    for ((av, &gv), &uv) in act.iter_mut().zip(gate).zip(up) {
        *av = gv * *av * uv;
    }
}

/// The one `exp` of SiLU gating, forward and backward, training and
/// inference: `s[i] = σ(x[i]) = 1 / (1 + e^−x[i])`, the `exp` one
/// [`exp_at`] over the row.
fn sigmoid_at(level: Simd, s: &mut [f32], x: &[f32]) {
    assert_eq!(s.len(), x.len(), "output has wrong size");
    for (sv, &xv) in s.iter_mut().zip(x) {
        *sv = -xv;
    }
    exp_at(level, s);
    for sv in s.iter_mut() {
        *sv = 1.0 / (1.0 + *sv);
    }
}

/// Element-wise product accumulate: `out += a ⊙ b`.
pub fn mul_acc(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o += x * y;
    }
}

/// Element-wise product: `out = a ⊙ b`.
pub fn mul(out: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
}

/// In-place addition: `y += x`.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x.iter()) {
        *yv += xv;
    }
}

/// In-place scale: `x *= alpha`.
pub fn scale(x: &mut [f32], alpha: f32) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// L2 norm of a slice, accumulated in f64 for stability.
pub fn l2_norm(x: &[f32]) -> f32 {
    (x.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>()).sqrt() as f32
}

/// Runtime-dispatched AVX2 kernels of this module, bit-identical to the
/// portable ones: [`exp`] four doubles to a register, and the maximum.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{exp, EXP_C, EXP_T, EXP_UNDERFLOW, INV_LN2_N, SHIFT};
    use std::arch::x86_64::{
        __m128, _mm256_add_epi64, _mm256_and_ps, _mm256_and_si256, _mm256_andnot_ps,
        _mm256_castpd_si256, _mm256_castps256_ps128, _mm256_castsi256_pd, _mm256_cmp_ps,
        _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_extractf128_ps, _mm256_fmadd_pd, _mm256_fmsub_pd,
        _mm256_i64gather_epi64, _mm256_loadu_ps, _mm256_max_ps, _mm256_movemask_ps, _mm256_mul_pd,
        _mm256_or_ps, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_set1_ps, _mm256_set_m128,
        _mm256_slli_epi64, _mm256_storeu_ps, _mm256_sub_pd, _CMP_LT_OQ,
    };

    /// AVX2 `max_at`: eight running maxima, then their maximum and the
    /// `len % 8` tail. `vmaxps` returns its second operand when either is
    /// NaN, so with the running maximum second a NaN lane leaves it
    /// unchanged, as `f32::max` does.
    ///
    /// # Safety
    /// Caller must ensure AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn max(x: &[f32]) -> f32 {
        let (octs, tail) = x.as_chunks::<8>();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        for oct in octs {
            acc = _mm256_max_ps(_mm256_loadu_ps(oct.as_ptr()), acc);
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes
            .iter()
            .chain(tail)
            .fold(f32::NEG_INFINITY, |m, &v| m.max(v))
    }

    /// AVX2 + FMA [`super::exp_in_place`]: [`exp8`] over each eight
    /// elements, and over the `len % 8` tail padded to eight on the stack.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_in_place(x: &mut [f32]) {
        let (octs, tail) = x.as_chunks_mut::<8>();
        for oct in octs {
            exp8(oct);
        }
        if !tail.is_empty() {
            let mut oct = [0.0f32; 8];
            oct[..tail.len()].copy_from_slice(tail);
            exp8(&mut oct);
            tail.copy_from_slice(&oct[..tail.len()]);
        }
    }

    /// [`exp`] of eight lanes in place. A lane with `|x| < 88` takes
    /// glibc's main path, as two halves of four doubles ([`exp4`]); a lane
    /// below [`EXP_UNDERFLOW`] (`−inf` included) is `+0`, as its branch
    /// returns. Any other lane — overflow, the "may underflow" band,
    /// `88 ≤ |x|` on the main path, NaN — is rare and goes through [`exp`]
    /// itself.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp8(v: &mut [f32; 8]) {
        let xs = *v;
        // SAFETY: `xs` holds eight floats.
        let x = unsafe { _mm256_loadu_ps(xs.as_ptr()) };
        let y = _mm256_set_m128(
            exp4(_mm256_extractf128_ps::<1>(x)),
            exp4(_mm256_castps256_ps128(x)),
        );
        let abs = _mm256_and_ps(x, _mm256_set1_ps(f32::from_bits(0x7fff_ffff)));
        let main = _mm256_cmp_ps::<_CMP_LT_OQ>(abs, _mm256_set1_ps(88.0));
        let zero = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_UNDERFLOW));
        // SAFETY: `v` holds eight floats.
        unsafe { _mm256_storeu_ps(v.as_mut_ptr(), _mm256_andnot_ps(zero, y)) };
        let mut rest = !_mm256_movemask_ps(_mm256_or_ps(main, zero)) & 0xff;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            v[lane] = exp(xs[lane]);
            rest &= rest - 1;
        }
    }

    /// [`exp`]'s main path on four lanes, operation for operation:
    /// `vcvtps2pd`, the two fused multiply-adds that give `k` and `r`, a
    /// `vpgatherqq` of [`EXP_T`], the cubic's three, one multiply and
    /// `vcvtpd2ps`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp4(x: __m128) -> __m128 {
        let xd = _mm256_cvtps_pd(x);
        let (inv_ln2_n, shift) = (_mm256_set1_pd(INV_LN2_N), _mm256_set1_pd(SHIFT));
        let ks = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let kd = _mm256_sub_pd(ks, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        let ki = _mm256_castpd_si256(ks);
        let at = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is masked to `0..32`, within `EXP_T`.
        let t = unsafe { _mm256_i64gather_epi64::<8>(EXP_T.as_ptr().cast(), at) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[0]), r, _mm256_set1_pd(EXP_C[1]));
        let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[2]), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }
}

/// The one-element-at-a-time softmax row every level must equal bit for
/// bit: the loop `softmax_row_at` replaced, its libm `exp` call [`exp`].
#[cfg(test)]
pub(crate) fn softmax_row_reference(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = exp(*v - max);
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// The scalar logistic sigmoid SiLU gating used to call per element.
#[cfg(test)]
pub(crate) fn sigmoid_reference(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::host_levels;

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Inputs where `exp`'s branches meet or its lanes leave the 8-lane
    /// main path, with their neighbouring floats.
    fn exp_edges() -> Vec<f32> {
        let next = |x: f32, by: i32| f32::from_bits(x.to_bits().wrapping_add_signed(by));
        let mut edges = vec![0.0, -0.0, 1.0e-40, -1.0e-40, 1.0, -1.0, 0.5, -1.0e30];
        edges.extend([f32::MIN_POSITIVE, f32::MAX, f32::MIN]);
        edges.extend([f32::from_bits(1), -f32::from_bits(1)]);
        let branches = [88.0, -88.0, EXP_OVERFLOW, EXP_MAY_UNDERFLOW, EXP_UNDERFLOW, -104.0];
        for x in branches {
            edges.extend([next(x, -1), x, next(x, 1)]);
        }
        edges.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
        // Quiet and signalling NaN payloads, both signs.
        let payloads = [0x7fc0_0001u32, 0x7f80_0001, 0x7fbf_ffff, 0xffc0_1234, 0xff80_0002];
        edges.extend(payloads.map(f32::from_bits));
        edges.extend(HARDEST_TO_ROUND.map(f32::from_bits));
        edges
    }

    /// The 48 inputs with `|x|` in `[1e-3, 88)` whose f64 result before
    /// the final rounding lies nearest an f32 midpoint (the first exactly
    /// on one) — where one operation rounded differently, a multiply and
    /// an add in place of one fused step, moves the result's last bit.
    /// Found by a search over all f32; a sweep of the bit space alone
    /// meets such an input about once in 10^8.
    #[rustfmt::skip]
    const HARDEST_TO_ROUND: [u32; 48] = [
        0x3e73_ade2, 0xbfde_3004, 0xbbe8_61b2, 0x3d89_32e8, 0x400d_98c7, 0x3b37_991a,
        0x3b0b_4517, 0x3fbe_11a6, 0x4014_3eb5, 0x4202_422f, 0xc0d7_626b, 0x40c1_2c37,
        0x4197_276c, 0xba92_1bd7, 0xbeae_4609, 0xc1d2_107a, 0xbb37_8639, 0xbe14_c82c,
        0xc068_da36, 0xbf0f_a174, 0x3b50_125a, 0x3d10_3181, 0x40a6_3bf9, 0xbc70_a558,
        0x3b8f_4138, 0xbac7_5bcb, 0xbc3f_2901, 0xbd3e_69a5, 0xc27c_65d9, 0xbb57_a63b,
        0xbeb7_bdad, 0xc263_3f4c, 0x3df0_cb95, 0xc23d_d581, 0xbab8_080f, 0xc080_9842,
        0x3ee0_8eed, 0xbbd8_ac3c, 0xbece_f5ae, 0x3d0f_39ba, 0xbf2c_2441, 0x3ba3_afaa,
        0x3d38_df42, 0x3c76_fcc3, 0xc1f3_af50, 0x3bf4_a127, 0x4040_89d7, 0xc09f_df32,
    ];

    #[test]
    fn exp_is_the_portable_twin_at_every_level_bit_for_bit() {
        // The twin itself at values any libm agrees on.
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(1.0).to_bits(), std::f32::consts::E.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(-103.5).to_bits(), 1, "the smallest subnormal");
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(89.0), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        // A strided sweep of all 2^32 bit patterns (~65 k values) and the
        // edges, through each level by name, at two lane alignments.
        let mut probes: Vec<f32> = (0..=u32::MAX).step_by(65_521).map(f32::from_bits).collect();
        probes.extend(exp_edges());
        let want: Vec<u32> = probes.iter().map(|&x| exp(x).to_bits()).collect();
        for level in host_levels() {
            for skip in [0, 3] {
                let mut got = probes[skip..].to_vec();
                exp_at(level, &mut got);
                for ((g, w), x) in bits(&got).iter().zip(&want[skip..]).zip(&probes[skip..]) {
                    assert_eq!(g, w, "{level:?} exp({x:e} = {:#010x})", x.to_bits());
                }
            }
        }
    }

    /// Every f32 through the dispatched kernel against the host's libm
    /// `f32::exp`. This asserts what the twin is a replay of, so it holds
    /// on glibc (2.27 on) x86-64 hosts only, and there only on a CPU with
    /// FMA, where glibc's ifunc picks the fused build; about 40 s in
    /// release:
    /// `cargo test --release -p astro-tensor --lib -- --ignored exp_is_glibc`.
    #[test]
    #[ignore]
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    fn exp_is_glibc_expf_on_every_float() {
        assert!(
            std::arch::is_x86_feature_detected!("fma"),
            "glibc's expf is the fused build on FMA CPUs only"
        );
        let mut buf = vec![0.0f32; 1 << 16];
        for block in 0..1u32 << 16 {
            for (i, x) in buf.iter_mut().enumerate() {
                *x = f32::from_bits(block << 16 | i as u32);
            }
            let libm: Vec<u32> = buf.iter().map(|x| x.exp().to_bits()).collect();
            exp_in_place(&mut buf);
            for (i, (got, want)) in bits(&buf).iter().zip(&libm).enumerate() {
                assert_eq!(got, want, "exp of {:#010x}", block << 16 | i as u32);
            }
        }
    }

    /// A row of `len`: values spread `spread` wide, with about one lane in
    /// five from [`exp_edges`] when `salt` is odd.
    fn spread_row(len: usize, spread: f32, salt: usize) -> Vec<f32> {
        let edges = exp_edges();
        (0..len)
            .map(|i| {
                let t = (i * 37 + salt * 11) % 23;
                if salt % 2 == 1 && t < 5 {
                    edges[(i + salt) % edges.len()]
                } else {
                    (t as f32 / 22.0 - 0.5) * spread
                }
            })
            .collect()
    }

    /// [`bits`], every NaN as one: which payload a sum or product of two
    /// NaNs carries depends on the order the compiler puts the operands
    /// in, in the old loops as in the new ones.
    fn values(x: &[f32]) -> Vec<u32> {
        let one = |v: &f32| if v.is_nan() { f32::NAN } else { *v };
        x.iter().map(|v| one(v).to_bits()).collect()
    }

    #[test]
    fn exp_customers_are_their_scalar_formulas_at_every_level() {
        let levels = host_levels();
        let lens = (1..=40).chain([136, 512]);
        for len in lens {
            for (salt, spread) in [1.0, 60.0, 150.0, 250.0, 1.0e31]
                .into_iter()
                .enumerate()
                .flat_map(|(i, s)| [(2 * i, s), (2 * i + 1, s)])
            {
                let x = spread_row(len, spread, salt);
                let mut with_neg_inf = x.clone();
                with_neg_inf[len / 2] = f32::NEG_INFINITY;
                for &level in &levels {
                    let at = format!("{level:?} len {len} spread {spread} salt {salt}");
                    for row in [&x, &with_neg_inf] {
                        let (mut want, mut got) = (row.clone(), row.clone());
                        softmax_row_reference(&mut want);
                        softmax_row_at(level, &mut got);
                        assert_eq!(values(&got), values(&want), "softmax {at}");
                        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let want = if max.is_infinite() {
                            max
                        } else {
                            max + row.iter().map(|&v| exp(v - max)).sum::<f32>().ln()
                        };
                        let got = log_sum_exp_at(level, row);
                        assert_eq!(values(&[got]), values(&[want]), "log_sum_exp {at}");
                    }
                    // Gates beyond ±88 and NaN when `salt` is odd.
                    let up = spread_row(len, 2.0, salt + 1);
                    let want: Vec<f32> = x
                        .iter()
                        .zip(&up)
                        .map(|(&g, &u)| g * sigmoid_reference(g) * u)
                        .collect();
                    let mut got = vec![f32::NAN; len];
                    swiglu_at(level, &mut got, &x, &up);
                    assert_eq!(values(&got), values(&want), "swiglu {at}");
                }
                // Training's SiLU and its backward, dispatched.
                let mut y = vec![f32::NAN; len];
                silu(&mut y, &x);
                let want: Vec<f32> = x.iter().map(|&v| v * sigmoid_reference(v)).collect();
                assert_eq!(values(&y), values(&want), "silu len {len} salt {salt}");
                let dy = spread_row(len, 3.0, salt + 2);
                let mut dx = spread_row(len, 1.0, salt + 3);
                let mut want = dx.clone();
                for ((d, &dyv), &xv) in want.iter_mut().zip(&dy).zip(&x) {
                    let s = sigmoid_reference(xv);
                    *d += dyv * (s + xv * s * (1.0 - s));
                }
                silu_backward(&mut dx, &dy, &x);
                let at = format!("len {len} salt {salt}");
                assert_eq!(values(&dx), values(&want), "silu_backward {at}");
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 2, 3);
        for row in x.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&p| p > 0.0));
        }
        // larger logit → larger probability
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows(&mut x, 1, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_known() {
        let x = [0.0f32, 0.0];
        assert!((log_sum_exp(&x) - (2.0f32).ln()).abs() < 1e-6);
        let y = [500.0f32, 500.0];
        assert!((log_sum_exp(&y) - (500.0 + (2.0f32).ln())).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        // zero logits over 4 classes → loss = ln(4) regardless of target
        let logits = vec![0.0; 8];
        let mut d = vec![0.0; 8];
        let (loss, active) =
            cross_entropy_rows(&mut d, &logits, &[1, 3], &[true, true], 2, 4);
        assert_eq!(active, 2);
        assert!((loss - (4.0f32).ln()).abs() < 1e-6);
        // gradient rows sum to zero
        for row in d.chunks(4) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_mask_skips_rows() {
        let logits = vec![5.0, 0.0, 0.0, 5.0];
        let mut d = vec![0.0; 4];
        let (loss1, active) =
            cross_entropy_rows(&mut d, &logits, &[0, 0], &[true, false], 2, 2);
        assert_eq!(active, 1);
        // masked row contributes no gradient
        assert!(d[2] == 0.0 && d[3] == 0.0);
        // loss equals the single-row loss
        let lse = log_sum_exp(&logits[0..2]);
        assert!((loss1 - (lse - 5.0)).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_all_masked_is_zero() {
        let logits = vec![1.0, 2.0];
        let mut d = vec![9.0; 2];
        let (loss, active) = cross_entropy_rows(&mut d, &logits, &[0], &[false], 1, 2);
        assert_eq!(active, 0);
        assert_eq!(loss, 0.0);
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = vec![0.3f32, -0.7, 1.2, 0.05, 0.9, -0.2];
        let targets = [2usize, 0];
        let mask = [true, true];
        let mut d = vec![0.0; 6];
        let (_, _) = cross_entropy_rows(&mut d, &logits, &targets, &mask, 2, 3);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp[idx] += eps;
            let mut lm = logits.clone();
            lm[idx] -= eps;
            let mut scratch = vec![0.0; 6];
            let (fp, _) = cross_entropy_rows(&mut scratch, &lp, &targets, &mask, 2, 3);
            let (fm, _) = cross_entropy_rows(&mut scratch, &lm, &targets, &mask, 2, 3);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - d[idx]).abs() < 1e-2, "idx {idx}: fd {fd} vs analytic {}", d[idx]);
        }
    }

    #[test]
    fn rmsnorm_unit_gain_preserves_direction() {
        let x = vec![3.0f32, 4.0];
        let g = vec![1.0f32, 1.0];
        let mut y = vec![0.0; 2];
        let mut inv = vec![0.0; 1];
        rmsnorm_rows(&mut y, &mut inv, &x, &g, 1, 2, 0.0);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert!((y[0] - 3.0 / rms).abs() < 1e-6);
        assert!((y[1] - 4.0 / rms).abs() < 1e-6);
    }

    #[test]
    fn rmsnorm_backward_matches_finite_difference() {
        let m = 2;
        let n = 4;
        let x: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.37).sin()).collect();
        let g: Vec<f32> = (0..n).map(|i| 1.0 + 0.1 * i as f32).collect();
        let eps = 1e-5f32;
        // loss = sum(y * w) for fixed random-ish weights w
        let w: Vec<f32> = (0..m * n).map(|i| ((i * 7 % 5) as f32 - 2.0) * 0.3).collect();
        let loss = |x: &[f32], g: &[f32]| -> f32 {
            let mut y = vec![0.0; m * n];
            let mut inv = vec![0.0; m];
            rmsnorm_rows(&mut y, &mut inv, x, g, m, n, eps);
            y.iter().zip(w.iter()).map(|(a, b)| a * b).sum()
        };
        let mut y = vec![0.0; m * n];
        let mut inv = vec![0.0; m];
        rmsnorm_rows(&mut y, &mut inv, &x, &g, m, n, eps);
        let mut dx = vec![0.0; m * n];
        let mut dg = vec![0.0; n];
        rmsnorm_rows_backward(&mut dx, &mut dg, &w, &x, &g, &inv, m, n);
        let h = 1e-3f32;
        for idx in 0..m * n {
            let mut xp = x.clone();
            xp[idx] += h;
            let mut xm = x.clone();
            xm[idx] -= h;
            let fd = (loss(&xp, &g) - loss(&xm, &g)) / (2.0 * h);
            assert!((fd - dx[idx]).abs() < 2e-2, "dx[{idx}]: fd {fd} vs {}", dx[idx]);
        }
        for idx in 0..n {
            let mut gp = g.clone();
            gp[idx] += h;
            let mut gm = g.clone();
            gm[idx] -= h;
            let fd = (loss(&x, &gp) - loss(&x, &gm)) / (2.0 * h);
            assert!((fd - dg[idx]).abs() < 2e-2, "dg[{idx}]: fd {fd} vs {}", dg[idx]);
        }
    }

    #[test]
    fn silu_zero_is_zero_and_monotone_positive() {
        let x = vec![-2.0f32, 0.0, 2.0];
        let mut y = vec![0.0; 3];
        silu(&mut y, &x);
        assert_eq!(y[1], 0.0);
        assert!(y[2] > 0.0);
        assert!(y[0] < 0.0 && y[0] > -0.5); // silu(-2) ≈ -0.238
    }

    #[test]
    fn silu_backward_matches_finite_difference() {
        let x: Vec<f32> = vec![-1.5, -0.3, 0.0, 0.7, 2.2];
        let dy = vec![1.0f32; 5];
        let mut dx = vec![0.0f32; 5];
        silu_backward(&mut dx, &dy, &x);
        let h = 1e-3f32;
        for i in 0..5 {
            let f = |v: f32| v * sigmoid_reference(v);
            let fd = (f(x[i] + h) - f(x[i] - h)) / (2.0 * h);
            assert!((fd - dx[i]).abs() < 1e-3, "i {i}");
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let n = 5;
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.9).cos()).collect();
        let w: Vec<f32> = (0..n).map(|i| (i as f32 + 1.0) * 0.2).collect();
        let loss = |x: &[f32]| -> f32 {
            let mut y = x.to_vec();
            softmax_rows(&mut y, 1, n);
            y.iter().zip(w.iter()).map(|(a, b)| a * b).sum()
        };
        let mut y = x.clone();
        softmax_rows(&mut y, 1, n);
        let mut dx = vec![0.0; n];
        softmax_rows_backward(&mut dx, &y, &w, 1, n);
        let h = 1e-3f32;
        for i in 0..n {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!((fd - dx[i]).abs() < 1e-3, "i {i}: {fd} vs {}", dx[i]);
        }
    }

    #[test]
    fn elementwise_helpers() {
        let mut out = vec![1.0f32, 1.0];
        mul_acc(&mut out, &[2.0, 3.0], &[4.0, 5.0]);
        assert_eq!(out, vec![9.0, 16.0]);
        mul(&mut out, &[2.0, 3.0], &[4.0, 5.0]);
        assert_eq!(out, vec![8.0, 15.0]);
        add_assign(&mut out, &[1.0, 1.0]);
        assert_eq!(out, vec![9.0, 16.0]);
        scale(&mut out, 0.5);
        assert_eq!(out, vec![4.5, 8.0]);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }
}
