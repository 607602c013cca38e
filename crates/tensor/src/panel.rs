//! Frozen f32 weights packed once into `k`-major panels for a 16-lane
//! tile.
//!
//! [`Panels::pack`] lays a row-major weight `b` (`n × k`, applied as
//! `a · bᵀ` — every linear layer's `[out_features, in_features]`) out as
//! `⌈n / 16⌉` panels of sixteen output columns, each `k`-major: step `t` of
//! column `j` sits at `[j / 16][t][j % 16]`, and the last panel's missing
//! columns are zeros. One 16-float load is then step `t` of sixteen dots,
//! one dot per lane, so a row's four accumulators — one per residue
//! `t mod 4` — are exactly [`dot`]'s `s0..s3`, `(s0 + s1) + (s2 + s3)` is
//! two vertical adds and the scalar tail runs in order.
//! [`Panels::a_bt_acc`] therefore returns [`matmul_a_bt_acc`]'s bits,
//! whatever `m` and whichever tile ran.
//!
//! On the row-major layout a 16-lane register can hold only one dot's
//! quads along `k` (four lanes each), so a 16-lane tile there has to
//! gather four weight rows' quads and reduce them horizontally; a
//! prototype of that ran 0.81–1.67x of the AVX2 tile and was slower on 4
//! of the 18 S70b / S7b shapes (docs/TUNING.md). The panels move the
//! transpose to packing time, which a frozen weight pays once.
//!
//! [`dot`]: crate::matmul::dot
//! [`matmul_a_bt_acc`]: crate::matmul::matmul_a_bt_acc

use crate::{supported, Simd};

/// Output columns per panel: one per 512-bit lane.
const LANES: usize = 16;

/// One step of a panel: sixteen columns' weights at one `t`, a cache line.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
struct Step([f32; LANES]);

/// A weight `b` (`n × k`) in `k`-major panels of sixteen output columns
/// (see the module doc). A derived copy: packing reads `b` once, and the
/// copy does not follow later writes to it.
#[derive(Clone, Debug)]
pub struct Panels {
    n: usize,
    k: usize,
    /// `⌈n / 16⌉` panels of `k` steps each, panel after panel.
    steps: Vec<Step>,
}

impl Panels {
    /// Pack the row-major `b` (`n × k`).
    pub fn pack(b: &[f32], n: usize, k: usize) -> Self {
        assert!(n > 0 && k > 0, "an empty weight");
        assert_eq!(b.len(), n * k, "b has wrong size");
        let mut steps = vec![Step([0.0; LANES]); n.div_ceil(LANES) * k];
        for (j, row) in b.chunks_exact(k).enumerate() {
            let panel = &mut steps[j / LANES * k..][..k];
            for (step, &v) in panel.iter_mut().zip(row) {
                step.0[j % LANES] = v;
            }
        }
        Panels { n, k, steps }
    }

    /// Resident bytes of the panels, zero padding included.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.steps.as_slice())
    }

    /// `out += a · bᵀ` for `a` of `m × k` and `out` of `m × n`: the bits of
    /// [`crate::matmul::matmul_a_bt_acc`] on the `b` these panels hold.
    pub fn a_bt_acc(&self, out: &mut [f32], a: &[f32], m: usize) {
        self.a_bt_acc_at(crate::simd(), out, a, m);
    }

    /// [`Self::a_bt_acc`] on the tile of `level`: the AVX-512 tile at
    /// [`Simd::Avx512`], the portable loops below it.
    pub(crate) fn a_bt_acc_at(&self, level: Simd, out: &mut [f32], a: &[f32], m: usize) {
        assert_eq!(a.len(), m * self.k, "a has wrong size");
        assert_eq!(out.len(), m * self.n, "out has wrong size");
        match supported(level) {
            // SAFETY: `supported` verified AVX-512F at runtime, and `out`
            // and `a` were asserted against `m`, `n` and `k` just above.
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => unsafe { x86::a_bt_acc(self, out, a, m) },
            _ => self.a_bt_acc_portable(out, a),
        }
    }

    /// The panel arithmetic in plain loops, row by row — the reference the
    /// AVX-512 tile is tested against.
    fn a_bt_acc_portable(&self, out: &mut [f32], a: &[f32]) {
        let (n, k) = (self.n, self.k);
        let from = k - k % 4;
        for (p, panel) in self.steps.chunks_exact(k).enumerate() {
            let cols = (n - p * LANES).min(LANES);
            for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let mut acc = [[0.0f32; LANES]; 4];
                for (t, (&x, step)) in arow[..from].iter().zip(panel).enumerate() {
                    for (s, &w) in acc[t % 4].iter_mut().zip(&step.0) {
                        *s += x * w;
                    }
                }
                let [s0, s1, s2, s3] = acc;
                let mut sums: [f32; LANES] =
                    std::array::from_fn(|l| (s0[l] + s1[l]) + (s2[l] + s3[l]));
                for (&x, step) in arow[from..].iter().zip(&panel[from..]) {
                    for (s, &w) in sums.iter_mut().zip(&step.0) {
                        *s += x * w;
                    }
                }
                for (o, s) in orow[p * LANES..][..cols].iter_mut().zip(sums) {
                    *o += s;
                }
            }
        }
    }
}

/// The AVX-512 tile: per panel, bands of four `a` rows (then three, two or
/// one), each row four 16-lane accumulators — sixteen of the thirty-two
/// zmm registers at four rows. Per step `t` it loads the panel's step once
/// and, per row, broadcasts `a[r][t]`, multiplies, then adds: `avx512f`
/// only, never FMA, whose single rounding would change the low bits [`dot`]
/// keeps. The panel loop is outermost, so one panel (at most `64 · k`
/// bytes, 25 KB at `k` = 392) serves every row band from L1.
///
/// [`dot`]: crate::matmul::dot
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Panels, LANES};
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_ps, _mm512_load_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };

    /// AVX-512 [`Panels::a_bt_acc`].
    ///
    /// # Safety
    /// Caller must ensure AVX-512F support and that `out` and `a` hold
    /// `m × n` and `m × k` elements.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn a_bt_acc(p: &Panels, out: &mut [f32], a: &[f32], m: usize) {
        let (n, k) = (p.n, p.k);
        let (op, ap) = (out.as_mut_ptr(), a.as_ptr());
        for (j, panel) in p.steps.chunks_exact(k).enumerate() {
            let cols = (n - j * LANES).min(LANES);
            let mask = (u32::MAX >> (32 - cols)) as __mmask16;
            let (op, bp) = (op.add(j * LANES), panel.as_ptr().cast::<f32>());
            let full = m - m % 4;
            for i in (0..full).step_by(4) {
                band::<4>(op.add(i * n), n, ap.add(i * k), k, bp, mask);
            }
            let (op, ap) = (op.add(full * n), ap.add(full * k));
            match m % 4 {
                3 => band::<3>(op, n, ap, k, bp, mask),
                2 => band::<2>(op, n, ap, k, bp, mask),
                1 => band::<1>(op, n, ap, k, bp, mask),
                _ => {}
            }
        }
    }

    /// `R` rows of one panel: `out[r][..16] += a_r · panel`, the lanes of
    /// `mask` only.
    ///
    /// # Safety
    /// AVX-512F; `a` holds `R` rows at stride `k`, `b` one 64-byte aligned
    /// panel of `k` steps, and `out` `R` rows at stride `n` with the lanes
    /// of `mask` writable.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn band<const R: usize>(
        out: *mut f32,
        n: usize,
        a: *const f32,
        k: usize,
        b: *const f32,
        mask: __mmask16,
    ) {
        let mut acc = [[_mm512_setzero_ps(); 4]; R];
        let from = k - k % 4;
        for t0 in (0..from).step_by(4) {
            for (res, t) in (t0..t0 + 4).enumerate() {
                let vb = _mm512_load_ps(b.add(t * LANES));
                for (r, row) in acc.iter_mut().enumerate() {
                    let va = _mm512_set1_ps(*a.add(r * k + t));
                    row[res] = _mm512_add_ps(row[res], _mm512_mul_ps(va, vb));
                }
            }
        }
        for (r, [s0, s1, s2, s3]) in acc.into_iter().enumerate() {
            let mut sums: __m512 = _mm512_add_ps(_mm512_add_ps(s0, s1), _mm512_add_ps(s2, s3));
            for t in from..k {
                let (va, vb) = (
                    _mm512_set1_ps(*a.add(r * k + t)),
                    _mm512_load_ps(b.add(t * LANES)),
                );
                sums = _mm512_add_ps(sums, _mm512_mul_ps(va, vb));
            }
            let o = out.add(r * n);
            _mm512_mask_storeu_ps(o, mask, _mm512_add_ps(_mm512_maskz_loadu_ps(mask, o), sums));
        }
    }
}
