//! Weights packed once into `k`-major panels of sixteen output columns:
//! f32 ([`Panels`], frozen weights on the AVX-512 tile) and int8
//! ([`Q8Panels`], the one form of every int8 weight, see its doc).
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
//! transpose to packing time, which a frozen weight pays once. Int8 on
//! the row-major layout has the same shape of problem — one dot's bytes
//! per register, a four-way horizontal sum per output — and [`Q8Panels`]
//! the same answer, one `i32` lane per output column, at every level: 16
//! lanes on AVX-512, 8 on AVX2, where it runs 1.07–1.77x the row-major
//! tile it replaced (docs/TUNING.md).
//!
//! [`dot`]: crate::matmul::dot
//! [`matmul_a_bt_acc`]: crate::matmul::matmul_a_bt_acc

use crate::qmatmul::dequant;
use crate::{supported, Simd};

/// Output columns per panel: one per 512-bit lane.
const LANES: usize = 16;

/// One step of a panel: sixteen columns' weights at one `t`, a cache line.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(64))]
struct Step([f32; LANES]);

/// A weight `b` (`n × k`) in `k`-major panels of sixteen output columns
/// (see the module doc). A derived copy: packing reads `b` once, and the
/// copy does not follow later writes to it.
#[derive(Clone, Debug, PartialEq)]
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

/// Bytes of one int8 step: sixteen columns' weights at four consecutive
/// `t`, a cache line.
const Q8_STEP: usize = 4 * LANES;

/// One step of an int8 panel (see [`Q8Panels`]).
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(64))]
struct Q8Step([u8; Q8_STEP]);

/// Activation rows whose offsets [`Q8Panels::a_bt`] keeps on the stack
/// at once.
const Q8_ROWS: usize = 16;

/// An int8 weight `b` (`n × k`, one scale per row) in `k`-major panels of
/// sixteen output columns for the `vpdpbusd` tiles: `⌈n / 16⌉` panels of
/// `⌈k / 4⌉` 64-byte steps, byte `[j / 16][t / 4][j % 16][t % 4]` holding
/// `b[j][t] + 128` as `u8`, so one step is four `t` of sixteen dots, four
/// bytes per lane. `vpdpbusd` wants one unsigned operand and AVX-512 has
/// no `vpsignb` to move a sign across, so the weights take the offset
/// and each row pays it back once: `Σ (w + 128)·a − 128·Σ a` is the
/// exact `Σ w·a` — the `i32` lanes wrap, and the true sum fits them for
/// `k ≤ 2^16`. The AVX2 tile, without `vpdpbusd`, flips the offset back
/// off and negates weights with `vpsignb`, which would leave `−128` as it
/// is: no weight may be `−128` ([`Q8Panels::pack`] asserts it; no
/// quantizer here emits it). Missing columns and the padding of `k` to a
/// multiple of 4 hold weight 0; a padded `t` meets a zero activation byte
/// and a padded column is masked off at the store. [`Q8Panels::a_bt`]
/// therefore returns [`matmul_q8_a_bt`]'s bits, whatever `m` and whichever
/// tile ran. A derived copy, like [`Panels`].
///
/// [`matmul_q8_a_bt`]: crate::qmatmul::matmul_q8_a_bt
#[derive(Clone, Debug, PartialEq)]
pub struct Q8Panels {
    n: usize,
    k: usize,
    /// `⌈n / 16⌉` panels of `⌈k / 4⌉` steps each, panel after panel.
    steps: Vec<Q8Step>,
    /// The `n` weight scales, zero-padded to a multiple of sixteen.
    scales: Vec<f32>,
}

impl Q8Panels {
    /// Pack the row-major int8 `q` (`n × k`, no element `−128`) with its
    /// `n` row scales.
    pub fn pack(q: &[i8], scales: &[f32], n: usize, k: usize) -> Self {
        assert!(n > 0 && k > 0, "an empty weight");
        assert_eq!(q.len(), n * k, "q has wrong size");
        assert_eq!(scales.len(), n, "scales has wrong size");
        assert!(!q.contains(&i8::MIN), "a weight of -128");
        let quads = k.div_ceil(4);
        let mut steps = vec![Q8Step([128; Q8_STEP]); n.div_ceil(LANES) * quads];
        for (j, row) in q.chunks_exact(k).enumerate() {
            let panel = &mut steps[j / LANES * quads..][..quads];
            for (t, &w) in row.iter().enumerate() {
                panel[t / 4].0[j % LANES * 4 + t % 4] = (i16::from(w) + 128) as u8;
            }
        }
        let mut scales = scales.to_vec();
        scales.resize(n.next_multiple_of(LANES), 0.0);
        Q8Panels {
            n,
            k,
            steps,
            scales,
        }
    }

    /// Resident bytes of the panels and scales, padding included.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.steps.as_slice()) + std::mem::size_of_val(self.scales.as_slice())
    }

    /// `c = a · bᵀ` for the `m` int8 rows of `a` (`m × k`, one scale each
    /// in `a_scales`) and `c` of `m × n`: the bits of
    /// [`crate::qmatmul::matmul_q8_a_bt`] on the weight these panels hold.
    pub fn a_bt(&self, c: &mut [f32], a: &[i8], a_scales: &[f32], m: usize) {
        self.a_bt_at(crate::simd(), c, a, a_scales, m);
    }

    /// [`Self::a_bt`] on the tile of `level` — every level returns the
    /// same bits. Panics if this CPU does not run `level`.
    pub fn a_bt_at(&self, level: Simd, c: &mut [f32], a: &[i8], a_scales: &[f32], m: usize) {
        assert_eq!(a.len(), m * self.k, "a has wrong size");
        assert_eq!(c.len(), m * self.n, "c has wrong size");
        assert_eq!(a_scales.len(), m, "a_scales has wrong size");
        // SAFETY (the vector arms): `supported` verified the level's CPU
        // features at runtime, and `c`, `a` and `a_scales` were asserted
        // against `m`, `n` and `k` just above.
        match supported(level) {
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => unsafe { x86::q8_a_bt(self, c, a, a_scales) },
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2Vnni => unsafe { x86::q8_a_bt_vnni(self, c, a, a_scales) },
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => unsafe { x86::q8_a_bt_avx2(self, c, a, a_scales) },
            _ => self.a_bt_portable(c, a, a_scales),
        }
    }

    /// The panel arithmetic in plain loops, row by row — the tile below
    /// AVX2.
    fn a_bt_portable(&self, c: &mut [f32], a: &[i8], a_scales: &[f32]) {
        let (n, k) = (self.n, self.k);
        let quads = k.div_ceil(4);
        for (p, panel) in self.steps.chunks_exact(quads).enumerate() {
            let cols = (n - p * LANES).min(LANES);
            let scales = &self.scales[p * LANES..][..cols];
            for ((arow, &sa), crow) in a.chunks_exact(k).zip(a_scales).zip(c.chunks_exact_mut(n)) {
                let mut acc = [0i32; LANES];
                for (t, &x) in arow.iter().enumerate() {
                    for (lane, s) in acc.iter_mut().enumerate() {
                        let w = panel[t / 4].0[lane * 4 + t % 4];
                        *s = s.wrapping_add(i32::from(w) * i32::from(x));
                    }
                }
                let offset = 128 * arow.iter().map(|&x| i32::from(x)).sum::<i32>();
                for ((o, s), &sb) in crow[p * LANES..][..cols].iter_mut().zip(acc).zip(scales) {
                    *o = dequant(s.wrapping_sub(offset), sa, sb);
                }
            }
        }
    }
}

/// The vector tiles. The f32 one ([`Panels`]): per panel, bands of four
/// `a` rows (then three, two or one), each row four 16-lane accumulators —
/// sixteen of the thirty-two zmm registers at four rows. Per step `t` it
/// loads the panel's step once and, per row, broadcasts `a[r][t]`,
/// multiplies, then adds: `avx512f` only, never FMA, whose single rounding
/// would change the low bits [`dot`]
/// keeps. The panel loop is outermost, so one panel (at most `64 · k`
/// bytes, 25 KB at `k` = 392) serves every row band from L1. The int8
/// ones ([`Q8Panels`]) — 16 lanes on AVX-512 VNNI, 8 on AVX-VNNI and on
/// AVX2 — share one loop, [`q8_blocks`](x86::q8_blocks).
///
/// [`dot`]: crate::matmul::dot
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Panels, Q8Panels, LANES, Q8_ROWS, Q8_STEP};
    use std::arch::x86_64::{
        __m512, __mmask16, _mm256_abs_epi8, _mm256_add_epi32, _mm256_cmpgt_epi32,
        _mm256_cvtepi32_ps, _mm256_dpbusd_avx_epi32, _mm256_load_si256, _mm256_loadu_ps,
        _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_maskstore_ps, _mm256_mul_ps,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi8, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_si256, _mm256_sign_epi8, _mm256_sub_epi32, _mm256_xor_si256,
        _mm512_add_epi32, _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_dpbusd_epi32, _mm512_load_ps,
        _mm512_load_si512, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_mul_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_ps, _mm512_setzero_si512,
        _mm512_sub_epi32,
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

    /// AVX-512 VNNI [`Q8Panels::a_bt`]: [`q8_blocks`] on 16-lane bands.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F and AVX-512 VNNI support and that `c`,
    /// `a` and `a_scales` hold `m × n`, `m × k` and `m` elements, `m` =
    /// `a_scales.len()`.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn q8_a_bt(p: &Q8Panels, c: &mut [f32], a: &[i8], a_scales: &[f32]) {
        q8_blocks::<true, true>(p, c, a, a_scales);
    }

    /// AVX-VNNI [`Q8Panels::a_bt`]: [`q8_blocks`] on 8-lane bands.
    ///
    /// # Safety
    /// As [`q8_a_bt`], with AVX2 and AVX-VNNI support.
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn q8_a_bt_vnni(p: &Q8Panels, c: &mut [f32], a: &[i8], a_scales: &[f32]) {
        q8_blocks::<false, true>(p, c, a, a_scales);
    }

    /// AVX2 [`Q8Panels::a_bt`]: [`q8_blocks`] on 8-lane bands, without
    /// `vpdpbusd`.
    ///
    /// # Safety
    /// As [`q8_a_bt`], with AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn q8_a_bt_avx2(p: &Q8Panels, c: &mut [f32], a: &[i8], a_scales: &[f32]) {
        q8_blocks::<false, false>(p, c, a, a_scales);
    }

    /// The one loop of the three int8 tiles, compiled into each caller with
    /// that caller's features (`ZMM`: 16-lane bands, else 8-lane ones;
    /// `VNNI`: `vpdpbusd` on the offset weights): blocks of up to
    /// [`Q8_ROWS`] rows, each block's `128·Σa` offsets taken first onto the
    /// stack when `VNNI`; within a block, groups of panels outermost — a
    /// group at most `2 · 64 · ⌈k / 4⌉` bytes, 12.5 KB at `k` = 392, served
    /// from L1 to every band — and bands of four rows (then three, two or
    /// one) inside. A group is a pair of panels on 16 lanes, and on 8 lanes
    /// for a one-row block only, whose one band then shares each broadcast
    /// among four registers; one panel otherwise.
    ///
    /// # Safety
    /// As the caller's, whose features must cover `ZMM` and `VNNI`.
    #[inline(always)]
    unsafe fn q8_blocks<const ZMM: bool, const VNNI: bool>(
        p: &Q8Panels,
        c: &mut [f32],
        a: &[i8],
        a_scales: &[f32],
    ) {
        let (n, k) = (p.n, p.k);
        let quads = k.div_ceil(4);
        let panels = n.div_ceil(LANES);
        for (block, sa) in a_scales.chunks(Q8_ROWS).enumerate() {
            let (i0, rows) = (block * Q8_ROWS, sa.len());
            let ab = &a[i0 * k..(i0 + rows) * k];
            let mut offsets = [0i32; Q8_ROWS];
            if VNNI {
                for (o, arow) in offsets.iter_mut().zip(ab.chunks_exact(k)) {
                    *o = 128 * arow.iter().map(|&x| i32::from(x)).sum::<i32>();
                }
            }
            let (offsets, group) = (&offsets[..rows], if ZMM || rows == 1 { 2 } else { 1 });
            for j in (0..panels).step_by(group) {
                let g = Group {
                    c: c.as_mut_ptr().add(i0 * n + j * LANES),
                    n,
                    a: ab.as_ptr(),
                    k,
                    b: p.steps.as_ptr().add(j * quads).cast::<u8>(),
                    panel: quads * Q8_STEP,
                    scales: p.scales.as_ptr().add(j * LANES),
                    cols: [j, j + 1].map(|q| n.saturating_sub(q * LANES).min(LANES)),
                };
                match (ZMM, group == 2 && j + 1 < panels) {
                    (false, true) => ymm_band::<VNNI, 1, 2, 2>(&g, 0, offsets, sa),
                    (_, true) => q8_bands::<ZMM, VNNI, 2>(&g, offsets, sa),
                    (_, false) => q8_bands::<ZMM, VNNI, 1>(&g, offsets, sa),
                }
            }
        }
    }

    /// What every band of one row block shares against one group of
    /// panels.
    struct Group {
        /// The block's first output row, at the group's first column.
        c: *mut f32,
        n: usize,
        /// The block's first activation row.
        a: *const i8,
        k: usize,
        /// The group's first panel, 64-byte aligned.
        b: *const u8,
        /// Bytes from one panel to the next.
        panel: usize,
        /// The group's first column's weight scale.
        scales: *const f32,
        /// The output columns of each panel.
        cols: [usize; 2],
    }

    /// The block's rows against `P` panels of `g`, four rows a band, then
    /// the `rows % 4` left over.
    ///
    /// # Safety
    /// As [`zmm_band`] or [`ymm_band`], for every row of `offsets` (as many
    /// as `a_scales`).
    #[inline(always)]
    unsafe fn q8_bands<const ZMM: bool, const VNNI: bool, const P: usize>(
        g: &Group,
        offsets: &[i32],
        a_scales: &[f32],
    ) {
        macro_rules! band {
            ($r:literal, $s:literal, $i:expr) => {{
                let (i, o, s) = ($i, &offsets[$i..], &a_scales[$i..]);
                if ZMM {
                    zmm_band::<$r, P, $s>(g, i, o, s)
                } else {
                    ymm_band::<VNNI, $r, P, $s>(g, i, o, s)
                }
            }};
        }
        let rows = offsets.len();
        let full = rows - rows % 4;
        for i in (0..full).step_by(4) {
            band!(4, 1, i);
        }
        match rows % 4 {
            3 => band!(3, 1, full),
            2 => band!(2, 2, full),
            1 => band!(1, 4, full),
            _ => {}
        }
    }

    /// A band's steps, `$step!(q, chain, |r| quad)` each: step `q` adds into
    /// chain `q mod S` — `S` = 2 or 4 keeps a band of one or two rows from
    /// waiting out the multiply-add's latency, and integer sums may be
    /// split anyhow — and the last, partial step reads zeros past `k`.
    macro_rules! q8_steps {
        ($step:ident, $acc:ident, $a:ident, $k:ident, $S:ident) => {
            let full = $k / 4;
            let mut q = 0;
            while q + $S <= full {
                for (s, chain) in $acc.iter_mut().enumerate() {
                    let at = 4 * (q + s);
                    $step!(q + s, chain, |r| $a
                        .add(r * $k + at)
                        .cast::<i32>()
                        .read_unaligned());
                }
                q += $S;
            }
            for q in q..full {
                $step!(q, $acc[0], |r| $a
                    .add(r * $k + 4 * q)
                    .cast::<i32>()
                    .read_unaligned());
            }
            if $k % 4 != 0 {
                $step!(full, $acc[0], |r| {
                    let mut quad = [0u8; 4];
                    let tail = $a.add(r * $k + 4 * full).cast::<u8>();
                    std::ptr::copy_nonoverlapping(tail, quad.as_mut_ptr(), $k % 4);
                    i32::from_le_bytes(quad)
                });
            }
        };
    }

    /// Rows `i..i + R` of the block against `P` panels on 16 lanes: per
    /// step the panels' steps are loaded once and each row's four
    /// activation bytes broadcast into one `vpdpbusd` per panel (weights
    /// the unsigned operand, activations the signed one), in the chains of
    /// [`q8_steps`]. Then the chains are added, each row's offset comes
    /// off, and the sums are dequantized as [`dequant`](super::dequant)
    /// does — `(acc as f32) · (sa · sb)` — and stored under each panel's
    /// column mask.
    ///
    /// # Safety
    /// AVX-512F and AVX-512 VNNI; `g` points into live buffers of the
    /// block (`R` rows of `k` activations from row `i`, `R` output rows at
    /// stride `n` with each panel's columns writable, `P` panels of
    /// `⌈k / 4⌉` steps and `16 · P` scales), and `offsets` and `a_scales`
    /// hold at least `R` elements.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vnni")]
    unsafe fn zmm_band<const R: usize, const P: usize, const S: usize>(
        g: &Group,
        i: usize,
        offsets: &[i32],
        a_scales: &[f32],
    ) {
        let (k, a) = (g.k, g.a.add(i * g.k));
        let mut acc = [[[_mm512_setzero_si512(); P]; R]; S];
        macro_rules! step {
            ($q:expr, $chain:expr, |$r:ident| $quad:expr) => {
                let mut vb = [_mm512_setzero_si512(); P];
                for (p, v) in vb.iter_mut().enumerate() {
                    *v = _mm512_load_si512(g.b.add(p * g.panel + $q * Q8_STEP).cast());
                }
                for ($r, row) in $chain.iter_mut().enumerate() {
                    let va = _mm512_set1_epi32($quad);
                    for (s, &w) in row.iter_mut().zip(&vb) {
                        *s = _mm512_dpbusd_epi32(*s, w, va);
                    }
                }
            };
        }
        q8_steps!(step, acc, a, k, S);
        let mut sums = acc[0];
        for chain in &acc[1..] {
            for (row, other) in sums.iter_mut().zip(chain) {
                for (s, &o) in row.iter_mut().zip(other) {
                    *s = _mm512_add_epi32(*s, o);
                }
            }
        }
        for (r, row) in sums.into_iter().enumerate() {
            let (offset, sa) = (_mm512_set1_epi32(offsets[r]), _mm512_set1_ps(a_scales[r]));
            let c = g.c.add((i + r) * g.n);
            for (p, s) in row.into_iter().enumerate() {
                let sum = _mm512_cvtepi32_ps(_mm512_sub_epi32(s, offset));
                let scale = _mm512_mul_ps(sa, _mm512_loadu_ps(g.scales.add(p * LANES)));
                let mask = ((1u32 << g.cols[p]) - 1) as __mmask16;
                _mm512_mask_storeu_ps(c.add(p * LANES), mask, _mm512_mul_ps(sum, scale));
            }
        }
    }

    /// [`zmm_band`] on 8 lanes: a 64-byte step is two ymm registers, its
    /// panel's columns 0–7 and 8–15. With `VNNI` each takes one
    /// `vpdpbusd` on the offset weights. Without, the step is XORed with
    /// `0x80` once — the signed weights back, shared by the band's rows —
    /// and each row's broadcast goes through `vpabsb`; per register
    /// `vpsignb` moves its sign onto the weights (exact, as no weight is
    /// `−128`), `vpmaddubsw` adds pairs of products into `i16` (at most
    /// `2·128·127 < 2^15`, never saturating) and `vpmaddwd` by ones pairs
    /// of those into the `i32` lanes: no offsets. Stored under
    /// `vmaskmovps`.
    ///
    /// # Safety
    /// AVX2, and AVX-VNNI when `VNNI`; otherwise as [`zmm_band`].
    #[inline(always)]
    unsafe fn ymm_band<const VNNI: bool, const R: usize, const P: usize, const S: usize>(
        g: &Group,
        i: usize,
        offsets: &[i32],
        a_scales: &[f32],
    ) {
        let (k, a) = (g.k, g.a.add(i * g.k));
        let mut acc = [[[[_mm256_setzero_si256(); 2]; P]; R]; S];
        macro_rules! step {
            ($q:expr, $chain:expr, |$r:ident| $quad:expr) => {
                let mut vb = [[_mm256_setzero_si256(); 2]; P];
                for (p, halves) in vb.iter_mut().enumerate() {
                    for (h, v) in halves.iter_mut().enumerate() {
                        let step = g.b.add(p * g.panel + $q * Q8_STEP + 32 * h);
                        *v = _mm256_load_si256(step.cast());
                        if !VNNI {
                            *v = _mm256_xor_si256(*v, _mm256_set1_epi8(i8::MIN));
                        }
                    }
                }
                for ($r, row) in $chain.iter_mut().enumerate() {
                    let va = _mm256_set1_epi32($quad);
                    let abs = _mm256_abs_epi8(va);
                    for (accs, ws) in row.iter_mut().zip(&vb) {
                        for (s, &w) in accs.iter_mut().zip(ws) {
                            *s = if VNNI {
                                _mm256_dpbusd_avx_epi32(*s, w, va)
                            } else {
                                let pairs = _mm256_maddubs_epi16(abs, _mm256_sign_epi8(w, va));
                                _mm256_add_epi32(*s, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
                            };
                        }
                    }
                }
            };
        }
        q8_steps!(step, acc, a, k, S);
        let mut sums = acc[0];
        for chain in &acc[1..] {
            for (row, other) in sums.iter_mut().zip(chain) {
                for (halves, more) in row.iter_mut().zip(other) {
                    for (s, &o) in halves.iter_mut().zip(more) {
                        *s = _mm256_add_epi32(*s, o);
                    }
                }
            }
        }
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        for (r, row) in sums.into_iter().enumerate() {
            let (offset, sa) = (_mm256_set1_epi32(offsets[r]), _mm256_set1_ps(a_scales[r]));
            let c = g.c.add((i + r) * g.n);
            for (p, halves) in row.into_iter().enumerate() {
                for (h, s) in halves.into_iter().enumerate() {
                    let col = p * LANES + 8 * h;
                    let sum = _mm256_cvtepi32_ps(_mm256_sub_epi32(s, offset));
                    let scale = _mm256_mul_ps(sa, _mm256_loadu_ps(g.scales.add(col)));
                    let cols = _mm256_set1_epi32(g.cols[p] as i32 - 8 * h as i32);
                    let mask = _mm256_cmpgt_epi32(cols, lane);
                    _mm256_maskstore_ps(c.add(col), mask, _mm256_mul_ps(sum, scale));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmatmul::{matmul_q8_a_bt_portable, quantize_rows_q8};
    use crate::tests::{guarded, host_levels};

    /// `len` int8 values quantized from a seeded pseudo-random row set,
    /// one scale per row of `cols`.
    fn q8_rows(rows: usize, cols: usize, seed: u64) -> (Vec<i8>, Vec<f32>) {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let x: Vec<f32> = (0..rows * cols)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((s >> 33) as u32) as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect();
        let (mut q, mut scales) = (vec![0i8; rows * cols], vec![0.0; rows]);
        quantize_rows_q8(&mut q, &mut scales, &x, rows, cols);
        (q, scales)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn q8_pack_offsets_each_weight_into_its_lane_and_quad() {
        let (n, k) = (17, 6);
        let q: Vec<i8> = (0..n * k).map(|i| (i as i32 % 255 - 127) as i8).collect();
        let scales: Vec<f32> = (0..n).map(|j| j as f32).collect();
        let p = Q8Panels::pack(&q, &scales, n, k);
        assert_eq!((p.steps.len(), p.scales.len()), (2 * 2, 32));
        for j in 0..32 {
            for t in 0..8 {
                let byte = p.steps[j / 16 * 2 + t / 4].0[j % 16 * 4 + t % 4];
                let w = if j < n && t < k { q[j * k + t] } else { 0 };
                assert_eq!(i16::from(byte) - 128, i16::from(w), "column {j} step {t}");
            }
            assert_eq!(p.scales[j], if j < n { j as f32 } else { 0.0 });
        }
        assert_eq!(p.bytes(), 4 * 64 + 32 * 4);
    }

    #[test]
    #[should_panic(expected = "a weight of -128")]
    fn q8_pack_refuses_a_weight_of_minus_128() {
        // The AVX2 tile's `vpsignb` would leave it unnegated.
        let mut q = vec![1i8; 3 * 5];
        q[7] = i8::MIN;
        Q8Panels::pack(&q, &[1.0; 3], 3, 5);
    }

    #[test]
    fn q8_panels_match_the_row_major_kernel_at_every_edge() {
        // Each host level's tile against the portable row-major loops, bit
        // for bit: rows on both sides of a four-row band and of the
        // sixteen-row offset block, every `k % 4` tail plus the S70b
        // `d_model` and `d_ff`, columns on both sides of a panel and of a
        // panel pair.
        let levels = host_levels();
        for m in [1usize, 2, 3, 4, 5, 9, 17] {
            for k in [1usize, 2, 3, 4, 5, 6, 7, 8, 13, 144, 392] {
                for n in [1usize, 15, 16, 17, 31, 32, 33, 517] {
                    let (mut aq, asc) = q8_rows(m, k, (m * k) as u64);
                    let (mut bq, bsc) = q8_rows(n, k, (n + k) as u64);
                    // No quantizer emits it, but an activation of -128
                    // against weights of ±127 stays exact, in the steps and
                    // in the tail.
                    for t in [0, k / 2, k - 1] {
                        aq[t] = i8::MIN;
                        aq[m * k - 1 - t] = i8::MIN;
                        bq[t] = 127;
                        bq[n * k - 1 - t] = -127;
                    }
                    let mut want = vec![f32::NAN; m * n];
                    matmul_q8_a_bt_portable(&mut want, &aq, &asc, &bq, &bsc, k, n);
                    let panels = Q8Panels::pack(&bq, &bsc, n, k);
                    for &level in &levels {
                        let mut got = vec![f32::NAN; m * n];
                        panels.a_bt_at(level, &mut got, &aq, &asc, m);
                        assert_eq!(bits(&got), bits(&want), "{level:?} {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn panels_write_only_their_output_at_every_level() {
        // `out` between guards, against the same call on an exactly sized
        // `out`: rows on both sides of a band, columns on both sides of a
        // panel's sixteen, `k` with and without a quad tail.
        let levels = host_levels();
        for m in [1usize, 3, 4, 5] {
            for n in [1usize, 15, 16, 17, 33] {
                for k in [1usize, 4, 5, 13] {
                    let b: Vec<f32> = (0..n * k).map(|i| (i % 7) as f32 - 3.0).collect();
                    let a: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32 * 0.5).collect();
                    let (bq, bs) = q8_rows(n, k, (n + k) as u64);
                    let (aq, asc) = q8_rows(m, k, (m * k) as u64);
                    let (panels, q8) = (Panels::pack(&b, n, k), Q8Panels::pack(&bq, &bs, n, k));
                    let seed: Vec<f32> = (0..m * n).map(|i| i as f32).collect();
                    for &level in &levels {
                        let at = format!("{level:?} {m}x{k}x{n}");
                        let mut want = seed.clone();
                        panels.a_bt_acc_at(level, &mut want, &a, m);
                        let got = guarded(&seed, |out| panels.a_bt_acc_at(level, out, &a, m));
                        assert_eq!(bits(&got), bits(&want), "f32 panels {at}");
                        let mut want = vec![f32::NAN; m * n];
                        q8.a_bt_at(level, &mut want, &aq, &asc, m);
                        let got = guarded(&vec![f32::NAN; m * n], |c| {
                            q8.a_bt_at(level, c, &aq, &asc, m)
                        });
                        assert_eq!(bits(&got), bits(&want), "int8 panels {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn q8_panels_sum_the_largest_products_exactly_near_k_2_16() {
        // Rows of -128 and of 127 against weights of 127, -127 and ±127 in
        // turn, `k` up to 2^16: the offset sums `Σ (w + 128)·a` reach
        // 255 · 128 · 2^16 in magnitude, and the true sums, ±127 · 128 ·
        // 2^16, must come out exact.
        for k in [(1 << 16) - 3, 1 << 16] {
            let mut a = vec![i8::MIN; 2 * k];
            a[k..].fill(127);
            let mut b = vec![127i8; 3 * k];
            b[k..2 * k].fill(-127);
            for (t, w) in b[2 * k..].iter_mut().enumerate() {
                *w = if t % 2 == 0 { 127 } else { -127 };
            }
            let exact = |x: &[i8], w: &[i8]| -> f32 {
                x.iter()
                    .zip(w)
                    .map(|(&x, &w)| i64::from(x) * i64::from(w))
                    .sum::<i64>() as f32
            };
            let want: Vec<f32> = a
                .chunks_exact(k)
                .flat_map(|arow| b.chunks_exact(k).map(move |brow| exact(arow, brow)))
                .collect();
            let panels = Q8Panels::pack(&b, &[1.0; 3], 3, k);
            for level in host_levels() {
                let mut got = [f32::NAN; 6];
                panels.a_bt_at(level, &mut got, &a, &[1.0; 2], 2);
                assert_eq!(got.as_slice(), want, "{level:?} k={k}");
            }
        }
    }
}
