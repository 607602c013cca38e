//! Dense f32 tensor kernels for the from-scratch transformer.
//!
//! The transformer in `astro-model` uses explicit forward/backward passes
//! (llm.c style) over pre-allocated buffers, so this crate exposes *slice
//! kernels* rather than a graph framework: blocked matrix multiplication in
//! the three orientations backward passes need, weights packed into
//! `k`-major panels for the inference path's linears ([`Panels`] for frozen
//! f32 weights, [`Q8Panels`] for every int8 one), fused softmax /
//! cross-entropy / RMSNorm kernels, the attention kernel of the inference
//! path, and bf16 emulation matching the paper's bf16 training. Vector kernels are picked at run time by one
//! cached level, [`simd()`]: [`Simd::Portable`] < [`Simd::Avx2`] <
//! [`Simd::Avx2Vnni`] < [`Simd::Avx512`], each level's CPU running every
//! level below it.
//!
//! Design notes (following the Rust Performance Book guidance):
//!
//! * kernels take `&[f32]`/`&mut [f32]` and never allocate;
//! * inner loops are written in `i-k-j` order so the hot loop is a
//!   contiguous AXPY the compiler can vectorise;
//! * all kernels are deterministic — accumulation order is fixed.

pub mod attention;
pub mod bf16;
pub mod gradcheck;
pub mod matmul;
pub mod ops;
pub mod panel;
pub mod qmatmul;

pub use bf16::{bf16_round, bf16_round_slice};
pub use matmul::{matmul, matmul_at_b, matmul_a_bt};
pub use panel::{Panels, Q8Panels};
pub use qmatmul::{matmul_q8_a_bt, quantize_row_q8, quantize_rows_q8};

/// A level of the runtime kernel dispatch, ordered: each level's CPU also
/// runs every level below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Simd {
    /// The loops on the build's baseline target (x86-64 SSE2, or any other
    /// architecture) — the reference every other level is tested against.
    Portable,
    /// AVX2 with FMA: the f32 tiles in [`matmul`] and [`attention`]'s AVX2
    /// arm, the 8-lane [`panel::Q8Panels`] tile (`vpsignb`, `vpmaddubsw`,
    /// then `vpmaddwd` by ones), the 8-lane quantize epilogues of
    /// [`qmatmul`], and the 8-lane [`ops::exp_in_place`] and softmax
    /// maximum. FMA is used only inside `exp`, whose portable twin
    /// fuses the same operations; the dot and GEMM tiles multiply, then
    /// add.
    Avx2,
    /// AVX2 plus AVX-VNNI: as [`Simd::Avx2`], with the 8-lane
    /// [`panel::Q8Panels`] tile's multiply-add one `vpdpbusd` on the offset
    /// weights.
    Avx2Vnni,
    /// AVX-512F and AVX-512 VNNI on a CPU that runs every level below: as
    /// [`Simd::Avx2Vnni`], plus the 16-lane tiles of [`panel::Panels`] (the
    /// f32 linears of frozen weights) and [`panel::Q8Panels`] (every int8
    /// linear), [`attention`]'s AVX-512 arm, and the 16-lane
    /// [`ops::exp_in_place`], softmax maximum and scale (the quantize
    /// epilogues stay those of [`Simd::Avx2`]). Multiply, then add, as ever
    /// on f32; one `vpdpbusd` per sixteen int8 dots.
    Avx512,
}

/// The cached one-time CPU detection — the one switch every
/// runtime-dispatched kernel of this crate reads. Each dispatched kernel
/// returns the bits of its portable twin, so the answer changes speed
/// only.
pub fn simd() -> Simd {
    static LEVEL: std::sync::OnceLock<Simd> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// `level`, once checked against what this CPU runs — the precondition of
/// every vector kernel, so a caller naming a level (the tests name each
/// one) cannot reach an instruction the CPU lacks.
pub(crate) fn supported(level: Simd) -> Simd {
    assert!(level <= simd(), "{level:?} kernels on a {:?} CPU", simd());
    level
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Simd {
    use std::arch::is_x86_feature_detected;
    if !is_x86_feature_detected!("avx2") || !is_x86_feature_detected!("fma") {
        Simd::Portable
    } else if !is_x86_feature_detected!("avxvnni") {
        Simd::Avx2
    } else if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni") {
        Simd::Avx512
    } else {
        Simd::Avx2Vnni
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Simd {
    Simd::Portable
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every dispatch level this CPU runs, portable first; a level it
    /// lacks is skipped with a note.
    pub(crate) fn host_levels() -> Vec<Simd> {
        let host = simd();
        let levels = [Simd::Portable, Simd::Avx2, Simd::Avx2Vnni, Simd::Avx512];
        for level in levels.iter().filter(|&&level| level > host) {
            println!("skipping the {level:?} kernels: this CPU runs {host:?}");
        }
        levels.into_iter().filter(|&level| level <= host).collect()
    }

    /// Guard elements on each side of an output under test: more than one
    /// 16-lane register's worth, so a store mask or a loop bound one
    /// register too long lands in a guard.
    const GUARD_LANES: usize = 17;

    /// An element type a guard can be made of: its guard value and an
    /// exact comparison.
    pub(crate) trait Guard: Copy {
        /// For `f32` a signalling NaN, which any arithmetic quiets, so that
        /// a guard an in-place kernel reads and writes back changes bits.
        const GUARD: Self;
        fn same(self, other: Self) -> bool;
    }

    impl Guard for f32 {
        const GUARD: f32 = f32::from_bits(0x7f80_0001);
        fn same(self, other: f32) -> bool {
            self.to_bits() == other.to_bits()
        }
    }

    impl Guard for i8 {
        const GUARD: i8 = 0x5a;
        fn same(self, other: i8) -> bool {
            self == other
        }
    }

    /// `inside` between two runs of guards: `write` gets the `inside.len()`
    /// elements between them, the guards must come back untouched, and the
    /// elements are returned.
    pub(crate) fn guarded<T: Guard>(inside: &[T], write: impl FnOnce(&mut [T])) -> Vec<T> {
        let end = GUARD_LANES + inside.len();
        let mut buf = vec![T::GUARD; end + GUARD_LANES];
        buf[GUARD_LANES..end].copy_from_slice(inside);
        write(&mut buf[GUARD_LANES..end]);
        let guards = buf[..GUARD_LANES].iter().chain(&buf[end..]);
        assert!(
            guards.into_iter().all(|g| g.same(T::GUARD)),
            "a guard was written"
        );
        buf[GUARD_LANES..end].to_vec()
    }
}
