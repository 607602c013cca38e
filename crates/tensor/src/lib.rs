//! Dense f32 tensor kernels for the from-scratch transformer.
//!
//! The transformer in `astro-model` uses explicit forward/backward passes
//! (llm.c style) over pre-allocated buffers, so this crate exposes *slice
//! kernels* rather than a graph framework: blocked matrix multiplication in
//! the three orientations backward passes need, fused softmax /
//! cross-entropy / RMSNorm kernels, the per-head attention kernel of the
//! inference path, and bf16 emulation matching the paper's bf16 training.
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
pub mod qmatmul;

pub use bf16::{bf16_round, bf16_round_slice};
pub use matmul::{matmul, matmul_at_b, matmul_a_bt};
pub use qmatmul::{matmul_q8_a_bt, matvec_q8, quantize_row_q8, quantize_rows_q8};

/// A level of the runtime kernel dispatch, ordered: each level's CPU also
/// runs every level below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Simd {
    /// The loops on the build's baseline target (x86-64 SSE2, or any other
    /// architecture) — the reference every other level is tested against.
    Portable,
    /// AVX2 with FMA: the f32 tiles in [`matmul`] and [`attention`], the
    /// q8 tile's `vpmaddubsw` multiply-add in [`qmatmul`], its 8-lane
    /// quantize epilogues, and the 8-lane [`ops::exp_in_place`]. FMA is
    /// used only inside `exp`, whose portable twin fuses the same
    /// operations; the dot and GEMM tiles multiply, then add.
    Avx2,
    /// AVX2 plus AVX-VNNI: as [`Simd::Avx2`], with the q8 tile's
    /// multiply-add one `vpdpbusd`.
    Avx2Vnni,
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
    } else if is_x86_feature_detected!("avxvnni") {
        Simd::Avx2Vnni
    } else {
        Simd::Avx2
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
        let levels = [Simd::Portable, Simd::Avx2, Simd::Avx2Vnni];
        for level in levels.iter().filter(|&&level| level > host) {
            println!("skipping the {level:?} kernels: this CPU runs {host:?}");
        }
        levels.into_iter().filter(|&level| level <= host).collect()
    }
}
