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
//!
//! A small shape-carrying [`Tensor`] is provided for tests, examples and
//! non-hot-path code.

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

/// A minimal shape-carrying tensor over `f32`.
///
/// This is a convenience wrapper for non-hot-path code; hot kernels work on
/// raw slices. Row-major layout, arbitrary rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Build from explicit data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, data.len(), "shape {shape:?} wants {numel} elements");
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// 2-D element access (row-major).
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Matrix multiplication for 2-D tensors.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "inner dimensions must agree: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        matmul::matmul(&mut out.data, &self.data, &rhs.data, m, k, n);
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
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

    #[test]
    fn zeros_has_right_size() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_len() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn tensor_matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn tensor_matmul_known() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn norm_known() {
        let t = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
