//! Int8 weight quantization.
//!
//! This crate sits *below* `astro-model` in the dependency graph and is
//! one module, [`qparams`]: one type, [`QuantMatrix`], a weight matrix
//! in per-output-channel int8 over the exact-integer kernels in
//! `astro_tensor::qmatmul`. The f32 weights remain the bitwise-golden
//! reference; the quantized copies are a derived, lossy view validated by
//! the differential tolerance suite in `astro-model`
//! (`tests/int8_differential.rs`).

pub mod qparams;

pub use qparams::QuantMatrix;
