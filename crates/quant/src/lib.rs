//! Int8 weight quantization.
//!
//! This crate sits *below* `astro-model` in the dependency graph and is
//! one module, [`qparams`]: one type, [`QuantMatrix`], a weight matrix
//! quantized to per-output-channel int8 by `astro_tensor::qmatmul`'s
//! quantizer, which `astro-model` packs into `astro_tensor::Q8Panels` for
//! the exact-integer panel tiles. The f32 weights remain the
//! bitwise-golden reference; the quantized copies are a derived, lossy
//! view validated by the differential tolerance suite in `astro-model`
//! (`tests/int8_differential.rs`).

pub mod qparams;

pub use qparams::QuantMatrix;
