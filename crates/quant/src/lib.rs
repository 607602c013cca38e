//! Int8 weight quantization.
//!
//! This crate sits *below* `astro-model` in the dependency graph and is
//! one module, [`qparams`]: containers for per-output-channel int8
//! weights ([`QuantMatrix`], [`QuantLayer`], [`QuantParams`]) built on the
//! exact-integer kernels in `astro_tensor::qmatmul`. The f32 weights
//! remain the bitwise-golden reference; the quantized copies are a
//! derived, lossy view validated by the differential tolerance suite in
//! `astro-model` (`tests/int8_differential.rs`).

pub mod qparams;

pub use qparams::{QuantLayer, QuantMatrix, QuantParams};
