//! Int8 weight quantization and speculative-decoding primitives.
//!
//! This crate sits *below* `astro-model` in the dependency graph and
//! supplies the two ingredients of the quantized serving path:
//!
//! * [`qparams`] — containers for per-output-channel int8 weights
//!   ([`QuantMatrix`], [`QuantLayer`], [`QuantParams`]) built on the
//!   exact-integer kernels in `astro_tensor::qmatmul`. The f32 weights
//!   remain the bitwise-golden reference; the quantized copies are a
//!   derived, lossy view validated by the differential tolerance suite
//!   in `astro-serve`.
//! * [`reject`] — the speculative-decoding acceptance rule
//!   (Leviathan/Chen rejection sampling). A draft model proposes a
//!   token from distribution `q`; the verifier accepts it with
//!   probability `min(1, p/q)` under the target distribution `p` and
//!   otherwise resamples from the normalized residual `max(0, p − q)`.
//!   The marginal output distribution is *exactly* `p` — the identity
//!   `min(p,q) + max(0, p−q) = p` — so speculation changes latency,
//!   never the sampled distribution. The property suite checks this
//!   analytically and empirically.

pub mod qparams;
pub mod reject;

pub use qparams::{QuantLayer, QuantMatrix, QuantParams};
pub use reject::{accept_or_resample, pmf, SpecOutcome};
