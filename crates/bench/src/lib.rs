//! The `astro-bench` CLI (`src/bin/astro-bench`) regenerates the paper's
//! tables and figures and reads request traces back; this library holds
//! the trace analyzer, which `tests/trace_completeness.rs` also drives.

pub mod trace;
