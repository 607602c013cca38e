//! Parallel-execution substrate for the AstroMLab 2 reproduction.
//!
//! The paper trains its models with LMFlow on multi-GPU A100 nodes using
//! data parallelism. We have no GPUs, so this crate provides the closest
//! CPU equivalent while exercising the same *code paths* a distributed
//! trainer needs: [`device::DeviceGrid`], a simulated multi-device
//! data-parallel trainer. Each "device" is a thread with a private
//! gradient buffer, and gradients are combined with a real **ring
//! all-reduce** ([`device::ring_all_reduce`]) through shared-memory
//! mailboxes, the same communication schedule NCCL uses.
//!
//! Sharding is by contiguous chunks, so floating-point reduction order is
//! fixed regardless of thread timing.

pub mod device;

pub use device::{ring_all_reduce, DeviceGrid, ReduceStats};
