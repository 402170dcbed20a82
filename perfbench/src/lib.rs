//! Benchmark machinery shared by the `perfbench` binary and its self-tests:
//! order statistics, the seeded arrival schedule, the span recorder and its
//! self-time arithmetic, computed kernel work counts, the host block, and
//! a small JSON writer.
//!
//! Everything here is std-only except [`counts`], which reads lowered op
//! weights, and [`host`], which reads the thread count and SIMD tier.

pub mod catalog;
pub mod counts;
pub mod host;
pub mod json;
pub mod schedule;
pub mod stats;
pub mod trace;
