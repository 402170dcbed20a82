//! Kernel work computed (not measured) from lowered op counts.
//!
//! Every lowered op is charged one full sweep of the rows it runs on:
//! `op_weight · rows · 2ⁿ` amplitude updates, where `op_weight` counts the
//! ops of both arms of a measurement case. That is an upper bound for
//! branching programs (a row that takes one arm never sweeps the other)
//! and exact for straight-line ones. Each amplitude update reads and
//! writes one split-plane complex value: 2 × 2 × 8 = 32 bytes.

use qdp_ad::LoweredSet;

/// Bytes moved per amplitude update (read + write of a `re`/`im` pair of
/// `f64`s).
pub const BYTES_PER_AMP_UPDATE: u64 = 32;

/// Total lowered ops of a set, counting nested measurement arms.
pub fn op_weight(set: &LoweredSet) -> u64 {
    set.programs().iter().map(|p| p.op_weight() as u64).sum()
}

/// Computed amplitude updates for evaluating a lowered set of total op
/// weight `op_weight` on `rows` rows of `n_qubits` qubits.
pub fn amp_updates(op_weight: u64, rows: u64, n_qubits: usize) -> u64 {
    op_weight * rows * (1u64 << n_qubits)
}

/// Computed bytes for `amp_updates` amplitude updates.
pub fn bytes_computed(amp_updates: u64) -> u64 {
    amp_updates * BYTES_PER_AMP_UPDATE
}
