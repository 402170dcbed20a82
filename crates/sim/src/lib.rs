//! # qdp-sim
//!
//! Quantum simulation substrate for the reproduction of *On the Principles of
//! Differentiable Quantum Programming Languages* (PLDI 2020).
//!
//! The paper's evaluation runs entirely on classical simulation; this crate is
//! that simulator, built from scratch on [`qdp_linalg`]:
//!
//! * [`StateVector`] — pure states `|ψ⟩` with targeted gate application,
//! * [`BatchedStates`] — contiguous `batch × 2ⁿ` blocks of pure states for
//!   evaluating one compiled program against many inputs at once,
//! * [`DensityMatrix`] — partial density operators `ρ ∈ D(H)`, the carrier of
//!   the paper's denotational semantics (Fig. 1b),
//! * [`KrausChannel`] — admissible superoperators `E = Σk Ek ∘ Ek†` and their
//!   Schrödinger–Heisenberg duals `E*` (Section 2.2),
//! * [`Measurement`] — quantum measurements `{Mm}` with branch enumeration
//!   (Section 2.3),
//! * [`Observable`] — Hermitian read-outs `O` with `tr(Oρ)` expectations and
//!   shot-based sampling (Section 5),
//! * [`ShotEngine`] — batched execution of the [`TrajProgram`] branching
//!   IR in both modes: sampled trajectories of whole shot blocks with
//!   branch-grouped batching (Section 7), and exact **branch-weighted**
//!   sweeps that fork a block into every measurement outcome at once.
//!
//! Qubit `k` of an `n`-qubit system corresponds to bit `n-1-k` of a basis
//! index, i.e. qubit 0 is the most significant bit. This matches the
//! Kronecker-product order of [`qdp_linalg::PauliString`].
//!
//! # Examples
//!
//! ```
//! use qdp_linalg::Matrix;
//! use qdp_sim::{DensityMatrix, Observable, StateVector};
//!
//! // Prepare |+⟩ on one qubit and measure Z: expectation 0.
//! let mut psi = StateVector::zero_state(1);
//! psi.apply_gate(&Matrix::hadamard(), &[0]);
//! let rho = DensityMatrix::from_pure(&psi);
//! let z = Observable::pauli_z(1, 0);
//! assert!(z.expectation(&rho).abs() < 1e-12);
//! ```

// Production code routes failures through typed errors or messageful
// panics; bare unwrap/expect is confined to tests.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod channel;
#[cfg(test)]
pub(crate) mod test_support;
pub mod density;
pub mod error;
pub mod fault;
pub mod kernels;
pub(crate) mod lanes;
pub mod measurement;
pub mod observable;
pub mod sampling;
pub mod shots;
pub mod simd;
pub mod state;

pub use batch::BatchedStates;
pub use channel::KrausChannel;
pub use density::DensityMatrix;
pub use error::{HealthConfig, HealthPolicy, QdpError};
pub use measurement::{Measurement, MeasurementBranch};
pub use observable::{Observable, ObservableError};
pub use sampling::{
    chernoff_shots, collapse_with_draw, derive_seed, try_chernoff_shots, ProjectiveObservable,
    ShotSampler, ShotStream, ShotVariates,
};
pub use shots::{
    estimate_batch, AdjointProgram, ParamGate, ShotEngine, TrajProgram, TrajectoryRow, BRANCH_PRUNE,
    SHOT_TILE, TILE_RETRIES,
};
pub use state::StateVector;
