//! Admissible superoperators in Kraus form and their duals.
//!
//! Section 2.2 of the paper: every superoperator `E` has Kraus operators
//! `{Ek}` with `E(ρ) = Σk EkρEk†`, and a Schrödinger–Heisenberg dual `E*`
//! with Kraus form `Σk Ek† ∘ Ek` satisfying `tr(A·E(ρ)) = tr(E*(A)·ρ)`.
//! The dual is what makes the Sequence rule of the differentiation logic
//! tick (Lemma D.2).

use crate::density::DensityMatrix;
use qdp_linalg::{C64, Matrix};

/// A completely positive, trace-non-increasing map given by Kraus operators
/// acting on a fixed subset of qubits.
///
/// Construction precomputes, per Kraus operator `K`, the adjoint `K†`, the
/// conjugate `K̄ = (K†)ᵀ`, and the transpose `Kᵀ` — the exact factors
/// [`apply`](Self::apply) and [`dual_apply`](Self::dual_apply) feed to the
/// plane kernels, so no per-application transpose is ever allocated.
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::{DensityMatrix, KrausChannel};
///
/// let dephase = KrausChannel::new(
///     vec![Matrix::basis_projector(2, 0), Matrix::basis_projector(2, 1)],
///     vec![0],
/// )?;
/// let mut rho = DensityMatrix::pure_zero(1);
/// rho.apply_unitary(&Matrix::hadamard(), &[0]);
/// let rho = dephase.apply(&rho);
/// assert!(rho.get(0, 1).abs() < 1e-12);
/// # Ok::<(), qdp_sim::channel::ChannelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KrausChannel {
    kraus: Vec<Matrix>,
    /// Cached `K†` per operator (left factor of the dual).
    daggers: Vec<Matrix>,
    /// Cached `K̄ = (K†)ᵀ` per operator (pre-transposed right factor of `apply`).
    conjugates: Vec<Matrix>,
    /// Cached `Kᵀ` per operator (pre-transposed right factor of `dual_apply`).
    transposes: Vec<Matrix>,
    targets: Vec<usize>,
}

/// Error constructing a [`KrausChannel`].
#[derive(Clone, Debug, PartialEq)]
pub enum ChannelError {
    /// No Kraus operators were supplied.
    Empty,
    /// Kraus operators have inconsistent or non-square dimensions.
    DimensionMismatch {
        /// The offending dimension found.
        found: (usize, usize),
        /// The dimension required by the target count.
        expected: usize,
    },
    /// `Σ K†K` exceeds the identity: the map would increase trace.
    TraceIncreasing,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Empty => write!(f, "channel needs at least one Kraus operator"),
            ChannelError::DimensionMismatch { found, expected } => write!(
                f,
                "Kraus operator is {}x{}, expected {expected}x{expected}",
                found.0, found.1
            ),
            ChannelError::TraceIncreasing => {
                write!(f, "Kraus operators sum above identity (trace-increasing map)")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

impl KrausChannel {
    /// Creates a channel, validating dimensions and the trace-non-increasing
    /// condition `Σ K†K ⊑ I`.
    ///
    /// # Errors
    ///
    /// Returns a [`ChannelError`] when validation fails.
    pub fn new(kraus: Vec<Matrix>, targets: Vec<usize>) -> Result<Self, ChannelError> {
        if kraus.is_empty() {
            return Err(ChannelError::Empty);
        }
        let expected = 1usize << targets.len();
        for k in &kraus {
            if k.rows() != expected || k.cols() != expected {
                return Err(ChannelError::DimensionMismatch {
                    found: (k.rows(), k.cols()),
                    expected,
                });
            }
        }
        let mut sum = Matrix::zeros(expected, expected);
        for k in &kraus {
            sum = &sum + &k.dagger().mul(k);
        }
        let gap = &Matrix::identity(expected) - &sum;
        if !gap.is_psd(1e-8) {
            return Err(ChannelError::TraceIncreasing);
        }
        Ok(KrausChannel::from_parts(kraus, targets))
    }

    /// Builds the channel and its per-operator caches (no validation).
    fn from_parts(kraus: Vec<Matrix>, targets: Vec<usize>) -> Self {
        let daggers: Vec<Matrix> = kraus.iter().map(Matrix::dagger).collect();
        let conjugates: Vec<Matrix> = kraus.iter().map(Matrix::conj).collect();
        let transposes: Vec<Matrix> = kraus.iter().map(Matrix::transpose).collect();
        KrausChannel {
            kraus,
            daggers,
            conjugates,
            transposes,
            targets,
        }
    }

    /// The unitary channel `U ∘ U†`.
    ///
    /// # Panics
    ///
    /// Panics when `u` is not unitary.
    pub fn unitary(u: Matrix, targets: Vec<usize>) -> Self {
        assert!(u.is_unitary(1e-8), "KrausChannel::unitary needs a unitary operator");
        KrausChannel::from_parts(vec![u], targets)
    }

    /// The initialisation channel `E_{q→0}` (Fig. 1b of the paper).
    pub fn initialize_zero(q: usize) -> Self {
        KrausChannel::from_parts(
            vec![
                Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
                Matrix::from_real_rows(&[&[0.0, 1.0], &[0.0, 0.0]]),
            ],
            vec![q],
        )
    }

    /// Single-qubit depolarising noise: with probability `p` the qubit is
    /// replaced by the maximally mixed state.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn depolarizing(q: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let s0 = (1.0 - 3.0 * p / 4.0).sqrt();
        let sp = (p / 4.0).sqrt();
        KrausChannel::from_parts(
            vec![
                Matrix::identity(2).scale(C64::real(s0)),
                Matrix::pauli_x().scale(C64::real(sp)),
                Matrix::pauli_y().scale(C64::real(sp)),
                Matrix::pauli_z().scale(C64::real(sp)),
            ],
            vec![q],
        )
    }

    /// Single-qubit bit-flip noise: `X` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn bit_flip(q: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        KrausChannel::from_parts(
            vec![
                Matrix::identity(2).scale(C64::real((1.0 - p).sqrt())),
                Matrix::pauli_x().scale(C64::real(p.sqrt())),
            ],
            vec![q],
        )
    }

    /// Single-qubit phase-flip (dephasing) noise: `Z` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn phase_flip(q: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        KrausChannel::from_parts(
            vec![
                Matrix::identity(2).scale(C64::real((1.0 - p).sqrt())),
                Matrix::pauli_z().scale(C64::real(p.sqrt())),
            ],
            vec![q],
        )
    }

    /// Single-qubit amplitude damping with decay probability `gamma`
    /// (spontaneous emission towards `|0⟩`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ gamma ≤ 1`.
    pub fn amplitude_damping(q: usize, gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0,1]");
        let k0 = Matrix::from_rows(&[
            vec![C64::ONE, C64::ZERO],
            vec![C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ]);
        let k1 = Matrix::from_rows(&[
            vec![C64::ZERO, C64::real(gamma.sqrt())],
            vec![C64::ZERO, C64::ZERO],
        ]);
        KrausChannel::from_parts(vec![k0, k1], vec![q])
    }

    /// Borrows the Kraus operators.
    pub fn kraus_operators(&self) -> &[Matrix] {
        &self.kraus
    }

    /// Borrows the target qubits.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Applies the channel: `ρ ↦ Σk KρK†`.
    ///
    /// Uses the cached conjugates (no per-call transpose allocation) and
    /// evaluates the Kraus branches in parallel once their combined size
    /// reaches [`qdp_par::FORK_MIN_WORK`] amplitudes; the branch
    /// sum is always taken in operator order, so the result is deterministic
    /// under any thread count.
    ///
    /// # Panics
    ///
    /// Panics when a target is out of range for `rho` (checked before any
    /// branch runs).
    pub fn apply(&self, rho: &DensityMatrix) -> DensityMatrix {
        rho.kraus_sum(&self.kraus, &self.conjugates, &self.targets)
    }

    /// Applies the Schrödinger–Heisenberg dual to a full-space observable
    /// matrix: `O ↦ Σk K†OK`.
    ///
    /// # Panics
    ///
    /// Panics when `o` is not `2ⁿ × 2ⁿ` for the given register size, or a
    /// target is out of range for it.
    pub fn dual_apply(&self, o: &Matrix, n_qubits: usize) -> Matrix {
        let dim = 1usize << n_qubits;
        assert!(o.rows() == dim && o.cols() == dim, "observable must be 2^n x 2^n");
        DensityMatrix::from_matrix(n_qubits, o)
            .kraus_sum(&self.daggers, &self.transposes, &self.targets)
            .to_matrix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;

    #[test]
    fn unitary_channel_matches_direct_conjugation() {
        let ch = KrausChannel::unitary(Matrix::hadamard(), vec![0]);
        let rho = DensityMatrix::pure_zero(2);
        let out = ch.apply(&rho);
        let mut expected = rho.clone();
        expected.apply_unitary(&Matrix::hadamard(), &[0]);
        assert!(out.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn duality_identity_holds() {
        // tr(A·E(ρ)) = tr(E*(A)·ρ) for a dephasing channel and random-ish data.
        let ch = KrausChannel::new(
            vec![Matrix::basis_projector(2, 0), Matrix::basis_projector(2, 1)],
            vec![1],
        )
        .unwrap();
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let rho = DensityMatrix::from_pure(&psi);

        let a = Matrix::pauli_x().kron(&Matrix::pauli_z());
        let lhs = a.trace_mul(&ch.apply(&rho).to_matrix());
        let dual = ch.dual_apply(&a, 2);
        let rhs = dual.trace_mul(&rho.to_matrix());
        assert!(lhs.approx_eq(rhs, 1e-12));
    }

    #[test]
    fn initialize_zero_channel_matches_density_method() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[1]);
        let rho = DensityMatrix::from_pure(&psi);
        let ch = KrausChannel::initialize_zero(1);
        let out = ch.apply(&rho);
        let mut expected = rho.clone();
        expected.initialize_qubit(1);
        assert!(out.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn rejects_trace_increasing_sets() {
        let too_big = Matrix::identity(2).scale(C64::real(1.5));
        let err = KrausChannel::new(vec![too_big], vec![0]).unwrap_err();
        assert_eq!(err, ChannelError::TraceIncreasing);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert_eq!(KrausChannel::new(vec![], vec![0]).unwrap_err(), ChannelError::Empty);
        let err = KrausChannel::new(vec![Matrix::identity(2)], vec![0, 1]).unwrap_err();
        assert!(matches!(err, ChannelError::DimensionMismatch { .. }));
    }

    #[test]
    fn noise_channels_preserve_trace() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let rho = DensityMatrix::from_pure(&psi);
        for ch in [
            KrausChannel::depolarizing(0, 0.3),
            KrausChannel::bit_flip(0, 0.2),
            KrausChannel::phase_flip(0, 0.7),
            KrausChannel::amplitude_damping(0, 0.4),
        ] {
            let out = ch.apply(&rho);
            assert!((out.trace() - 1.0).abs() < 1e-12);
            assert!(out.is_valid(1e-8));
        }
    }

    #[test]
    fn full_depolarizing_yields_maximally_mixed() {
        let rho = DensityMatrix::pure_zero(1);
        let out = KrausChannel::depolarizing(0, 1.0).apply(&rho);
        assert!(out.approx_eq(&DensityMatrix::maximally_mixed(1), 1e-12));
    }

    #[test]
    fn amplitude_damping_decays_towards_zero_state() {
        let one = DensityMatrix::from_pure(&StateVector::basis_state(1, 1));
        let out = KrausChannel::amplitude_damping(0, 1.0).apply(&one);
        assert!(out.approx_eq(&DensityMatrix::pure_zero(1), 1e-12));
        // Partial damping mixes.
        let out = KrausChannel::amplitude_damping(0, 0.25).apply(&one);
        assert!((out.get(0, 0).re - 0.25).abs() < 1e-12);
        assert!((out.get(1, 1).re - 0.75).abs() < 1e-12);
    }

    #[test]
    fn phase_flip_kills_coherences_at_half() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let rho = DensityMatrix::from_pure(&psi);
        let out = KrausChannel::phase_flip(0, 0.5).apply(&rho);
        assert!(out.get(0, 1).abs() < 1e-12);
        assert!((out.get(0, 0).re - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_noise_probability_panics() {
        let _ = KrausChannel::bit_flip(0, 1.5);
    }

    #[test]
    fn trace_non_increasing_on_states() {
        // A strictly sub-unital channel (single projector Kraus op).
        let ch = KrausChannel::new(vec![Matrix::basis_projector(2, 0)], vec![0]).unwrap();
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let rho = DensityMatrix::from_pure(&psi);
        let out = ch.apply(&rho);
        assert!(out.trace() <= rho.trace() + 1e-12);
        assert!((out.trace() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target qubit 2 out of range for a 2-qubit density operator")]
    fn apply_rejects_out_of_range_target() {
        let _ = KrausChannel::depolarizing(2, 0.1).apply(&DensityMatrix::pure_zero(2));
    }

    #[test]
    #[should_panic(expected = "target qubit 1 out of range for a 1-qubit density operator")]
    fn dual_apply_rejects_out_of_range_target() {
        let _ = KrausChannel::bit_flip(1, 0.1).dual_apply(&Matrix::pauli_z(), 1);
    }

    #[test]
    fn dual_matches_dense_sum() {
        let ch = KrausChannel::amplitude_damping(1, 0.3);
        let o = Matrix::pauli_x().kron(&Matrix::pauli_y()).scale(C64::new(0.5, 0.0));
        let mut expected = Matrix::zeros(4, 4);
        for k in ch.kraus_operators() {
            let lifted = crate::kernels::embed(2, k, &[1]);
            expected = &expected + &lifted.dagger().mul(&o).mul(&lifted);
        }
        assert!(ch.dual_apply(&o, 2).approx_eq(&expected, 1e-12));
    }
}
