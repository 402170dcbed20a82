//! Partial density operators — the carrier of the paper's semantics.
//!
//! The denotational semantics of `q-while(T)` programs (Fig. 1b of the paper)
//! maps partial density operators to partial density operators: traces may
//! shrink below one (e.g. `abort` outputs the zero operator) because
//! probabilities of measurement branches are folded into the operator itself.

use crate::kernels::{apply_matrix_planes, local_offsets, planes_to_aos, qubit_bit};
use crate::state::StateVector;
use qdp_linalg::{C64, Matrix};

/// A partial density operator `ρ ∈ D(H)` on an `n`-qubit register,
/// i.e. a positive semidefinite operator with `tr(ρ) ≤ 1`.
///
/// # Storage
///
/// Stored like [`StateVector`]: two split `re`/`im` planes holding the
/// row-major `2ⁿ × 2ⁿ` entries, so the gate kernels of [`crate::kernels`]
/// apply directly — the operator is a state over `2n` qubits whose first
/// `n` qubits index rows. `ρ ← MρM†` is [`apply_matrix_planes`] with `M` on
/// the row qubits followed by `M̄` on the column qubits (`targets + n`).
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::DensityMatrix;
///
/// let mut rho = DensityMatrix::pure_zero(1);
/// rho.apply_unitary(&Matrix::hadamard(), &[0]);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12); // still pure
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    /// Real parts of the row-major `2ⁿ × 2ⁿ` entries.
    re: Vec<f64>,
    /// Imaginary parts, same layout.
    im: Vec<f64>,
}

impl DensityMatrix {
    /// The zero operator (output of `abort`, Fig. 1b).
    pub fn zero_operator(n_qubits: usize) -> Self {
        DensityMatrix {
            n_qubits,
            re: vec![0.0; 1 << (2 * n_qubits)],
            im: vec![0.0; 1 << (2 * n_qubits)],
        }
    }

    /// The pure state `|0…0⟩⟨0…0|`.
    pub fn pure_zero(n_qubits: usize) -> Self {
        let mut rho = DensityMatrix::zero_operator(n_qubits);
        rho.re[0] = 1.0;
        rho
    }

    /// The maximally mixed state `I / 2ⁿ`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        let mut rho = DensityMatrix::zero_operator(n_qubits);
        let p = 1.0 / dim as f64;
        for i in 0..dim {
            rho.re[i * dim + i] = p;
        }
        rho
    }

    /// Density operator `|ψ⟩⟨ψ|` of a pure (possibly sub-normalised) state.
    ///
    /// Rows whose amplitude is zero are skipped before the inner loop (the
    /// whole row stays zero), and each surviving row is filled with one
    /// sweep over the state's planes.
    pub fn from_pure(psi: &StateVector) -> Self {
        let (pre, pim) = psi.planes();
        let mut rho = DensityMatrix::zero_operator(psi.num_qubits());
        let dim = pre.len();
        let rows = rho.re.chunks_exact_mut(dim).zip(rho.im.chunks_exact_mut(dim));
        for ((row_re, row_im), (&ar, &ai)) in rows.zip(pre.iter().zip(pim)) {
            if ar == 0.0 && ai == 0.0 {
                continue;
            }
            let a = C64::new(ar, ai);
            for j in 0..dim {
                let z = a * C64::new(pre[j], pim[j]).conj();
                row_re[j] = z.re;
                row_im[j] = z.im;
            }
        }
        rho
    }

    /// Builds a density operator from raw split planes of the row-major
    /// `2ⁿ × 2ⁿ` entries.
    ///
    /// # Panics
    ///
    /// Panics when the planes disagree in length or don't hold `4ⁿ`
    /// entries.
    pub fn from_planes(n_qubits: usize, re: Vec<f64>, im: Vec<f64>) -> Self {
        assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        assert_eq!(re.len(), 1usize << (2 * n_qubits), "planes must hold 2^n x 2^n entries");
        DensityMatrix { n_qubits, re, im }
    }

    /// Builds a density operator from an explicit matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not `2ⁿ × 2ⁿ` for the given qubit count.
    pub fn from_matrix(n_qubits: usize, m: &Matrix) -> Self {
        let dim = 1usize << n_qubits;
        assert!(m.rows() == dim && m.cols() == dim, "matrix must be 2^n x 2^n");
        DensityMatrix {
            n_qubits,
            re: m.as_slice().iter().map(|z| z.re).collect(),
            im: m.as_slice().iter().map(|z| z.im).collect(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2ⁿ`.
    pub fn dim(&self) -> usize {
        1 << self.n_qubits
    }

    /// Entry `ρ_{ij}`.
    pub fn get(&self, i: usize, j: usize) -> C64 {
        let k = i * self.dim() + j;
        C64::new(self.re[k], self.im[k])
    }

    /// Borrows the split `(re, im)` planes of the row-major entries.
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Copies into a [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_data(self.dim(), self.dim(), planes_to_aos(&self.re, &self.im))
    }

    /// Trace — the total probability carried by this partial state.
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.re[i * dim + i]).sum()
    }

    /// Purity `tr(ρ²) / tr(ρ)²` (1 for pure states); `0` for the zero
    /// operator.
    pub fn purity(&self) -> f64 {
        let t = self.trace();
        if t == 0.0 {
            return 0.0;
        }
        let dim = self.dim();
        let mut tr2 = 0.0;
        for i in 0..dim {
            for j in 0..dim {
                tr2 += (self.get(i, j) * self.get(j, i)).re;
            }
        }
        tr2 / (t * t)
    }

    /// Validates `targets` against this operator's qubit count before any
    /// entry moves, and returns their column-qubit twins `targets + n` on
    /// the doubled register.
    ///
    /// # Panics
    ///
    /// Panics when a target is out of range or repeats.
    fn column_targets(&self, targets: &[usize]) -> Vec<usize> {
        let n = self.n_qubits;
        for (i, &t) in targets.iter().enumerate() {
            assert!(t < n, "target qubit {t} out of range for a {n}-qubit density operator");
            assert!(!targets[i + 1..].contains(&t), "duplicate target qubit {t}");
        }
        targets.iter().map(|&t| t + n).collect()
    }

    /// Applies a unitary `U` on `targets`: `ρ ← UρU†` (Fig. 1a, Unitary).
    ///
    /// # Panics
    ///
    /// Panics, leaving `ρ` untouched, when `u` is not `2ᵏ × 2ᵏ` or a target
    /// is out of range or repeats.
    pub fn apply_unitary(&mut self, u: &Matrix, targets: &[usize]) {
        self.apply_conjugation(u, targets);
    }

    /// Applies one (not necessarily unitary) operator conjugation
    /// `ρ ← MρM†` — e.g. a single measurement operator `Em(ρ) = MmρMm†`.
    ///
    /// The right factor `(M†)ᵀ = M̄` is formed by one conjugation instead of
    /// an adjoint *and* a transpose inside the kernel.
    ///
    /// # Panics
    ///
    /// Panics, leaving `ρ` untouched, when `m` is not `2ᵏ × 2ᵏ` or a target
    /// is out of range or repeats.
    pub fn apply_conjugation(&mut self, m: &Matrix, targets: &[usize]) {
        let columns = self.column_targets(targets);
        let n2 = 2 * self.n_qubits;
        apply_matrix_planes(&mut self.re, &mut self.im, n2, m, targets);
        apply_matrix_planes(&mut self.re, &mut self.im, n2, &m.conj(), &columns);
    }

    /// Applies a Kraus channel `ρ ← Σk KkρKk†` on `targets`.
    ///
    /// For repeated application of the same channel prefer
    /// [`crate::KrausChannel::apply`], which caches the conjugated operators.
    ///
    /// # Panics
    ///
    /// Panics, leaving `ρ` untouched, on a mis-sized operator or a target
    /// that is out of range or repeats.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], targets: &[usize]) {
        let conjugates: Vec<Matrix> = kraus.iter().map(Matrix::conj).collect();
        *self = self.kraus_sum(kraus, &conjugates, targets);
    }

    /// `Σk Lk·ρ·Rkᵀ` with `Lk` on the row qubits `targets` and `Rk` on
    /// their column twins — the one routine behind every Kraus sum
    /// (`Rk = L̄k` for a channel, `(Lk, Rk) = (Kk†, Kkᵀ)` for its dual).
    ///
    /// The branches run in parallel once their combined size reaches
    /// [`qdp_par::FORK_MIN_WORK`] amplitudes; the sum is always taken in
    /// operator order, so the result is deterministic under any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics when `lefts` and `rights` differ in length, on a mis-sized
    /// operator, or on a target that is out of range or repeats.
    pub(crate) fn kraus_sum(&self, lefts: &[Matrix], rights: &[Matrix], targets: &[usize]) -> Self {
        assert_eq!(lefts.len(), rights.len(), "one right factor per left factor");
        let columns = self.column_targets(targets);
        let n2 = 2 * self.n_qubits;
        let branch = |k: &usize| -> (Vec<f64>, Vec<f64>) {
            let (mut re, mut im) = (self.re.clone(), self.im.clone());
            apply_matrix_planes(&mut re, &mut im, n2, &lefts[*k], targets);
            apply_matrix_planes(&mut re, &mut im, n2, &rights[*k], &columns);
            (re, im)
        };
        let indices: Vec<usize> = (0..lefts.len()).collect();
        let terms: Vec<(Vec<f64>, Vec<f64>)> =
            if qdp_par::fork_pays(self.re.len() * lefts.len()) {
                qdp_par::par_map(&indices, branch)
            } else {
                indices.iter().map(branch).collect()
            };
        let mut out = DensityMatrix::zero_operator(self.n_qubits);
        for (re, im) in &terms {
            out.add_planes(re, im);
        }
        out
    }

    /// Entry-wise `ρ += (re, im)`.
    fn add_planes(&mut self, re: &[f64], im: &[f64]) {
        for (a, b) in self.re.iter_mut().zip(re) {
            *a += *b;
        }
        for (a, b) in self.im.iter_mut().zip(im) {
            *a += *b;
        }
    }

    /// The initialisation superoperator `E_{q→0}` of the paper
    /// (`q := |0⟩`, Fig. 1b): `ρ ← |0⟩q⟨0|ρ|0⟩q⟨0| + |0⟩q⟨1|ρ|1⟩q⟨0|`.
    pub fn initialize_qubit(&mut self, q: usize) {
        let k0 = Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, 0.0]]); // |0⟩⟨0|
        let k1 = Matrix::from_real_rows(&[&[0.0, 1.0], &[0.0, 0.0]]); // |0⟩⟨1|
        self.apply_kraus(&[k0, k1], &[q]);
    }

    /// Adds another partial density operator (summing measurement branches,
    /// Eq. 3.3).
    ///
    /// # Panics
    ///
    /// Panics when qubit counts differ.
    pub fn add_assign(&mut self, other: &DensityMatrix) {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit-count mismatch");
        self.add_planes(&other.re, &other.im);
    }

    /// Scales by a real factor (e.g. classical probability weight).
    pub fn scale(&mut self, s: f64) {
        for x in self.re.iter_mut().chain(self.im.iter_mut()) {
            *x *= s;
        }
    }

    /// Tensor product `self ⊗ other` (other's qubits appended).
    pub fn tensor(&self, other: &DensityMatrix) -> DensityMatrix {
        let m = self.to_matrix().kron(&other.to_matrix());
        DensityMatrix::from_matrix(self.n_qubits + other.n_qubits, &m)
    }

    /// Prepends a fresh ancilla qubit in state `|0⟩⟨0|` as the new qubit 0 —
    /// the initial state `(|0⟩A⟨0|) ⊗ ρ` of Definition 5.2.
    pub fn prepend_zero_ancilla(&self) -> DensityMatrix {
        let old_dim = self.dim();
        let new_dim = old_dim << 1;
        let mut out = DensityMatrix::zero_operator(self.n_qubits + 1);
        for i in 0..old_dim {
            let (src, dst) = (i * old_dim..(i + 1) * old_dim, i * new_dim..i * new_dim + old_dim);
            out.re[dst.clone()].copy_from_slice(&self.re[src.clone()]);
            out.im[dst].copy_from_slice(&self.im[src]);
        }
        out
    }

    /// Partial trace over `traced` qubits; remaining qubits keep their
    /// relative order.
    ///
    /// # Panics
    ///
    /// Panics on duplicate or out-of-range qubits.
    pub fn partial_trace(&self, traced: &[usize]) -> DensityMatrix {
        let n = self.n_qubits;
        for (i, t) in traced.iter().enumerate() {
            assert!(*t < n, "traced qubit {t} out of range");
            assert!(!traced[i + 1..].contains(t), "duplicate traced qubit {t}");
        }
        let kept: Vec<usize> = (0..n).filter(|q| !traced.contains(q)).collect();
        let m = kept.len();
        let out_dim = 1usize << m;
        let mut out = DensityMatrix::zero_operator(m);

        let kept_masks: Vec<usize> = kept.iter().map(|&q| 1usize << qubit_bit(n, q)).collect();
        let traced_masks: Vec<usize> =
            traced.iter().map(|&q| 1usize << qubit_bit(n, q)).collect();

        // Reduced and environment indices expanded to full indices.
        let kept_offsets = local_offsets(&kept_masks);
        let env_offsets = local_offsets(&traced_masks);
        for (a, &base_row) in kept_offsets.iter().enumerate() {
            for (b, &base_col) in kept_offsets.iter().enumerate() {
                let mut acc = C64::ZERO;
                for &env in &env_offsets {
                    acc += self.get(base_row | env, base_col | env);
                }
                out.re[a * out_dim + b] = acc.re;
                out.im[a * out_dim + b] = acc.im;
            }
        }
        out
    }

    /// Approximate equality within entry-wise tolerance `tol`.
    pub fn approx_eq(&self, other: &DensityMatrix, tol: f64) -> bool {
        let entry = |rho: &DensityMatrix, k: usize| C64::new(rho.re[k], rho.im[k]);
        self.n_qubits == other.n_qubits
            && (0..self.re.len()).all(|k| entry(self, k).approx_eq(entry(other, k), tol))
    }

    /// Validates the partial-density-operator invariants: Hermitian, positive
    /// semidefinite, `tr(ρ) ≤ 1` (all within tolerance `tol`).
    pub fn is_valid(&self, tol: f64) -> bool {
        let m = self.to_matrix();
        m.is_hermitian(tol) && self.trace() <= 1.0 + tol && m.is_psd(tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_zero_is_valid_pure_state() {
        let rho = DensityMatrix::pure_zero(2);
        assert!((rho.trace() - 1.0).abs() < 1e-15);
        assert!((rho.purity() - 1.0).abs() < 1e-15);
        assert!(rho.is_valid(1e-10));
    }

    #[test]
    fn unitary_preserves_trace_and_purity() {
        let mut rho = DensityMatrix::pure_zero(2);
        rho.apply_unitary(&Matrix::hadamard(), &[0]);
        rho.apply_unitary(&Matrix::cnot(), &[0, 1]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_pure_matches_outer_product() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let rho = DensityMatrix::from_pure(&psi);
        // |+⟩⟨+| has all entries 1/2.
        for i in 0..2 {
            for j in 0..2 {
                assert!(rho.get(i, j).approx_eq(C64::real(0.5), 1e-12));
            }
        }
    }

    #[test]
    fn initialize_qubit_resets_to_zero() {
        // Start from |1⟩⟨1| on a single qubit, initialise, expect |0⟩⟨0|.
        let mut rho = DensityMatrix::from_pure(&StateVector::basis_state(1, 1));
        rho.initialize_qubit(0);
        assert!(rho.approx_eq(&DensityMatrix::pure_zero(1), 1e-12));
    }

    #[test]
    fn initialize_qubit_breaks_entanglement_correctly() {
        // Bell state, then initialise qubit 0: result is |0⟩⟨0| ⊗ I/2.
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let mut rho = DensityMatrix::from_pure(&psi);
        rho.initialize_qubit(0);
        let expected = DensityMatrix::pure_zero(1).tensor(&DensityMatrix::maximally_mixed(1));
        assert!(rho.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn partial_trace_of_bell_state_is_maximally_mixed() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let rho = DensityMatrix::from_pure(&psi);
        for traced in [vec![0usize], vec![1usize]] {
            let reduced = rho.partial_trace(&traced);
            assert!(reduced.approx_eq(&DensityMatrix::maximally_mixed(1), 1e-12));
        }
    }

    #[test]
    fn partial_trace_of_product_state() {
        let a = DensityMatrix::from_pure(&StateVector::basis_state(1, 1));
        let b = DensityMatrix::pure_zero(1);
        let ab = a.tensor(&b);
        assert!(ab.partial_trace(&[1]).approx_eq(&a, 1e-12));
        assert!(ab.partial_trace(&[0]).approx_eq(&b, 1e-12));
    }

    #[test]
    fn prepend_zero_ancilla_matches_tensor() {
        let mut rho = DensityMatrix::pure_zero(2);
        rho.apply_unitary(&Matrix::hadamard(), &[1]);
        let expected = DensityMatrix::pure_zero(1).tensor(&rho);
        assert!(rho.prepend_zero_ancilla().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn zero_operator_has_zero_trace() {
        let z = DensityMatrix::zero_operator(2);
        assert_eq!(z.trace(), 0.0);
        assert_eq!(z.purity(), 0.0);
    }

    #[test]
    fn kraus_channel_preserves_trace_when_complete() {
        // Dephasing channel: {|0⟩⟨0|, |1⟩⟨1|} sums to a complete set.
        let k0 = Matrix::basis_projector(2, 0);
        let k1 = Matrix::basis_projector(2, 1);
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let mut rho = DensityMatrix::from_pure(&psi);
        rho.apply_kraus(&[k0, k1], &[0]);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Off-diagonals killed.
        assert!(rho.get(0, 1).abs() < 1e-12);
        assert!((rho.get(0, 0).re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_and_scale_combine_branches() {
        let mut a = DensityMatrix::pure_zero(1);
        a.scale(0.25);
        let mut b = DensityMatrix::from_pure(&StateVector::basis_state(1, 1));
        b.scale(0.75);
        a.add_assign(&b);
        assert!((a.trace() - 1.0).abs() < 1e-15);
        assert!(a.is_valid(1e-9));
        assert!(a.purity() < 1.0);
    }

    #[test]
    fn planes_round_trip_and_match_entries() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::rotation_y(0.8), &[0]);
        psi.apply_gate(&Matrix::rotation_x(0.3), &[1]);
        let rho = DensityMatrix::from_pure(&psi);
        let (re, im) = rho.planes();
        for k in 0..16 {
            assert_eq!(rho.get(k / 4, k % 4), C64::new(re[k], im[k]));
        }
        let back = DensityMatrix::from_planes(2, re.to_vec(), im.to_vec());
        assert_eq!(back, rho);
        assert_eq!(DensityMatrix::from_matrix(2, &rho.to_matrix()), rho);
    }

    #[test]
    #[should_panic(expected = "2^n x 2^n")]
    fn from_planes_rejects_wrong_length() {
        let _ = DensityMatrix::from_planes(1, vec![0.0; 2], vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "target qubit 1 out of range for a 1-qubit density operator")]
    fn column_qubit_target_panics() {
        DensityMatrix::pure_zero(1).apply_unitary(&Matrix::rotation_y(0.3), &[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate target qubit 0")]
    fn duplicate_conjugation_targets_panic() {
        DensityMatrix::pure_zero(2).apply_conjugation(&Matrix::cnot(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "target qubit 2 out of range for a 2-qubit density operator")]
    fn out_of_range_kraus_target_panics() {
        DensityMatrix::pure_zero(2).apply_kraus(&[Matrix::identity(2)], &[2]);
    }

    #[test]
    fn rejected_targets_leave_rho_untouched() {
        let mut rho = DensityMatrix::pure_zero(1);
        let before = rho.clone();
        let ry = Matrix::rotation_y(0.3);
        let out_of_range = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rho.apply_unitary(&ry, &[1]);
        }));
        assert!(out_of_range.is_err());
        assert_eq!(rho, before);
        let wrong_size = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rho.apply_conjugation(&Matrix::cnot(), &[0]);
        }));
        assert!(wrong_size.is_err());
        assert_eq!(rho, before);
        let kraus = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rho.apply_kraus(&[ry.clone(), Matrix::cnot()], &[0]);
        }));
        assert!(kraus.is_err());
        assert_eq!(rho, before);
    }
}
