//! Observables — Hermitian read-outs of quantum systems.
//!
//! Section 5 of the paper: an observable `O = Σm λm|ψm⟩⟨ψm|` packages a
//! projective measurement together with a classical value per outcome; the
//! expectation `tr(Oρ)` is the quantity the paper's *observable semantics*
//! assigns to a program, and the quantity whose derivative the whole scheme
//! computes. The paper normalises observables to `-I ⊑ O ⊑ I` (Eq. 5.2) so
//! Chernoff-style sampling bounds apply; [`Observable::is_bounded`] checks
//! that condition.

use crate::density::DensityMatrix;
use crate::kernels::{apply_matrix_reference, local_offsets, qubit_bit};
use crate::state::StateVector;
use qdp_linalg::{C64, HermitianEigen, Matrix, PauliString};

/// Errors from observable constructors that validate their input instead of
/// panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObservableError {
    /// A Pauli sum was built from zero terms.
    EmptyPauliSum,
    /// Term `term` of a Pauli sum acts on `found` qubits while the first
    /// term fixed the register at `expected` qubits.
    QubitCountMismatch {
        /// Qubit count fixed by the first term.
        expected: usize,
        /// Qubit count of the offending term.
        found: usize,
        /// Zero-based index of the offending term.
        term: usize,
    },
}

impl std::fmt::Display for ObservableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObservableError::EmptyPauliSum => {
                write!(f, "a Pauli sum needs at least one term")
            }
            ObservableError::QubitCountMismatch {
                expected,
                found,
                term,
            } => write!(
                f,
                "Pauli-sum term {term} acts on {found} qubits, but the sum is \
                 over {expected} qubits"
            ),
        }
    }
}

impl std::error::Error for ObservableError {}

/// A Hermitian observable acting on a subset of an `n`-qubit register.
///
/// # Examples
///
/// ```
/// use qdp_sim::{DensityMatrix, Observable};
///
/// // Z on qubit 0 of a 2-qubit register: ⟨Z⟩ = +1 on |00⟩.
/// let z = Observable::pauli_z(2, 0);
/// assert!((z.expectation(&DensityMatrix::pure_zero(2)) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Observable {
    n_qubits: usize,
    targets: Vec<usize>,
    matrix: Matrix,
}

impl Observable {
    /// Creates an observable from a Hermitian matrix on `targets`.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not Hermitian or dimensions mismatch.
    pub fn new(n_qubits: usize, targets: Vec<usize>, matrix: Matrix) -> Self {
        let dim = 1usize << targets.len();
        assert!(
            matrix.rows() == dim && matrix.cols() == dim,
            "observable matrix must be {dim}x{dim} for {} targets",
            targets.len()
        );
        assert!(matrix.is_hermitian(1e-8), "observables must be Hermitian");
        for t in &targets {
            assert!(*t < n_qubits, "target {t} out of range");
        }
        Observable {
            n_qubits,
            targets,
            matrix,
        }
    }

    /// The Pauli-string observable on a full register.
    pub fn from_pauli_string(s: &PauliString) -> Self {
        let n = s.num_qubits();
        Observable {
            n_qubits: n,
            targets: (0..n).collect(),
            matrix: s.matrix(),
        }
    }

    /// A real-weighted sum of Pauli strings `Σk wk·Pk` — the form quantum
    /// many-body Hamiltonians take in VQE applications.
    ///
    /// # Errors
    ///
    /// Returns [`ObservableError::EmptyPauliSum`] for zero terms and
    /// [`ObservableError::QubitCountMismatch`] when a term acts on a
    /// different number of qubits than the first term — combining strings
    /// of different lengths has no well-defined register and must be
    /// rejected, not silently truncated or zero-padded.
    pub fn from_pauli_sum(terms: &[(f64, PauliString)]) -> Result<Self, ObservableError> {
        let n = match terms.first() {
            None => return Err(ObservableError::EmptyPauliSum),
            Some((_, first)) => first.num_qubits(),
        };
        let dim = 1usize << n;
        let mut matrix = Matrix::zeros(dim, dim);
        for (term, (weight, string)) in terms.iter().enumerate() {
            if string.num_qubits() != n {
                return Err(ObservableError::QubitCountMismatch {
                    expected: n,
                    found: string.num_qubits(),
                    term,
                });
            }
            matrix = &matrix + &string.matrix().scale(C64::real(*weight));
        }
        Ok(Observable {
            n_qubits: n,
            targets: (0..n).collect(),
            matrix,
        })
    }

    /// The smallest eigenvalue of the observable — for a Hamiltonian, its
    /// exact ground-state energy (the VQE target).
    pub fn min_eigenvalue(&self) -> f64 {
        HermitianEigen::decompose(&self.matrix).eigenvalues[0]
    }

    /// `Z` on a single qubit.
    pub fn pauli_z(n_qubits: usize, q: usize) -> Self {
        Observable::new(n_qubits, vec![q], Matrix::pauli_z())
    }

    /// The projector `|1⟩⟨1|` on a single qubit — the read-out used by the
    /// paper's classification case study (Section 8.1).
    pub fn projector_one(n_qubits: usize, q: usize) -> Self {
        Observable::new(n_qubits, vec![q], Matrix::basis_projector(2, 1))
    }

    /// The projector `|0⟩⟨0|` on a single qubit.
    pub fn projector_zero(n_qubits: usize, q: usize) -> Self {
        Observable::new(n_qubits, vec![q], Matrix::basis_projector(2, 0))
    }

    /// Register size this observable is defined over.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Target qubits.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// The local matrix on the targets.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Lifts to the full `2ⁿ × 2ⁿ` matrix (tests and duals only — the
    /// expectation path never materialises this).
    pub fn lifted_matrix(&self) -> Matrix {
        crate::kernels::embed(self.n_qubits, &self.matrix, &self.targets)
    }

    /// The extended observable `ZA ⊗ O` of Definition 5.2, where the ancilla
    /// `A` is a freshly prepended qubit 0 (all original targets shift by 1).
    pub fn with_ancilla_z(&self) -> Observable {
        let mut targets = vec![0usize];
        targets.extend(self.targets.iter().map(|t| t + 1));
        Observable {
            n_qubits: self.n_qubits + 1,
            targets,
            matrix: Matrix::pauli_z().kron(&self.matrix),
        }
    }

    /// Checks the paper's normalisation `-I ⊑ O ⊑ I` (Eq. 5.2) within `tol`.
    pub fn is_bounded(&self, tol: f64) -> bool {
        HermitianEigen::decompose(&self.matrix)
            .eigenvalues
            .iter()
            .all(|&l| (-1.0 - tol..=1.0 + tol).contains(&l))
    }

    /// Expectation `tr(Oρ)` against a (partial) density operator.
    ///
    /// # Panics
    ///
    /// Panics when register sizes differ.
    pub fn expectation(&self, rho: &DensityMatrix) -> f64 {
        assert_eq!(
            rho.num_qubits(),
            self.n_qubits,
            "observable register size mismatch"
        );
        let n = self.n_qubits;
        let k = self.targets.len();
        let dim = 1usize << n;
        let masks: Vec<usize> = self
            .targets
            .iter()
            .map(|&t| 1usize << qubit_bit(n, t))
            .collect();
        let mut bits: Vec<usize> = masks.iter().map(|m| m.trailing_zeros() as usize).collect();
        bits.sort_unstable();

        let offsets = local_offsets(&masks);

        // tr(O_lift · ρ) = Σ_{a,b} O[a][b] Σ_env ρ[(b,env),(a,env)], with the
        // 2^(n−k) environment indices enumerated directly by bit-deposit.
        let mut acc = C64::ZERO;
        let (re, im) = rho.planes();
        let n_env = 1usize << (n - k);
        for (a, &fa) in offsets.iter().enumerate() {
            for (b, &fb) in offsets.iter().enumerate() {
                let o_ab = self.matrix.get(a, b);
                if o_ab == C64::ZERO {
                    continue;
                }
                let mut env_sum = C64::ZERO;
                for e in 0..n_env {
                    let env = crate::kernels::deposit_zeros(e, &bits);
                    let idx = (fb | env) * dim + (fa | env);
                    env_sum += C64::new(re[idx], im[idx]);
                }
                acc = acc.mul_add(o_ab, env_sum);
            }
        }
        debug_assert!(acc.im.abs() < 1e-7, "expectation has imaginary part {}", acc.im);
        acc.re
    }

    /// Expectation `⟨ψ|O|ψ⟩` against a pure (possibly sub-normalised) state.
    ///
    /// For observables on at most two targets (every read-out the paper's
    /// pipeline produces, including the `ZA ⊗ O` extension) this is a single
    /// allocation-free pass summing `⟨ψ|` against `O|ψ⟩` orbit by orbit.
    pub fn expectation_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(
            psi.num_qubits(),
            self.n_qubits,
            "observable register size mismatch"
        );
        let (re, im) = psi.planes();
        self.expectation_planes(re, im)
    }

    /// [`expectation_pure`](Self::expectation_pure) on one row's split
    /// `re`/`im` planes — the form the split-plane engine calls. Every
    /// orbit loads its amplitudes from the planes and then runs the
    /// **identical** `mul_add` chain as the AoS oracle form
    /// ([`expectation_amps`](Self::expectation_amps)), so the two layouts
    /// agree bit for bit. The accumulation stays serial: expectations are
    /// conjugate-weighted dot products, not `|amp|²` norms, and their
    /// pinned order predates the lane-split contract.
    ///
    /// # Panics
    ///
    /// Panics when either plane's length is not `2ⁿ`.
    pub fn expectation_planes(&self, re: &[f64], im: &[f64]) -> f64 {
        let dim = 1usize << self.n_qubits;
        assert!(
            re.len() == dim && im.len() == dim,
            "observable register size mismatch"
        );
        if self.targets.len() <= 2 {
            let (off, bits) = self.small_k_layout();
            return self.expectation_small_k_planes(re, im, &off, &bits);
        }
        let mut tre = re.to_vec();
        let mut tim = im.to_vec();
        crate::kernels::apply_matrix_planes(&mut tre, &mut tim, self.n_qubits, &self.matrix, &self.targets);
        let mut acc = C64::ZERO;
        for i in 0..dim {
            let a = C64::new(re[i], im[i]);
            let b = C64::new(tre[i], tim[i]);
            acc = acc.mul_add(a.conj(), b);
        }
        debug_assert!(acc.im.abs() < 1e-7);
        acc.re
    }

    /// [`expectation_pure`](Self::expectation_pure) on a raw interleaved
    /// amplitude slice — the retained **AoS oracle form** the split-plane
    /// read-outs are pinned against. Observables on more than two targets
    /// apply `O` through the reference scan
    /// ([`apply_matrix_reference`]); the scan differs from the plane
    /// kernels at most in the sign of a zero entry, which the `+0.0`-seeded
    /// `mul_add` fold below absorbs, so both forms return the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `amps.len() != 2ⁿ`.
    pub fn expectation_amps(&self, amps: &[C64]) -> f64 {
        assert_eq!(
            amps.len(),
            1usize << self.n_qubits,
            "observable register size mismatch"
        );
        if self.targets.len() <= 2 {
            let (off, bits) = self.small_k_layout();
            return self.expectation_small_k(amps, &off, &bits);
        }
        let mut transformed = amps.to_vec();
        apply_matrix_reference(&mut transformed, self.n_qubits, &self.matrix, &self.targets);
        let acc = amps
            .iter()
            .zip(&transformed)
            .fold(C64::ZERO, |acc, (a, b)| acc.mul_add(a.conj(), *b));
        debug_assert!(acc.im.abs() < 1e-7);
        acc.re
    }

    /// Precomputed index layout of the `k ≤ 2` fast path: the full-index
    /// offset of each local basis state, and the sorted target bit
    /// positions for bit-deposit base enumeration.
    fn small_k_layout(&self) -> ([usize; 4], Vec<usize>) {
        let n = self.n_qubits;
        let k = self.targets.len();
        debug_assert!(k <= 2);
        let masks: Vec<usize> = self
            .targets
            .iter()
            .map(|&t| 1usize << qubit_bit(n, t))
            .collect();
        let mut off = [0usize; 4];
        for (a, slot) in off.iter_mut().enumerate().take(1usize << k) {
            for (j, &mask) in masks.iter().enumerate() {
                if a & (1 << (k - 1 - j)) != 0 {
                    *slot |= mask;
                }
            }
        }
        let mut bits: Vec<usize> = masks.iter().map(|m| m.trailing_zeros() as usize).collect();
        bits.sort_unstable();
        (off, bits)
    }

    /// The `k ≤ 2` expectation inner loop over one amplitude slice, given
    /// a layout from [`small_k_layout`](Self::small_k_layout). Shared by
    /// the single-state and batched read-out paths so their arithmetic can
    /// never drift apart.
    ///
    /// `k = 1` and `k = 2` are fully unrolled — the identical `mul_add`
    /// sequence as the generic loop, so results carry the same bits; only
    /// the per-orbit loop and bounds-check overhead goes away. The generic
    /// loop remains for `k = 0` (trivial observables).
    fn expectation_small_k(&self, amps: &[C64], off: &[usize; 4], bits: &[usize]) -> f64 {
        let n = self.n_qubits;
        let k = self.targets.len();
        let md = self.matrix.as_slice();
        let mut acc = C64::ZERO;
        match k {
            1 => {
                let low = (1usize << bits[0]) - 1;
                let o1 = off[1];
                let (m00, m01, m10, m11) = (md[0], md[1], md[2], md[3]);
                for i in 0..1usize << (n - 1) {
                    let base = ((i & !low) << 1) | (i & low);
                    let s0 = amps[base];
                    let s1 = amps[base | o1];
                    let o_psi = C64::ZERO.mul_add(m00, s0).mul_add(m01, s1);
                    acc = acc.mul_add(s0.conj(), o_psi);
                    let o_psi = C64::ZERO.mul_add(m10, s0).mul_add(m11, s1);
                    acc = acc.mul_add(s1.conj(), o_psi);
                }
            }
            2 => {
                let low0 = (1usize << bits[0]) - 1;
                let low1 = (1usize << bits[1]) - 1;
                for i in 0..1usize << (n - 2) {
                    let mut base = ((i & !low0) << 1) | (i & low0);
                    base = ((base & !low1) << 1) | (base & low1);
                    let s0 = amps[base];
                    let s1 = amps[base | off[1]];
                    let s2 = amps[base | off[2]];
                    let s3 = amps[base | off[3]];
                    let o_psi = C64::ZERO
                        .mul_add(md[0], s0)
                        .mul_add(md[1], s1)
                        .mul_add(md[2], s2)
                        .mul_add(md[3], s3);
                    acc = acc.mul_add(s0.conj(), o_psi);
                    let o_psi = C64::ZERO
                        .mul_add(md[4], s0)
                        .mul_add(md[5], s1)
                        .mul_add(md[6], s2)
                        .mul_add(md[7], s3);
                    acc = acc.mul_add(s1.conj(), o_psi);
                    let o_psi = C64::ZERO
                        .mul_add(md[8], s0)
                        .mul_add(md[9], s1)
                        .mul_add(md[10], s2)
                        .mul_add(md[11], s3);
                    acc = acc.mul_add(s2.conj(), o_psi);
                    let o_psi = C64::ZERO
                        .mul_add(md[12], s0)
                        .mul_add(md[13], s1)
                        .mul_add(md[14], s2)
                        .mul_add(md[15], s3);
                    acc = acc.mul_add(s3.conj(), o_psi);
                }
            }
            _ => {
                let dim_local = 1usize << k;
                for i in 0..1usize << (n - k) {
                    let base = crate::kernels::deposit_zeros(i, bits);
                    let mut s = [C64::ZERO; 4];
                    for (a, slot) in s.iter_mut().enumerate().take(dim_local) {
                        *slot = amps[base | off[a]];
                    }
                    for a in 0..dim_local {
                        let row = a * dim_local;
                        let mut o_psi = C64::ZERO;
                        for b in 0..dim_local {
                            o_psi = o_psi.mul_add(md[row + b], s[b]);
                        }
                        acc = acc.mul_add(s[a].conj(), o_psi);
                    }
                }
            }
        }
        debug_assert!(acc.im.abs() < 1e-7);
        acc.re
    }

    /// The `k ≤ 2` expectation inner loop over one pair of split planes —
    /// a structural transcription of
    /// [`expectation_small_k`](Self::expectation_small_k): amplitudes are
    /// loaded from the planes into `C64`s and fed through the identical
    /// `mul_add` sequence, so results carry the same bits as the AoS
    /// oracle.
    fn expectation_small_k_planes(
        &self,
        re: &[f64],
        im: &[f64],
        off: &[usize; 4],
        bits: &[usize],
    ) -> f64 {
        let n = self.n_qubits;
        let k = self.targets.len();
        let md = self.matrix.as_slice();
        let ld = |i: usize| C64::new(re[i], im[i]);
        let mut acc = C64::ZERO;
        match k {
            1 => {
                let low = (1usize << bits[0]) - 1;
                let o1 = off[1];
                let (m00, m01, m10, m11) = (md[0], md[1], md[2], md[3]);
                for i in 0..1usize << (n - 1) {
                    let base = ((i & !low) << 1) | (i & low);
                    let s0 = ld(base);
                    let s1 = ld(base | o1);
                    let o_psi = C64::ZERO.mul_add(m00, s0).mul_add(m01, s1);
                    acc = acc.mul_add(s0.conj(), o_psi);
                    let o_psi = C64::ZERO.mul_add(m10, s0).mul_add(m11, s1);
                    acc = acc.mul_add(s1.conj(), o_psi);
                }
            }
            2 => {
                let low0 = (1usize << bits[0]) - 1;
                let low1 = (1usize << bits[1]) - 1;
                for i in 0..1usize << (n - 2) {
                    let mut base = ((i & !low0) << 1) | (i & low0);
                    base = ((base & !low1) << 1) | (base & low1);
                    let s0 = ld(base);
                    let s1 = ld(base | off[1]);
                    let s2 = ld(base | off[2]);
                    let s3 = ld(base | off[3]);
                    let o_psi = C64::ZERO
                        .mul_add(md[0], s0)
                        .mul_add(md[1], s1)
                        .mul_add(md[2], s2)
                        .mul_add(md[3], s3);
                    acc = acc.mul_add(s0.conj(), o_psi);
                    let o_psi = C64::ZERO
                        .mul_add(md[4], s0)
                        .mul_add(md[5], s1)
                        .mul_add(md[6], s2)
                        .mul_add(md[7], s3);
                    acc = acc.mul_add(s1.conj(), o_psi);
                    let o_psi = C64::ZERO
                        .mul_add(md[8], s0)
                        .mul_add(md[9], s1)
                        .mul_add(md[10], s2)
                        .mul_add(md[11], s3);
                    acc = acc.mul_add(s2.conj(), o_psi);
                    let o_psi = C64::ZERO
                        .mul_add(md[12], s0)
                        .mul_add(md[13], s1)
                        .mul_add(md[14], s2)
                        .mul_add(md[15], s3);
                    acc = acc.mul_add(s3.conj(), o_psi);
                }
            }
            _ => {
                let dim_local = 1usize << k;
                for i in 0..1usize << (n - k) {
                    let base = crate::kernels::deposit_zeros(i, bits);
                    let mut s = [C64::ZERO; 4];
                    for (a, slot) in s.iter_mut().enumerate().take(dim_local) {
                        *slot = ld(base | off[a]);
                    }
                    for a in 0..dim_local {
                        let row = a * dim_local;
                        let mut o_psi = C64::ZERO;
                        for b in 0..dim_local {
                            o_psi = o_psi.mul_add(md[row + b], s[b]);
                        }
                        acc = acc.mul_add(s[a].conj(), o_psi);
                    }
                }
            }
        }
        debug_assert!(acc.im.abs() < 1e-7);
        acc.re
    }

    /// Per-row expectations `⟨ψr|O|ψr⟩` over a whole [`BatchedStates`](crate::BatchedStates)
    /// block in row order — the batched read-out of
    /// [`expectation_amps`](Self::expectation_amps), with the target masks
    /// and local offsets computed **once** and shared by every row. Each
    /// row's arithmetic is identical to the single-state path, so entries
    /// agree bit-for-bit with per-row calls.
    ///
    /// # Panics
    ///
    /// Panics when register sizes differ.
    pub fn expectation_batch(&self, states: &crate::batch::BatchedStates) -> Vec<f64> {
        let mut out = Vec::new();
        self.expectation_batch_into(states, &mut out);
        out
    }

    /// [`expectation_batch`](Self::expectation_batch) writing into a
    /// reusable buffer (cleared and refilled) — the allocation-free form
    /// batched leaf read-outs call once per group.
    ///
    /// # Panics
    ///
    /// Panics when register sizes differ.
    pub fn expectation_batch_into(&self, states: &crate::batch::BatchedStates, out: &mut Vec<f64>) {
        out.clear();
        if states.is_empty() {
            // `from_states(&[])` has no well-defined register; there is
            // nothing to read out either way.
            return;
        }
        assert_eq!(
            states.num_qubits(),
            self.n_qubits,
            "observable register size mismatch"
        );
        if self.targets.len() > 2 {
            out.extend(
                states
                    .iter_row_planes()
                    .map(|(re, im)| self.expectation_planes(re, im)),
            );
            return;
        }
        let (off, bits) = self.small_k_layout();
        out.extend(
            states
                .iter_row_planes()
                .map(|(re, im)| self.expectation_small_k_planes(re, im, &off, &bits)),
        );
    }

    /// Spectral decomposition into `(eigenvalue, projector)` pairs on the
    /// target qubits — the projective measurement an experiment would run to
    /// sample this observable (Eq. 5.1).
    pub fn to_projective(&self) -> Vec<(f64, Matrix)> {
        HermitianEigen::decompose(&self.matrix).spectral_projectors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_z_expectations_on_basis_states() {
        let z = Observable::pauli_z(1, 0);
        let zero = DensityMatrix::pure_zero(1);
        let one = DensityMatrix::from_pure(&StateVector::basis_state(1, 1));
        assert!((z.expectation(&zero) - 1.0).abs() < 1e-12);
        assert!((z.expectation(&one) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_matches_lifted_trace() {
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 2]);
        psi.apply_gate(&Matrix::rotation_from_involution(&Matrix::pauli_y(), 0.7), &[1]);
        let rho = DensityMatrix::from_pure(&psi);

        let o = Observable::new(
            3,
            vec![2, 0],
            Matrix::pauli_x().kron(&Matrix::pauli_z()),
        );
        let direct = o.expectation(&rho);
        let lifted = o.lifted_matrix().trace_mul(&rho.to_matrix()).re;
        assert!((direct - lifted).abs() < 1e-12);
        let pure = o.expectation_pure(&psi);
        assert!((direct - pure).abs() < 1e-12);
    }

    #[test]
    fn pauli_string_observable() {
        let s: PauliString = "ZZ".parse().unwrap();
        let o = Observable::from_pauli_string(&s);
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        // Bell state: ⟨ZZ⟩ = 1.
        assert!((o.expectation_pure(&psi) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ancilla_extension_matches_kron() {
        let o = Observable::pauli_z(1, 0);
        let ext = o.with_ancilla_z();
        assert_eq!(ext.num_qubits(), 2);
        let expected = Matrix::pauli_z().kron(&Matrix::pauli_z());
        assert!(ext.lifted_matrix().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn boundedness_check() {
        assert!(Observable::pauli_z(1, 0).is_bounded(1e-9));
        assert!(Observable::projector_one(1, 0).is_bounded(1e-9));
        let big = Observable::new(1, vec![0], Matrix::pauli_z().scale(C64::real(2.0)));
        assert!(!big.is_bounded(1e-9));
    }

    #[test]
    fn projective_decomposition_reconstructs() {
        let o = Observable::new(
            2,
            vec![0, 1],
            Matrix::pauli_x().kron(&Matrix::pauli_x()),
        );
        let mut sum = Matrix::zeros(4, 4);
        for (l, p) in o.to_projective() {
            sum = &sum + &p.scale(C64::real(l));
        }
        assert!(sum.approx_eq(o.matrix(), 1e-9));
    }

    #[test]
    fn pauli_sum_builds_hamiltonian() {
        // H = Z0 + 0.5·X1 on two qubits.
        let terms = vec![
            (1.0, "ZI".parse::<PauliString>().unwrap()),
            (0.5, "IX".parse::<PauliString>().unwrap()),
        ];
        let h = Observable::from_pauli_sum(&terms).unwrap();
        assert!((h.expectation_pure(&StateVector::zero_state(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_sum_rejects_mismatched_qubit_counts() {
        let terms = vec![
            (1.0, "ZZ".parse::<PauliString>().unwrap()),
            (0.5, "X".parse::<PauliString>().unwrap()),
        ];
        let err = Observable::from_pauli_sum(&terms).unwrap_err();
        assert_eq!(
            err,
            ObservableError::QubitCountMismatch {
                expected: 2,
                found: 1,
                term: 1,
            }
        );
        // The error message names the offending term and both counts.
        let msg = err.to_string();
        assert!(msg.contains("term 1") && msg.contains("1 qubit") && msg.contains("2 qubits"), "{msg}");
    }

    #[test]
    fn pauli_sum_rejects_empty_input() {
        assert_eq!(
            Observable::from_pauli_sum(&[]).unwrap_err(),
            ObservableError::EmptyPauliSum
        );
    }

    #[test]
    fn plane_expectations_match_aos_oracle_bitwise() {
        // k = 1, k = 2, and a generic k = 3 observable: the split-plane
        // path must reproduce the retained AoS oracle exactly.
        let observables = [
            Observable::pauli_z(4, 2),
            Observable::new(4, vec![3, 1], Matrix::pauli_x().kron(&Matrix::pauli_z())),
            Observable::from_pauli_string(&"XYZI".parse::<PauliString>().unwrap()),
        ];
        for (oi, o) in observables.iter().enumerate() {
            let psi = crate::test_support::awkward_state(4, 7 + oi as u64);
            let (re, im) = psi.planes();
            let plane = o.expectation_planes(re, im);
            let aos = o.expectation_amps(&psi.amplitudes());
            assert_eq!(plane.to_bits(), aos.to_bits(), "observable {oi}");
        }
    }

    #[test]
    fn expectation_of_partial_state_scales() {
        let mut rho = DensityMatrix::pure_zero(1);
        rho.scale(0.5);
        let z = Observable::pauli_z(1, 0);
        assert!((z.expectation(&rho) - 0.5).abs() < 1e-12);
    }
}
