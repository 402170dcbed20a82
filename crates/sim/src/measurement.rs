//! Quantum measurements `{Mm}` and branch enumeration.
//!
//! Section 2.3 of the paper: performing `{Mm}` on `ρ` yields outcome `m` with
//! probability `pm = tr(MmρMm†)` and post-measurement state `MmρMm†/pm`. The
//! language semantics works with the *unnormalised* branches `Em(ρ) = MmρMm†`
//! so probabilities ride along inside the partial density operators.

use crate::density::DensityMatrix;
use crate::kernels::{apply_matrix_planes, qubit_bit};
use crate::lanes;
use crate::state::StateVector;
use qdp_linalg::Matrix;

/// One row's bucketed lane-split `|amp|²` sweep over split planes: each
/// constant-outcome **run** of indices feeds its bucket's partials through
/// [`lanes::add_run`], runs in ascending index order, so every bucket gets
/// exactly the bits [`lanes::sum_norm_sqr`] produces over that bucket's
/// members zero-padded to the whole row — which is precisely the collapsed
/// branch's norm. `out` must hold `2^masks.len()` slots.
fn fast_bucket_probs(re: &[f64], im: &[f64], masks: &[usize], out: &mut [f64]) {
    match masks.len() {
        0 => out[0] = lanes::sum_norm_sqr(re, im),
        1 => {
            // Outcome flips every `m` indices: run `t` is local outcome
            // `t & 1`.
            let m = masks[0];
            let mut acc = [[0.0f64; lanes::LANES]; 2];
            for t in 0..re.len() / m {
                lanes::add_run(&mut acc[t & 1], re, im, t * m, m);
            }
            out[0] = lanes::combine(acc[0]);
            out[1] = lanes::combine(acc[1]);
        }
        _ => {
            // Both outcome bits are constant over runs of the smaller mask.
            let (m0, m1) = (masks[0], masks[1]);
            let run = m0.min(m1);
            let mut acc = [[0.0f64; lanes::LANES]; 4];
            for t in 0..re.len() / run {
                let s = t * run;
                let local = (usize::from(s & m0 != 0) << 1) | usize::from(s & m1 != 0);
                lanes::add_run(&mut acc[local], re, im, s, run);
            }
            for (slot, a) in out.iter_mut().zip(acc.iter()) {
                *slot = lanes::combine(*a);
            }
        }
    }
}

/// Appends one row's masked-copy collapse to the destination planes:
/// members copied untouched, non-members multiplied by the real scalar
/// `0.0` component-wise — the identical IEEE signed zeros the diagonal
/// projector kernel produces.
#[inline]
fn collapse_row_planes(
    re: &[f64],
    im: &[f64],
    masks: &[usize],
    outcome: usize,
    out_re: &mut Vec<f64>,
    out_im: &mut Vec<f64>,
) {
    match masks.len() {
        0 => {
            out_re.extend_from_slice(re);
            out_im.extend_from_slice(im);
        }
        1 => {
            let m = masks[0];
            let member = if outcome == 1 { m } else { 0 };
            let keep = |(i, &a): (usize, &f64)| if i & m == member { a } else { a * 0.0 };
            out_re.extend(re.iter().enumerate().map(keep));
            out_im.extend(im.iter().enumerate().map(keep));
        }
        _ => {
            let (m0, m1) = (masks[0], masks[1]);
            let keep = |(i, &a): (usize, &f64)| {
                let local = (usize::from(i & m0 != 0) << 1) | usize::from(i & m1 != 0);
                if local == outcome {
                    a
                } else {
                    a * 0.0
                }
            };
            out_re.extend(re.iter().enumerate().map(keep));
            out_im.extend(im.iter().enumerate().map(keep));
        }
    }
}

/// A quantum measurement: operators `{Mm}` on a subset of qubits with
/// `Σm Mm†Mm = I`.
///
/// # Examples
///
/// ```
/// use qdp_sim::{DensityMatrix, Measurement};
///
/// let m = Measurement::computational(vec![0]);
/// let rho = DensityMatrix::pure_zero(1);
/// let branches = m.branches(&rho);
/// assert!((branches[0].trace() - 1.0).abs() < 1e-12); // outcome 0 certain
/// assert!(branches[1].trace() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Measurement {
    operators: Vec<Matrix>,
    targets: Vec<usize>,
    /// Whether `operators` are exactly the computational-basis projectors
    /// `{|m⟩⟨m|}` in outcome order — the shape every `case`/`init`
    /// measurement in the language has, and the gate for the
    /// *selected-branch* fast paths ([`branch_probabilities_pure`],
    /// [`collapse_pure`]): probabilities from one bucketed `|amp|²` pass
    /// and a single materialised branch, instead of applying every
    /// operator.
    ///
    /// [`branch_probabilities_pure`]: Measurement::branch_probabilities_pure
    /// [`collapse_pure`]: Measurement::collapse_pure
    computational: bool,
}

/// One unnormalised branch of a pure-state measurement.
#[derive(Clone, Debug)]
pub struct MeasurementBranch {
    /// The measurement outcome index `m`.
    pub outcome: usize,
    /// The branch probability `pm` (relative to the incoming state's norm).
    pub probability: f64,
    /// The unnormalised post-measurement state `Mm|ψ⟩`.
    pub state: StateVector,
}

impl Measurement {
    /// Creates a measurement from explicit operators.
    ///
    /// # Panics
    ///
    /// Panics when dimensions are inconsistent or the completeness relation
    /// `Σ M†M = I` fails beyond `1e-8`.
    pub fn new(operators: Vec<Matrix>, targets: Vec<usize>) -> Self {
        assert!(!operators.is_empty(), "measurement needs at least one operator");
        let dim = 1usize << targets.len();
        let mut sum = Matrix::zeros(dim, dim);
        for m in &operators {
            assert!(
                m.rows() == dim && m.cols() == dim,
                "measurement operator must be {dim}x{dim}"
            );
            sum = &sum + &m.dagger().mul(m);
        }
        assert!(
            sum.approx_eq(&Matrix::identity(dim), 1e-8),
            "measurement operators must satisfy completeness Σ M†M = I"
        );
        let computational = operators.len() == dim
            && operators
                .iter()
                .enumerate()
                .all(|(m, op)| *op == Matrix::basis_projector(dim, m));
        Measurement {
            operators,
            targets,
            computational,
        }
    }

    /// The computational-basis measurement on `targets`: outcome `m` is the
    /// basis state `|m⟩` of the measured sub-register (target order gives
    /// bit significance, first target most significant).
    pub fn computational(targets: Vec<usize>) -> Self {
        let dim = 1usize << targets.len();
        let operators = (0..dim).map(|k| Matrix::basis_projector(dim, k)).collect();
        Measurement {
            operators,
            targets,
            computational: true,
        }
    }

    /// A two-outcome measurement `{M0, M1}` as used by `while` guards.
    ///
    /// # Panics
    ///
    /// Panics when completeness fails.
    pub fn two_outcome(m0: Matrix, m1: Matrix, targets: Vec<usize>) -> Self {
        Measurement::new(vec![m0, m1], targets)
    }

    /// Number of outcomes.
    pub fn num_outcomes(&self) -> usize {
        self.operators.len()
    }

    /// Borrows the measurement operators.
    pub fn operators(&self) -> &[Matrix] {
        &self.operators
    }

    /// Borrows the measured qubits.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// All unnormalised branches `Em(ρ) = MmρMm†` (the superoperators of the
    /// paper's operational semantics, Fig. 1a).
    pub fn branches(&self, rho: &DensityMatrix) -> Vec<DensityMatrix> {
        self.operators
            .iter()
            .map(|m| {
                let mut branch = rho.clone();
                branch.apply_conjugation(m, &self.targets);
                branch
            })
            .collect()
    }

    /// One branch `Em(ρ)`.
    ///
    /// # Panics
    ///
    /// Panics when `outcome` is out of range.
    pub fn branch(&self, rho: &DensityMatrix, outcome: usize) -> DensityMatrix {
        let mut out = rho.clone();
        out.apply_conjugation(&self.operators[outcome], &self.targets);
        out
    }

    /// All branches of a pure state, with probabilities.
    ///
    /// This materialises **every** branch state; it is the reference oracle
    /// the selected-branch fast paths
    /// ([`branch_probabilities_pure`](Self::branch_probabilities_pure) +
    /// [`collapse_pure`](Self::collapse_pure)) are pinned against bitwise.
    pub fn branches_pure(&self, psi: &StateVector) -> Vec<MeasurementBranch> {
        self.operators
            .iter()
            .enumerate()
            .map(|(outcome, m)| {
                let state = psi.with_gate(m, &self.targets);
                MeasurementBranch {
                    outcome,
                    probability: state.norm_sqr(),
                    state,
                }
            })
            .collect()
    }

    /// Whether the fast single-pass paths apply: computational-basis
    /// operators on at most two targets (the only shapes the basis
    /// projectors route through the diagonal kernel, whose arithmetic the
    /// fast paths replicate bit for bit).
    fn fast_computational(&self) -> bool {
        self.computational && self.targets.len() <= 2
    }

    /// The local outcome masks of a fast-path (≤ 2 target) computational
    /// measurement against an `n`-qubit register, allocation-free: bit `j`
    /// of the full index contributes bit `k−1−j` of the outcome (first
    /// target most significant, matching
    /// [`Measurement::computational`]'s operator order). Returns the mask
    /// array and the target count `k`.
    fn outcome_masks(&self, n: usize) -> ([usize; 2], usize) {
        let k = self.targets.len();
        debug_assert!(k <= 2, "fast masks are only built on the fast path");
        let mut masks = [0usize; 2];
        for (j, &t) in self.targets.iter().enumerate() {
            masks[j] = 1usize << qubit_bit(n, t);
        }
        (masks, k)
    }

    /// The branch probabilities `pm = ‖Mm|ψ⟩‖²` of every outcome, without
    /// keeping the branch states: [`branch_probabilities_block`] on a
    /// block of one row.
    ///
    /// For computational measurements on ≤ 2 targets this is a **single
    /// bucketed `|amp|²` pass** over the state: each amplitude contributes
    /// to exactly one outcome bucket, in index order under the lane-split
    /// reduction contract of the `lanes` module — the identical values on the
    /// identical lane partials as `‖Mm|ψ⟩‖²` of the materialised branch
    /// (non-members contribute exact `+0.0` there), so the results equal
    /// [`branches_pure`](Self::branches_pure)'s probabilities **bit for
    /// bit**. Other measurements fall back to applying each operator.
    ///
    /// [`branch_probabilities_block`]: Self::branch_probabilities_block
    pub fn branch_probabilities_pure(&self, psi: &StateVector) -> Vec<f64> {
        let mut probs = Vec::new();
        let (re, im) = psi.planes();
        self.branch_probabilities_block(psi.num_qubits(), re, im, &mut probs);
        probs
    }

    /// The branch probabilities of **every row** of a contiguous
    /// `rows × 2ⁿ` pair of split amplitude planes, from **one bucketed
    /// lane-split `|amp|²` sweep** over the whole block: `table` is cleared
    /// and refilled with `rows × num_outcomes` entries, row `r`'s
    /// probabilities at `table[r·outcomes .. (r+1)·outcomes]`.
    ///
    /// Each row's buckets accumulate on the global-index lane partials of
    /// that row alone, so every row's entries equal
    /// [`branches_pure`](Self::branches_pure)'s probabilities on that row
    /// **bit for bit**; the block merely amortises the outcome-mask setup
    /// and the dispatch over the group. The run-based sweep walks both
    /// planes contiguously, which is what lets the autovectorizer keep the
    /// four lane partials in one vector register. Non-computational
    /// measurements apply each operator per row through one shared pair of
    /// scratch planes.
    ///
    /// # Panics
    ///
    /// Panics when the planes differ in length or don't hold whole rows.
    pub fn branch_probabilities_block(
        &self,
        n_qubits: usize,
        re: &[f64],
        im: &[f64],
        table: &mut Vec<f64>,
    ) {
        let dim = 1usize << n_qubits;
        assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        assert_eq!(re.len() % dim, 0, "block must hold whole rows");
        let outcomes = self.num_outcomes();
        let rows = re.len() / dim;
        table.clear();
        table.resize(rows * outcomes, 0.0);
        if !self.fast_computational() {
            let mut scratch_re: Vec<f64> = Vec::with_capacity(dim);
            let mut scratch_im: Vec<f64> = Vec::with_capacity(dim);
            for ((row_re, row_im), buckets) in re
                .chunks_exact(dim)
                .zip(im.chunks_exact(dim))
                .zip(table.chunks_exact_mut(outcomes))
            {
                for (m, op) in self.operators.iter().enumerate() {
                    scratch_re.clear();
                    scratch_re.extend_from_slice(row_re);
                    scratch_im.clear();
                    scratch_im.extend_from_slice(row_im);
                    apply_matrix_planes(
                        &mut scratch_re,
                        &mut scratch_im,
                        n_qubits,
                        op,
                        &self.targets,
                    );
                    buckets[m] = lanes::sum_norm_sqr(&scratch_re, &scratch_im);
                }
            }
            return;
        }
        let (masks, k) = self.outcome_masks(n_qubits);
        for ((row_re, row_im), buckets) in re
            .chunks_exact(dim)
            .zip(im.chunks_exact(dim))
            .zip(table.chunks_exact_mut(outcomes))
        {
            fast_bucket_probs(row_re, row_im, &masks[..k], buckets);
        }
    }

    /// One unnormalised branch `Mm|ψ⟩` of a pure state — the
    /// selected-branch half of the fast collapse: callers that already know
    /// the outcome (from [`branch_probabilities_pure`](Self::branch_probabilities_pure)
    /// and a draw, or from exact branch enumeration) materialise only this
    /// branch instead of all of them. It is
    /// [`collapse_block_into`](Self::collapse_block_into) on a block of one
    /// row.
    ///
    /// For computational measurements on ≤ 2 targets the projector is
    /// applied as a masked copy replicating the diagonal kernel's
    /// arithmetic exactly (members untouched, non-members multiplied
    /// component-wise by `0.0`, preserving IEEE signed zeros) — the result
    /// equals `psi.with_gate(&operators[outcome], targets)` **bit for
    /// bit**; other measurements go through that very kernel.
    ///
    /// # Panics
    ///
    /// Panics when `outcome` is out of range.
    pub fn collapse_pure(&self, psi: &StateVector, outcome: usize) -> StateVector {
        let n = psi.num_qubits();
        let mut out_re = Vec::new();
        let mut out_im = Vec::new();
        let (re, im) = psi.planes();
        self.collapse_block_into(n, re, im, &[0], outcome, &mut out_re, &mut out_im);
        StateVector::from_planes(n, out_re, out_im)
    }

    /// Materialises outcome `outcome`'s unnormalised branch of the
    /// **selected rows** of a contiguous `rows × 2ⁿ` pair of split
    /// amplitude planes: one strided pass over the surviving source rows
    /// (in `rows` order), appending each collapsed row to the destination
    /// planes — how the block-level regrouping fills one outcome's entire
    /// sub-batch with a single call instead of one call per row.
    ///
    /// Every selected row gets the masked copy of
    /// [`collapse_pure`](Self::collapse_pure) (non-members multiplied
    /// component-wise by `0.0`, preserving the projector kernel's IEEE
    /// signed zeros) or, for general operators, the operator applied to a
    /// copy of the row, so each destination row equals
    /// [`branches_pure`](Self::branches_pure)'s state on that row **bit for
    /// bit**.
    ///
    /// # Panics
    ///
    /// Panics when `outcome` is out of range, the planes differ in length
    /// or don't hold whole rows, or a selected row index is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn collapse_block_into(
        &self,
        n_qubits: usize,
        re: &[f64],
        im: &[f64],
        rows: &[usize],
        outcome: usize,
        out_re: &mut Vec<f64>,
        out_im: &mut Vec<f64>,
    ) {
        assert!(outcome < self.num_outcomes(), "outcome {outcome} out of range");
        let dim = 1usize << n_qubits;
        assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        assert_eq!(re.len() % dim, 0, "block must hold whole rows");
        if !self.fast_computational() {
            for &r in rows {
                let start = out_re.len();
                out_re.extend_from_slice(&re[r * dim..(r + 1) * dim]);
                out_im.extend_from_slice(&im[r * dim..(r + 1) * dim]);
                apply_matrix_planes(
                    &mut out_re[start..],
                    &mut out_im[start..],
                    n_qubits,
                    &self.operators[outcome],
                    &self.targets,
                );
            }
            return;
        }
        // Same per-block target-count dispatch as the probability sweep;
        // the copy itself is identical amplitude for amplitude (`extend`
        // from an exact-size iterator skips the per-push length updates).
        let (masks, k) = self.outcome_masks(n_qubits);
        out_re.reserve(rows.len() * dim);
        out_im.reserve(rows.len() * dim);
        for &r in rows {
            collapse_row_planes(
                &re[r * dim..(r + 1) * dim],
                &im[r * dim..(r + 1) * dim],
                &masks[..k],
                outcome,
                out_re,
                out_im,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computational_measurement_is_complete() {
        // Constructor would panic otherwise; exercise multi-qubit case.
        let m = Measurement::computational(vec![0, 2]);
        assert_eq!(m.num_outcomes(), 4);
    }

    #[test]
    fn branch_probabilities_sum_to_one() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let m = Measurement::computational(vec![0]);
        let branches = m.branches_pure(&psi);
        let total: f64 = branches.iter().map(|b| b.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((branches[0].probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measuring_bell_state_correlates_qubits() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let m = Measurement::computational(vec![0]);
        for b in m.branches_pure(&psi) {
            if b.probability > 0.0 {
                // After observing qubit 0 = m, qubit 1 must equal m too.
                let normalised = {
                    let mut s = b.state.clone();
                    s.scale(qdp_linalg::C64::real(1.0 / b.probability.sqrt()));
                    s
                };
                assert_eq!(normalised.classical_bit(1), Some(b.outcome == 1));
            }
        }
    }

    #[test]
    fn density_branches_match_pure_branches() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[1]);
        let rho = DensityMatrix::from_pure(&psi);
        let m = Measurement::computational(vec![1]);
        let dense = m.branches(&rho);
        let pure = m.branches_pure(&psi);
        for (d, p) in dense.iter().zip(&pure) {
            assert!((d.trace() - p.probability).abs() < 1e-12);
            assert!(d.approx_eq(&DensityMatrix::from_pure(&p.state), 1e-12));
        }
    }

    #[test]
    fn branches_preserve_total_trace() {
        let mut rho = DensityMatrix::pure_zero(3);
        rho.apply_unitary(&Matrix::hadamard(), &[0]);
        rho.apply_unitary(&Matrix::cnot(), &[0, 2]);
        let m = Measurement::computational(vec![0, 2]);
        let total: f64 = m.branches(&rho).iter().map(|b| b.trace()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "completeness")]
    fn incomplete_operators_panic() {
        let _ = Measurement::new(vec![Matrix::basis_projector(2, 0)], vec![0]);
    }

    use crate::test_support::awkward_state;

    #[test]
    fn fast_probabilities_match_branches_pure_bitwise() {
        for (targets, seed) in [(vec![0usize], 3u64), (vec![2], 4), (vec![1, 3], 5), (vec![3, 0], 6)] {
            let m = Measurement::computational(targets.clone());
            let psi = awkward_state(4, seed);
            let fast = m.branch_probabilities_pure(&psi);
            let oracle = m.branches_pure(&psi);
            assert_eq!(fast.len(), oracle.len());
            for (p, b) in fast.iter().zip(&oracle) {
                assert_eq!(p.to_bits(), b.probability.to_bits(), "targets {targets:?}");
            }
        }
    }

    #[test]
    fn fast_collapse_matches_with_gate_bitwise() {
        for (targets, seed) in [(vec![0usize], 11u64), (vec![2], 12), (vec![0, 2], 13), (vec![3, 1], 14)] {
            let m = Measurement::computational(targets.clone());
            let psi = awkward_state(4, seed);
            for outcome in 0..m.num_outcomes() {
                let fast = m.collapse_pure(&psi, outcome);
                let oracle = psi.with_gate(&m.operators()[outcome], m.targets());
                // Bit equality including zero signs: the masked copy must
                // replicate the diagonal kernel exactly.
                let fast_bits: Vec<(u64, u64)> = fast
                    .amplitudes()
                    .iter()
                    .map(|a| (a.re.to_bits(), a.im.to_bits()))
                    .collect();
                let oracle_bits: Vec<(u64, u64)> = oracle
                    .amplitudes()
                    .iter()
                    .map(|a| (a.re.to_bits(), a.im.to_bits()))
                    .collect();
                assert_eq!(fast_bits, oracle_bits, "targets {targets:?} outcome {outcome}");
            }
        }
    }

    #[test]
    fn general_measurements_use_operator_application() {
        // A non-computational two-outcome measurement (X-basis): the fast
        // flag must be off and both paths still agree with branches_pure.
        let h = Matrix::hadamard();
        let p_plus = h.mul(&Matrix::basis_projector(2, 0)).mul(&h);
        let p_minus = h.mul(&Matrix::basis_projector(2, 1)).mul(&h);
        let m = Measurement::two_outcome(p_plus, p_minus, vec![0]);
        assert!(!m.computational);
        let psi = awkward_state(2, 21);
        let probs = m.branch_probabilities_pure(&psi);
        for (p, b) in probs.iter().zip(&m.branches_pure(&psi)) {
            assert_eq!(p.to_bits(), b.probability.to_bits());
        }
        for outcome in 0..2 {
            assert_eq!(
                m.collapse_pure(&psi, outcome).amplitudes(),
                m.branches_pure(&psi)[outcome].state.amplitudes()
            );
        }
    }

    #[test]
    fn explicit_basis_projectors_are_detected_as_computational() {
        let m = Measurement::new(
            vec![Matrix::basis_projector(2, 0), Matrix::basis_projector(2, 1)],
            vec![1],
        );
        assert!(m.computational);
    }

    /// Packs `count` awkward states into one contiguous pair of planes.
    fn awkward_block(n: usize, count: usize, seed0: u64) -> (Vec<f64>, Vec<f64>) {
        let mut re = Vec::new();
        let mut im = Vec::new();
        for s in 0..count {
            let psi = awkward_state(n, seed0 + s as u64);
            let (r, i) = psi.planes();
            re.extend_from_slice(r);
            im.extend_from_slice(i);
        }
        (re, im)
    }

    /// The `branches_pure` oracle on row `r` of a block.
    fn row_branches(
        m: &Measurement,
        n: usize,
        re: &[f64],
        im: &[f64],
        r: usize,
    ) -> Vec<MeasurementBranch> {
        let dim = 1usize << n;
        let row = |plane: &[f64]| plane[r * dim..(r + 1) * dim].to_vec();
        m.branches_pure(&StateVector::from_planes(n, row(re), row(im)))
    }

    fn plane_bits(re: &[f64], im: &[f64]) -> Vec<(u64, u64)> {
        re.iter().zip(im).map(|(a, b)| (a.to_bits(), b.to_bits())).collect()
    }

    /// Pins `branch_probabilities_block` on every row of the block, and
    /// `collapse_block_into` on every outcome of every selection, to the
    /// `branches_pure` oracle bitwise, signed zeros included.
    fn assert_block_forms_match_branches_pure(
        label: &str,
        m: &Measurement,
        n: usize,
        (re, im): (&[f64], &[f64]),
        selections: &[Vec<usize>],
    ) {
        let dim = 1usize << n;
        let rows = re.len() / dim;
        let outcomes = m.num_outcomes();
        let mut table = vec![-1.0]; // must be cleared, not appended
        m.branch_probabilities_block(n, re, im, &mut table);
        assert_eq!(table.len(), rows * outcomes, "{label}");
        for r in 0..rows {
            let branches = row_branches(m, n, re, im, r);
            for (o, b) in branches.iter().enumerate() {
                assert_eq!(
                    table[r * outcomes + o].to_bits(),
                    b.probability.to_bits(),
                    "{label} rows {rows} row {r} outcome {o}"
                );
            }
        }
        for (si, selected) in selections.iter().enumerate() {
            for outcome in 0..outcomes {
                let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
                m.collapse_block_into(n, re, im, selected, outcome, &mut out_re, &mut out_im);
                assert_eq!(out_re.len(), selected.len() * dim, "{label}");
                for (j, &r) in selected.iter().enumerate() {
                    let oracle = row_branches(m, n, re, im, r).swap_remove(outcome).state;
                    let (ore, oim) = oracle.planes();
                    let rows = j * dim..(j + 1) * dim;
                    assert_eq!(
                        plane_bits(&out_re[rows.clone()], &out_im[rows]),
                        plane_bits(ore, oim),
                        "{label} selection {si} outcome {outcome} row {r}"
                    );
                }
            }
        }
    }

    fn x_basis(target: usize) -> Measurement {
        let h = Matrix::hadamard();
        Measurement::two_outcome(
            h.mul(&Matrix::basis_projector(2, 0)).mul(&h),
            h.mul(&Matrix::basis_projector(2, 1)).mul(&h),
            vec![target],
        )
    }

    #[test]
    fn block_probabilities_match_per_row_calls_bitwise() {
        let measurements = [
            Measurement::computational(vec![0]),
            Measurement::computational(vec![3]),
            Measurement::computational(vec![2, 0]),
            x_basis(1),
        ];
        for (mi, m) in measurements.iter().enumerate() {
            for rows in [1usize, 2, 5, 16] {
                let (re, im) = awkward_block(4, rows, 100 * (mi as u64 + 1));
                let label = format!("measurement {mi}");
                assert_block_forms_match_branches_pure(&label, m, 4, (&re, &im), &[]);
            }
        }
    }

    #[test]
    fn block_collapse_matches_per_row_calls_bitwise() {
        // Strided row selections included: the block pass must only touch
        // the selected rows, in selection order, with identical bits —
        // signed zeros of the masked copy included.
        let measurements = [
            Measurement::computational(vec![1]),
            Measurement::computational(vec![3, 1]),
            x_basis(0),
        ];
        let selections = [vec![0usize, 1, 2, 3, 4, 5, 6], vec![2], vec![6, 0, 3]];
        for (mi, m) in measurements.iter().enumerate() {
            let (re, im) = awkward_block(4, 7, 500 * (mi as u64 + 1));
            let label = format!("measurement {mi}");
            assert_block_forms_match_branches_pure(&label, m, 4, (&re, &im), &selections);
        }
    }

    #[test]
    fn operator_application_shapes_match_branches_pure_bitwise() {
        // The shapes the masked-copy fast path does not cover: the
        // 8-outcome computational measurement a `case M[q1,q2,q3]` lowers
        // to, and a 2-qubit Bell-basis measurement with general operators.
        let bell = Matrix::cnot().mul(&Matrix::hadamard().kron(&Matrix::identity(2)));
        let bell_basis = Measurement::new(
            (0..4)
                .map(|k| bell.mul(&Matrix::basis_projector(4, k)).mul(&bell.dagger()))
                .collect(),
            vec![2, 0],
        );
        let three_targets = Measurement::computational(vec![3, 0, 2]);
        let shapes = [("3-target computational", &three_targets), ("Bell basis", &bell_basis)];
        for (label, m) in shapes {
            assert!(!m.fast_computational(), "{label} must take the operator path");
            let (re, im) = awkward_block(4, 7, 900);
            let selections = [(0..7).collect(), vec![5], vec![6, 1, 4, 2]];
            assert_block_forms_match_branches_pure(label, m, 4, (&re, &im), &selections);
        }
        assert_eq!(three_targets.num_outcomes(), 8);
    }

    #[test]
    fn two_outcome_guard_measurement() {
        let m = Measurement::two_outcome(
            Matrix::basis_projector(2, 0),
            Matrix::basis_projector(2, 1),
            vec![1],
        );
        let rho = DensityMatrix::pure_zero(2);
        assert!((m.branch(&rho, 0).trace() - 1.0).abs() < 1e-12);
        assert!(m.branch(&rho, 1).trace() < 1e-12);
    }
}
