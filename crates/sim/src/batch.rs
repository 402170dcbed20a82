//! Batched pure-state storage — the batch axis of the evaluation engine.
//!
//! Training (Section 8.1) and shot-noise execution evaluate the *same*
//! compiled program multiset against many input states: the 16-sample
//! classification dataset, parallel shot batches, sweeps over initial
//! conditions. [`BatchedStates`] stores those inputs contiguously as a
//! `batch × 2ⁿ` amplitude block — **split-plane** like [`StateVector`]: one
//! contiguous `f64` plane of real parts, one of imaginary parts — so that
//!
//! * a gate can be applied to every row with the operator matrix built
//!   **once** (the per-row kernels are the same bit-deposit fast paths
//!   [`crate::kernels::apply_matrix_planes`] uses for a single state,
//!   including the runtime-dispatched [`crate::simd`] vector tiers — rows
//!   are plane slices, so batches inherit the explicit kernels for free),
//! * batched evaluators can hand out disjoint row plane slices to `qdp_par`
//!   workers without any per-row allocation, and
//! * every future backend (stabilizer, shot-noise, multi-backend dispatch)
//!   inherits one batch seam instead of inventing its own.
//!
//! Row `r` occupies plane entries `[r·2ⁿ, (r+1)·2ⁿ)`; rows never alias. All
//! per-row operations perform the identical floating-point instructions as
//! the corresponding single-[`StateVector`] operation, so a batched
//! evaluation agrees **bit-for-bit** with the per-sample loop it replaces,
//! regardless of thread count, batch size, or cache-tile boundaries.

use crate::kernels::{apply_matrix_planes, planes_to_aos};
use crate::lanes;
use crate::observable::Observable;
use crate::state::StateVector;
use qdp_linalg::{C64, Matrix};

/// Cap, in amplitudes, on the row blocks [`BatchedStates::apply_gate`]
/// hands to one kernel call: `2¹⁴` amplitudes = 256 KiB of plane data,
/// comfortably inside a per-core L2. A gate then streams each tile's two
/// planes once while they stay cache-resident across the row block, instead
/// of walking a batch-sized footprint per call. Tiling never changes
/// results: every amplitude's arithmetic depends only on its own orbit.
pub const L2_TILE_AMPS: usize = 1 << 14;

/// A batch of pure states of a common register, stored contiguously.
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::{BatchedStates, StateVector};
///
/// let inputs = vec![StateVector::zero_state(2), StateVector::basis_state(2, 3)];
/// let mut batch = BatchedStates::from_states(&inputs);
/// batch.apply_gate(&Matrix::hadamard(), &[0]);
/// for (r, input) in inputs.iter().enumerate() {
///     // Each row evolves exactly as the single-state path would.
///     let expected = input.with_gate(&Matrix::hadamard(), &[0]);
///     assert_eq!(batch.row_state(r).amplitudes(), expected.amplitudes());
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BatchedStates {
    n_qubits: usize,
    rows: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl BatchedStates {
    /// A batch of `rows` copies of `|0…0⟩` on `n_qubits`.
    pub fn zero(rows: usize, n_qubits: usize) -> Self {
        let dim = 1usize << n_qubits;
        let mut re = vec![0.0; rows * dim];
        let im = vec![0.0; rows * dim];
        for r in 0..rows {
            re[r * dim] = 1.0;
        }
        BatchedStates { n_qubits, rows, re, im }
    }

    /// Packs a slice of states (all on the same register) into one batch.
    ///
    /// # Panics
    ///
    /// Panics when the states disagree on qubit count. An empty slice
    /// yields an empty batch over zero qubits.
    pub fn from_states(states: &[StateVector]) -> Self {
        let n_qubits = states.first().map_or(0, StateVector::num_qubits);
        let dim = 1usize << n_qubits;
        let mut re = Vec::with_capacity(states.len() * dim);
        let mut im = Vec::with_capacity(states.len() * dim);
        for s in states {
            assert_eq!(
                s.num_qubits(),
                n_qubits,
                "all states of a batch must share one register"
            );
            let (sre, sim) = s.planes();
            re.extend_from_slice(sre);
            im.extend_from_slice(sim);
        }
        BatchedStates {
            n_qubits,
            rows: states.len(),
            re,
            im,
        }
    }

    /// Builds a batch by gathering borrowed rows — the admission path of a
    /// request coalescer, where the inputs of concurrently queued clients
    /// live in separate allocations and are tiled into one contiguous block
    /// for a single kernel sweep.
    ///
    /// # Panics
    ///
    /// Panics when the rows disagree on the register width.
    pub fn gather(rows: &[&StateVector]) -> Self {
        let n_qubits = rows.first().map_or(0, |s| s.num_qubits());
        let dim = 1usize << n_qubits;
        let mut re = Vec::with_capacity(rows.len() * dim);
        let mut im = Vec::with_capacity(rows.len() * dim);
        for s in rows {
            assert_eq!(
                s.num_qubits(),
                n_qubits,
                "all states of a batch must share one register"
            );
            let (sre, sim) = s.planes();
            re.extend_from_slice(sre);
            im.extend_from_slice(sim);
        }
        BatchedStates {
            n_qubits,
            rows: rows.len(),
            re,
            im,
        }
    }

    /// Builds a batch from raw contiguous planes.
    ///
    /// # Panics
    ///
    /// Panics when the planes disagree in length or don't hold
    /// `rows · 2^n_qubits` entries.
    pub fn from_raw(rows: usize, n_qubits: usize, re: Vec<f64>, im: Vec<f64>) -> Self {
        assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        assert_eq!(
            re.len(),
            rows << n_qubits,
            "amplitude block must hold rows × 2^n entries"
        );
        BatchedStates { n_qubits, rows, re, im }
    }

    /// Number of rows (input states) in the batch.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Qubit count of every row.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2ⁿ` of one row.
    pub fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// Gathers the full block into an owned interleaved copy — interop and
    /// oracle view only; hot loops read [`planes`](Self::planes).
    pub fn amplitudes(&self) -> Vec<C64> {
        planes_to_aos(&self.re, &self.im)
    }

    /// Borrows the full contiguous `(re, im)` planes.
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutably borrows the full contiguous `(re, im)` planes.
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Borrows row `r`'s `(re, im)` planes.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row_planes(&self, r: usize) -> (&[f64], &[f64]) {
        let dim = self.dim();
        debug_assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
        (&self.re[r * dim..(r + 1) * dim], &self.im[r * dim..(r + 1) * dim])
    }

    /// Mutably borrows row `r`'s `(re, im)` planes.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row_planes_mut(&mut self, r: usize) -> (&mut [f64], &mut [f64]) {
        let dim = self.dim();
        debug_assert!(r < self.rows, "row {r} out of range for {} rows", self.rows);
        (
            &mut self.re[r * dim..(r + 1) * dim],
            &mut self.im[r * dim..(r + 1) * dim],
        )
    }

    /// Copies row `r` out into an owned [`StateVector`] — for results that
    /// must outlive the batch. Hot loops that only *read* a row should use
    /// the [`row_planes`](Self::row_planes) borrow (every `qdp-sim` per-row
    /// primitive has a plane form precisely so no owned state is needed).
    pub fn row_state(&self, r: usize) -> StateVector {
        let (re, im) = self.row_planes(r);
        StateVector::from_planes(self.n_qubits, re.to_vec(), im.to_vec())
    }

    /// Iterates over the row plane pairs in order.
    pub fn iter_row_planes(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        let dim = self.dim();
        self.re.chunks_exact(dim).zip(self.im.chunks_exact(dim))
    }

    /// Consumes the batch and returns its contiguous planes — the inverse
    /// of [`from_raw`](Self::from_raw), letting executors recycle a spent
    /// group's allocations instead of dropping them.
    pub fn into_raw(self) -> (Vec<f64>, Vec<f64>) {
        (self.re, self.im)
    }

    /// Per-row squared norms in row order, written into `out` (cleared and
    /// refilled): one pass over the contiguous planes, each row summed by
    /// the identical lane-split reduction [`StateVector::norm_sqr`]
    /// performs — so entries match per-row calls bit for bit.
    pub fn row_norms_sqr_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.iter_row_planes().map(|(re, im)| lanes::sum_norm_sqr(re, im)));
    }

    /// Applies an operator to **every** row on the given targets.
    ///
    /// A contiguous block of `2ᵏ` rows is indistinguishable from one
    /// `(k+n)`-qubit state whose `k` high (row-index) bits the gate never
    /// touches, so the batch is decomposed greedily into maximal
    /// power-of-two row blocks — capped at [`L2_TILE_AMPS`] amplitudes so a
    /// tile's planes stay L2-resident — and each block is handled by a
    /// **single** [`apply_matrix_planes`] call on targets shifted past the
    /// row bits: the same bit-deposit kernels as the single-state path,
    /// with their per-call dispatch amortised over the whole tile.
    ///
    /// Register qubit `q` of every row sits at bit `n−1−q` of its row-local
    /// index regardless of the block size, so each amplitude sees the
    /// identical floating-point operations a per-row
    /// [`StateVector::apply_gate`] would perform: results are bit-for-bit
    /// equal to the per-row loop, under any thread count, batch size, or
    /// tile cap.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or duplicate targets.
    pub fn apply_gate(&mut self, gate: &Matrix, targets: &[usize]) {
        if self.rows == 0 {
            return;
        }
        let dim = self.dim();
        let n = self.n_qubits;
        // Largest row-block exponent that keeps one tile within the cache
        // budget (at least one row, however large the register).
        let k_cap = if dim >= L2_TILE_AMPS { 0 } else { (L2_TILE_AMPS / dim).ilog2() as usize };
        let mut rest_re: &mut [f64] = &mut self.re;
        let mut rest_im: &mut [f64] = &mut self.im;
        let mut remaining = self.rows;
        // Shift targets past the row bits on the stack for the common
        // k ≤ 2 operators — one heap round trip per kernel call otherwise.
        let mut small = [0usize; 2];
        let mut spilled: Vec<usize>;
        while remaining > 0 {
            let k = (remaining.ilog2() as usize).min(k_cap);
            let block_rows = 1usize << k;
            let (block_re, tail_re) = rest_re.split_at_mut(block_rows * dim);
            let (block_im, tail_im) = rest_im.split_at_mut(block_rows * dim);
            let shifted: &[usize] = if targets.len() <= 2 {
                for (slot, &t) in small.iter_mut().zip(targets) {
                    *slot = t + k;
                }
                &small[..targets.len()]
            } else {
                spilled = targets.iter().map(|&t| t + k).collect();
                &spilled
            };
            apply_matrix_planes(block_re, block_im, n + k, gate, shifted);
            rest_re = tail_re;
            rest_im = tail_im;
            remaining -= block_rows;
        }
        crate::fault::kernel_checkpoint(self.n_qubits, self.rows, &mut self.re, &mut self.im);
    }

    /// The batch `{|0⟩ ⊗ |ψr⟩}` — every row extended by a fresh ancilla
    /// qubit prepended at index 0 in the `|0⟩` state. This is the batched
    /// analogue of [`StateVector::tensor`] with a leading zero ancilla,
    /// built in one pass over the planes.
    pub fn prepend_zero_ancilla(&self) -> BatchedStates {
        let dim = self.dim();
        let mut re = vec![0.0; self.rows * dim * 2];
        let mut im = vec![0.0; self.rows * dim * 2];
        for r in 0..self.rows {
            let (rre, rim) = self.row_planes(r);
            re[r * dim * 2..r * dim * 2 + dim].copy_from_slice(rre);
            im[r * dim * 2..r * dim * 2 + dim].copy_from_slice(rim);
        }
        BatchedStates {
            n_qubits: self.n_qubits + 1,
            rows: self.rows,
            re,
            im,
        }
    }

    /// Per-row expectation values `⟨ψr|O|ψr⟩` in row order, read straight
    /// off the row planes (no copies; the observable's target masks are
    /// computed once for the whole batch).
    ///
    /// # Panics
    ///
    /// Panics when the observable's register size differs.
    pub fn expectations(&self, obs: &Observable) -> Vec<f64> {
        obs.expectation_batch(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_batch_rows_are_zero_states() {
        let b = BatchedStates::zero(3, 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.dim(), 4);
        for r in 0..3 {
            assert_eq!(b.row_state(r), StateVector::zero_state(2));
        }
    }

    #[test]
    fn from_states_round_trips() {
        let states = vec![
            StateVector::basis_state(2, 1),
            StateVector::basis_state(2, 2),
            StateVector::zero_state(2),
        ];
        let b = BatchedStates::from_states(&states);
        for (r, s) in states.iter().enumerate() {
            assert_eq!(&b.row_state(r), s);
        }
        assert_eq!(b.iter_row_planes().count(), 3);
    }

    #[test]
    fn batched_gate_matches_per_state_gate_bitwise() {
        let mut states: Vec<StateVector> = (0..5)
            .map(|k| StateVector::basis_state(3, k))
            .collect();
        let mut batch = BatchedStates::from_states(&states);
        let h = Matrix::hadamard();
        let cnot = Matrix::cnot();
        batch.apply_gate(&h, &[1]);
        batch.apply_gate(&cnot, &[1, 2]);
        for s in &mut states {
            s.apply_gate(&h, &[1]);
            s.apply_gate(&cnot, &[1, 2]);
        }
        for (r, s) in states.iter().enumerate() {
            assert_eq!(batch.row_state(r).amplitudes(), s.amplitudes(), "row {r}");
        }
    }

    #[test]
    fn tiled_blocks_match_per_state_gate_bitwise() {
        // 40 rows of 10 qubits = 40960 amps > L2_TILE_AMPS: apply_gate must
        // tile (16 + 16 + 8 rows) yet agree with the per-row path exactly.
        const { assert!(40 << 10 > L2_TILE_AMPS) };
        let mut states: Vec<StateVector> = (0..40)
            .map(|k| StateVector::basis_state(10, k * 17 % 1024))
            .collect();
        let mut batch = BatchedStates::from_states(&states);
        let h = Matrix::hadamard();
        let rz = Matrix::rotation_from_involution(&Matrix::pauli_z(), 0.4);
        batch.apply_gate(&h, &[3]);
        batch.apply_gate(&rz, &[9]);
        for s in &mut states {
            s.apply_gate(&h, &[3]);
            s.apply_gate(&rz, &[9]);
        }
        for (r, s) in states.iter().enumerate() {
            assert_eq!(batch.row_state(r).amplitudes(), s.amplitudes(), "row {r}");
        }
    }

    #[test]
    fn prepend_zero_ancilla_matches_tensor() {
        let mut plus = StateVector::zero_state(2);
        plus.apply_gate(&Matrix::hadamard(), &[0]);
        let batch = BatchedStates::from_states(&[plus.clone(), StateVector::basis_state(2, 3)]);
        let ext = batch.prepend_zero_ancilla();
        assert_eq!(ext.num_qubits(), 3);
        let expected0 = StateVector::zero_state(1).tensor(&plus);
        assert_eq!(ext.row_state(0).amplitudes(), expected0.amplitudes());
        let expected1 = StateVector::zero_state(1).tensor(&StateVector::basis_state(2, 3));
        assert_eq!(ext.row_state(1).amplitudes(), expected1.amplitudes());
    }

    #[test]
    fn expectations_match_single_state_path() {
        let states = vec![
            StateVector::zero_state(2),
            StateVector::basis_state(2, 2),
        ];
        let b = BatchedStates::from_states(&states);
        let z = Observable::pauli_z(2, 0);
        let expect = b.expectations(&z);
        for (r, s) in states.iter().enumerate() {
            assert_eq!(expect[r], z.expectation_pure(s));
        }
    }

    #[test]
    fn empty_batch_is_harmless() {
        let mut b = BatchedStates::from_states(&[]);
        assert!(b.is_empty());
        b.apply_gate(&Matrix::identity(1), &[]);
        assert_eq!(b.expectations(&Observable::new(0, vec![], Matrix::identity(1))).len(), 0);
    }

    #[test]
    fn row_norms_match_per_row_norm_sqr_bitwise() {
        let mut states: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(2, k)).collect();
        for (k, s) in states.iter_mut().enumerate() {
            s.apply_gate(&Matrix::hadamard(), &[k % 2]);
            s.scale(C64::new(0.6, -0.3));
        }
        let b = BatchedStates::from_states(&states);
        let mut norms = vec![99.0];
        b.row_norms_sqr_into(&mut norms);
        assert_eq!(norms.len(), 4);
        for (r, s) in states.iter().enumerate() {
            assert_eq!(norms[r].to_bits(), s.norm_sqr().to_bits(), "row {r}");
        }
    }

    #[test]
    fn into_raw_round_trips_through_from_raw() {
        let b = BatchedStates::zero(3, 2);
        let (re, im) = b.clone().into_raw();
        assert_eq!(re.len(), 12);
        assert_eq!(BatchedStates::from_raw(3, 2, re, im), b);
    }

    #[test]
    #[should_panic(expected = "share one register")]
    fn mixed_register_sizes_panic() {
        let _ = BatchedStates::from_states(&[
            StateVector::zero_state(1),
            StateVector::zero_state(2),
        ]);
    }
}
