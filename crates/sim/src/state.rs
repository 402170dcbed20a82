//! Pure quantum states.

use crate::kernels::{apply_matrix_planes, planes_to_aos, qubit_bit};
use crate::lanes;
use qdp_linalg::{C64, Matrix};

/// A pure state `|ψ⟩` of an `n`-qubit register, possibly sub-normalised.
///
/// Sub-normalised states arise as measurement branches: the squared norm is
/// the probability of the branch (this mirrors the paper's use of *partial*
/// density operators to carry probabilities through the semantics).
///
/// # Storage
///
/// Amplitudes are stored **split-plane** (SoA): the real parts in one
/// contiguous `f64` plane, the imaginary parts in another, instead of an
/// interleaved `Vec<C64>`. Every hot loop then walks plain contiguous `f64`
/// streams — the shape both LLVM's loop vectorizer and the explicit
/// runtime-dispatched vector kernels in [`crate::simd`] consume directly
/// (the planes are handed to the AVX2/AVX-512 tiers without any gather or
/// repack). The layout is invisible at the public seam: gates, norms,
/// measurements and read-outs behave exactly as before, and
/// [`amplitudes`](Self::amplitudes) gathers an interleaved copy on demand
/// for oracle comparisons and interop.
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::StateVector;
///
/// let mut bell = StateVector::zero_state(2);
/// bell.apply_gate(&Matrix::hadamard(), &[0]);
/// bell.apply_gate(&Matrix::cnot(), &[0, 1]);
/// assert!((bell.probability_of(0b00) - 0.5).abs() < 1e-12);
/// assert!((bell.probability_of(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(n_qubits: usize) -> Self {
        Self::basis_state(n_qubits, 0)
    }

    /// The computational basis state `|k⟩`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= 2ⁿ`.
    pub fn basis_state(n_qubits: usize, k: usize) -> Self {
        assert!(k < 1 << n_qubits, "basis index {k} out of range");
        let mut re = vec![0.0; 1 << n_qubits];
        let im = vec![0.0; 1 << n_qubits];
        re[k] = 1.0;
        StateVector { n_qubits, re, im }
    }

    /// Builds a state from raw interleaved amplitudes.
    ///
    /// # Panics
    ///
    /// Panics when the length is not a power of two matching `n_qubits`.
    pub fn from_amplitudes(n_qubits: usize, amps: Vec<C64>) -> Self {
        assert_eq!(amps.len(), 1 << n_qubits, "amplitude count must be 2^n");
        let re = amps.iter().map(|a| a.re).collect();
        let im = amps.iter().map(|a| a.im).collect();
        StateVector { n_qubits, re, im }
    }

    /// Builds a state from raw split planes.
    ///
    /// # Panics
    ///
    /// Panics when the planes disagree in length or don't hold `2ⁿ` entries.
    pub fn from_planes(n_qubits: usize, re: Vec<f64>, im: Vec<f64>) -> Self {
        assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        assert_eq!(re.len(), 1 << n_qubits, "amplitude count must be 2^n");
        StateVector { n_qubits, re, im }
    }

    /// The basis state `|b₀b₁…⟩` for classical bits (qubit 0 first).
    pub fn from_bits(bits: &[bool]) -> Self {
        let n = bits.len();
        let mut k = 0usize;
        for (q, &b) in bits.iter().enumerate() {
            if b {
                k |= 1 << qubit_bit(n, q);
            }
        }
        StateVector::basis_state(n, k)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2ⁿ`.
    pub fn dim(&self) -> usize {
        self.re.len()
    }

    /// Gathers the amplitudes into an owned interleaved copy — the interop
    /// and oracle view. Hot loops should read the split planes via
    /// [`planes`](Self::planes) instead; every per-state primitive in this
    /// crate has a plane form precisely so this gather never sits on a hot
    /// path.
    pub fn amplitudes(&self) -> Vec<C64> {
        planes_to_aos(&self.re, &self.im)
    }

    /// Amplitude of basis index `k`.
    pub fn amplitude(&self, k: usize) -> C64 {
        C64::new(self.re[k], self.im[k])
    }

    /// Borrows the split `(re, im)` planes.
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutably borrows the split `(re, im)` planes.
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Squared norm — the total probability carried by this (branch) state.
    ///
    /// Summed with the fixed lane-split reduction of the `lanes` module
    /// (lane = index mod 4, combine `(p0+p1)+(p2+p3)`): bit-identical
    /// across thread counts and vector widths, and the same order every
    /// other `|amp|²` reduction in the crate uses.
    pub fn norm_sqr(&self) -> f64 {
        lanes::sum_norm_sqr(&self.re, &self.im)
    }

    /// Probability of observing basis index `k` (relative to a normalised
    /// parent state).
    pub fn probability_of(&self, k: usize) -> f64 {
        self.re[k] * self.re[k] + self.im[k] * self.im[k]
    }

    /// Applies an arbitrary operator (not necessarily unitary) on `targets`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or duplicate targets.
    pub fn apply_gate(&mut self, gate: &Matrix, targets: &[usize]) {
        apply_matrix_planes(&mut self.re, &mut self.im, self.n_qubits, gate, targets);
    }

    /// Returns a copy with the operator applied.
    pub fn with_gate(&self, gate: &Matrix, targets: &[usize]) -> StateVector {
        let mut s = self.clone();
        s.apply_gate(gate, targets);
        s
    }

    /// Tensor product `self ⊗ other` (other's qubits appended after).
    pub fn tensor(&self, other: &StateVector) -> StateVector {
        let od = other.dim();
        let mut re = Vec::with_capacity(self.dim() * od);
        let mut im = Vec::with_capacity(self.dim() * od);
        for i in 0..self.dim() {
            let a = self.amplitude(i);
            for j in 0..od {
                let z = a * other.amplitude(j);
                re.push(z.re);
                im.push(z.im);
            }
        }
        StateVector {
            n_qubits: self.n_qubits + other.n_qubits,
            re,
            im,
        }
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit-count mismatch");
        let mut acc = C64::ZERO;
        for i in 0..self.dim() {
            acc = acc.mul_add(self.amplitude(i).conj(), other.amplitude(i));
        }
        acc
    }

    /// Approximate equality within entry-wise tolerance `tol`.
    pub fn approx_eq(&self, other: &StateVector, tol: f64) -> bool {
        self.n_qubits == other.n_qubits
            && (0..self.dim()).all(|i| self.amplitude(i).approx_eq(other.amplitude(i), tol))
    }

    /// Scales all amplitudes by `s`.
    pub fn scale(&mut self, s: C64) {
        for (ar, ai) in self.re.iter_mut().zip(self.im.iter_mut()) {
            let z = C64::new(*ar, *ai) * s;
            *ar = z.re;
            *ai = z.im;
        }
    }

    /// Reads out the classical value of qubit `q` assuming the state is a
    /// basis state on that qubit; returns `None` if the qubit is in
    /// superposition (beyond tolerance `1e-9`).
    pub fn classical_bit(&self, q: usize) -> Option<bool> {
        let mask = 1usize << qubit_bit(self.n_qubits, q);
        let mut p1 = 0.0;
        let mut p0 = 0.0;
        for i in 0..self.dim() {
            let n = self.re[i] * self.re[i] + self.im[i] * self.im[i];
            if i & mask != 0 {
                p1 += n;
            } else {
                p0 += n;
            }
        }
        let total = p0 + p1;
        if total == 0.0 {
            return None;
        }
        if p1 / total < 1e-9 {
            Some(false)
        } else if p0 / total < 1e-9 {
            Some(true)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_is_normalised() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.dim(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        assert_eq!(s.probability_of(0), 1.0);
    }

    #[test]
    fn from_bits_sets_correct_index() {
        // qubit0=1, qubit1=0, qubit2=1 → index 0b101 = 5
        let s = StateVector::from_bits(&[true, false, true]);
        assert_eq!(s.probability_of(5), 1.0);
    }

    #[test]
    fn bell_state_construction() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&Matrix::hadamard(), &[0]);
        s.apply_gate(&Matrix::cnot(), &[0, 1]);
        assert!((s.probability_of(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(3) - 0.5).abs() < 1e-12);
        assert!(s.probability_of(1) < 1e-15);
        assert!(s.probability_of(2) < 1e-15);
    }

    #[test]
    fn unitaries_preserve_norm() {
        let mut s = StateVector::zero_state(3);
        for (g, t) in [
            (Matrix::hadamard(), vec![0]),
            (Matrix::pauli_y(), vec![2]),
            (Matrix::cnot(), vec![0, 2]),
            (Matrix::rotation_from_involution(&Matrix::pauli_x(), 1.3), vec![1]),
        ] {
            s.apply_gate(&g, &t);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tensor_concatenates_registers() {
        let a = StateVector::basis_state(1, 1); // |1⟩
        let b = StateVector::basis_state(2, 0); // |00⟩
        let t = a.tensor(&b);
        assert_eq!(t.num_qubits(), 3);
        assert_eq!(t.probability_of(0b100), 1.0);
    }

    #[test]
    fn classical_bit_detection() {
        let s = StateVector::from_bits(&[true, false]);
        assert_eq!(s.classical_bit(0), Some(true));
        assert_eq!(s.classical_bit(1), Some(false));
        let mut plus = StateVector::zero_state(1);
        plus.apply_gate(&Matrix::hadamard(), &[0]);
        assert_eq!(plus.classical_bit(0), None);
    }

    #[test]
    fn inner_product_with_self_is_norm() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&Matrix::hadamard(), &[1]);
        let ip = s.inner(&s);
        assert!((ip.re - s.norm_sqr()).abs() < 1e-14);
        assert!(ip.im.abs() < 1e-14);
    }

    #[test]
    fn amplitudes_round_trip_through_planes() {
        let mut s = StateVector::zero_state(3);
        s.apply_gate(&Matrix::hadamard(), &[0]);
        s.apply_gate(&Matrix::cnot(), &[0, 2]);
        let amps = s.amplitudes();
        let rebuilt = StateVector::from_amplitudes(3, amps.clone());
        assert_eq!(rebuilt, s);
        let (re, im) = s.planes();
        let by_planes = StateVector::from_planes(3, re.to_vec(), im.to_vec());
        assert_eq!(by_planes, s);
        for (k, a) in amps.iter().enumerate() {
            assert_eq!(s.amplitude(k), *a);
        }
    }

    #[test]
    fn scale_matches_complex_multiply() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&Matrix::hadamard(), &[0]);
        let before = s.amplitudes();
        let f = C64::new(0.6, -0.3);
        s.scale(f);
        for (k, b) in before.iter().enumerate() {
            let expected = *b * f;
            assert_eq!(s.amplitude(k).re.to_bits(), expected.re.to_bits());
            assert_eq!(s.amplitude(k).im.to_bits(), expected.im.to_bits());
        }
    }
}
