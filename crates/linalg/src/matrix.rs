//! Dense complex matrices.
//!
//! Row-major storage; dimensions are explicit. The operation set is the one
//! quantum semantics needs: multiplication, adjoint, Kronecker products,
//! traces, and structural predicates (unitary / Hermitian / positive
//! semidefinite).

use crate::complex::C64;
use crate::vector::CVector;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
///
/// let x = Matrix::pauli_x();
/// let z = Matrix::pauli_z();
/// // XZ = -ZX (anticommutation)
/// let xz = x.mul(&z);
/// let zx = z.mul(&x);
/// assert!(xz.approx_eq(&zx.scale(qdp_linalg::C64::real(-1.0)), 1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested rows of real numbers.
    pub fn from_real_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in matrix literal");
            data.extend(row.iter().map(|&x| C64::real(x)));
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates a matrix from nested rows of complex numbers.
    pub fn from_rows(rows: &[Vec<C64>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in matrix literal");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Creates the `n×n` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, C64::ONE);
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[C64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Outer product `|v⟩⟨w|`.
    pub fn outer(v: &CVector, w: &CVector) -> Self {
        let mut m = Matrix::zeros(v.len(), w.len());
        for i in 0..v.len() {
            for j in 0..w.len() {
                m.set(i, j, v[i] * w[j].conj());
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> C64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: C64) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Entry at `(i, j)` without bounds checking.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `i < self.rows()` and `j < self.cols()`;
    /// otherwise this reads out of bounds (undefined behaviour).
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> C64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // SAFETY: the contract above bounds i*cols+j by rows*cols = data.len().
        unsafe { *self.data.get_unchecked(i * self.cols + j) }
    }

    /// Sets the entry at `(i, j)` without bounds checking.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `i < self.rows()` and `j < self.cols()`;
    /// otherwise this writes out of bounds (undefined behaviour).
    #[inline]
    pub unsafe fn set_unchecked(&mut self, i: usize, j: usize, value: C64) {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        // SAFETY: the contract above bounds i*cols+j by rows*cols = data.len().
        unsafe {
            *self.data.get_unchecked_mut(i * self.cols + j) = value;
        }
    }

    /// Borrows the row-major entries.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutably borrows the row-major entries.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == C64::ZERO {
                    continue;
                }
                let row_out = i * rhs.cols;
                let row_rhs = k * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[row_out + j] = out.data[row_out + j].mul_add(a, rhs.data[row_rhs + j]);
                }
            }
        }
        out
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree.
    pub fn mul_vec(&self, v: &CVector) -> CVector {
        assert_eq!(self.cols, v.len(), "matrix-vector dimension mismatch");
        let mut out = CVector::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = C64::ZERO;
            let row = i * self.cols;
            for j in 0..self.cols {
                acc = acc.mul_add(self.data[row + j], v[j]);
            }
            out[i] = acc;
        }
        out
    }

    /// Conjugate transpose (Hermitian adjoint) `A†`.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                // SAFETY: i < rows and j < cols bound both accesses; the
                // output is cols x rows, so (j, i) is in bounds.
                unsafe { out.set_unchecked(j, i, self.get_unchecked(i, j).conj()) };
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                // SAFETY: i < rows and j < cols bound both accesses; the
                // output is cols x rows, so (j, i) is in bounds.
                unsafe { out.set_unchecked(j, i, self.get_unchecked(i, j)) };
            }
        }
        out
    }

    /// Entry-wise conjugate.
    pub fn conj(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: C64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Kronecker product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self.get(i, j);
                if a == C64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out.set(i * rhs.rows + k, j * rhs.cols + l, a * rhs.get(k, l));
                    }
                }
            }
        }
        out
    }

    /// Trace `tr(A)`.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// `tr(self · rhs)` computed without forming the product.
    ///
    /// # Panics
    ///
    /// Panics when dimensions are incompatible.
    pub fn trace_mul(&self, rhs: &Matrix) -> C64 {
        assert_eq!(self.cols, rhs.rows, "trace_mul inner dimension mismatch");
        assert_eq!(self.rows, rhs.cols, "trace_mul outer dimension mismatch");
        let mut acc = C64::ZERO;
        for i in 0..self.rows {
            for k in 0..self.cols {
                acc = acc.mul_add(self.get(i, k), rhs.get(k, i));
            }
        }
        acc
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|z| z.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Approximate entry-wise equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` when `A†A ≈ I` within tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square() && self.dagger().mul(self).approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Returns `true` when `A ≈ A†` within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if !self.get(i, j).approx_eq(self.get(j, i).conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when the matrix is Hermitian positive semidefinite
    /// within tolerance `tol` (checked via the eigenvalues of the
    /// Hermitian part).
    pub fn is_psd(&self, tol: f64) -> bool {
        if !self.is_hermitian(tol) {
            return false;
        }
        crate::eigen::HermitianEigen::decompose(self)
            .eigenvalues
            .iter()
            .all(|&l| l >= -tol)
    }

    // ----- quantum-relevant constant matrices -------------------------------

    /// The 2×2 Hadamard gate.
    pub fn hadamard() -> Matrix {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Matrix::from_real_rows(&[&[s, s], &[s, -s]])
    }

    /// The Pauli `X` gate.
    pub fn pauli_x() -> Matrix {
        Matrix::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    /// The Pauli `Y` gate.
    pub fn pauli_y() -> Matrix {
        Matrix::from_rows(&[
            vec![C64::ZERO, -C64::I],
            vec![C64::I, C64::ZERO],
        ])
    }

    /// The Pauli `Z` gate.
    pub fn pauli_z() -> Matrix {
        Matrix::from_real_rows(&[&[1.0, 0.0], &[0.0, -1.0]])
    }

    /// The 4×4 CNOT gate (control on the first qubit).
    pub fn cnot() -> Matrix {
        Matrix::from_real_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0],
        ])
    }

    /// The projector `|k⟩⟨k|` of dimension `n`.
    pub fn basis_projector(n: usize, k: usize) -> Matrix {
        let e = CVector::basis(n, k);
        Matrix::outer(&e, &e)
    }

    /// Single-qubit rotation `Rσ(θ) = exp(-iθσ/2) = cos(θ/2)·I − i·sin(θ/2)·σ`
    /// about the given Pauli matrix `sigma` (which must be an involution,
    /// `σ² = I`, as all Pauli strings are).
    ///
    /// Single-qubit rotation about the X axis, built in closed form (no
    /// intermediate Pauli matrix) — the gate-construction hot path of the
    /// execution engines.
    pub fn rotation_x(theta: f64) -> Matrix {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::imag(-(theta / 2.0).sin());
        Matrix::from_data(2, 2, vec![c, s, s, c])
    }

    /// Single-qubit rotation about the Y axis in closed form (real-valued).
    pub fn rotation_y(theta: f64) -> Matrix {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::real((theta / 2.0).sin());
        Matrix::from_data(2, 2, vec![c, -s, s, c])
    }

    /// Single-qubit rotation about the Z axis in closed form (diagonal).
    pub fn rotation_z(theta: f64) -> Matrix {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        Matrix::from_data(
            2,
            2,
            vec![C64::new(c, -s), C64::ZERO, C64::ZERO, C64::new(c, s)],
        )
    }

    /// Two-qubit coupling rotation `exp(-iθ(σ⊗σ)/2)` in closed form: `cos`
    /// on the diagonal and the `σ⊗σ` pattern scaled by `-i·sin` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics for [`crate::Pauli::I`] (not a coupling axis).
    pub fn coupling_rotation(axis: crate::Pauli, theta: f64) -> Matrix {
        let c = C64::real((theta / 2.0).cos());
        let s = C64::imag(-(theta / 2.0).sin());
        let z = C64::ZERO;
        let data = match axis {
            // σx⊗σx: ones on the anti-diagonal.
            crate::Pauli::X => vec![c, z, z, s, z, c, s, z, z, s, c, z, s, z, z, c],
            // σy⊗σy: anti-diagonal −1, 1, 1, −1.
            crate::Pauli::Y => vec![c, z, z, -s, z, c, s, z, z, s, c, z, -s, z, z, c],
            // σz⊗σz: diagonal 1, −1, −1, 1.
            crate::Pauli::Z => {
                vec![c + s, z, z, z, z, c - s, z, z, z, z, c - s, z, z, z, z, c + s]
            }
            crate::Pauli::I => panic!("identity is not a coupling axis"),
        };
        Matrix::from_data(4, 4, data)
    }

    /// Built in a single pass over `sigma` (one allocation) — this runs once
    /// per gate application in the simulator's execution engines.
    pub fn rotation_from_involution(sigma: &Matrix, theta: f64) -> Matrix {
        assert!(sigma.is_square(), "rotation generator must be square");
        let n = sigma.rows;
        let c = C64::real((theta / 2.0).cos());
        let s = -C64::I * (theta / 2.0).sin();
        let data = sigma
            .data
            .iter()
            .enumerate()
            .map(|(idx, &z)| {
                let scaled = z * s;
                if idx % (n + 1) == 0 {
                    scaled + c
                } else {
                    scaled
                }
            })
            .collect();
        Matrix {
            rows: n,
            cols: n,
            data,
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{}\t", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "matrix addition row mismatch");
        assert_eq!(self.cols, rhs.cols, "matrix addition column mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "matrix subtraction row mismatch");
        assert_eq!(self.cols, rhs.cols, "matrix subtraction column mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-C64::ONE)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        Matrix::mul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_real_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = Matrix::identity(2);
        assert!(a.mul(&id).approx_eq(&a, 1e-15));
        assert!(id.mul(&a).approx_eq(&a, 1e-15));
    }

    #[test]
    fn pauli_gates_are_unitary_hermitian_involutions() {
        for m in [Matrix::pauli_x(), Matrix::pauli_y(), Matrix::pauli_z(), Matrix::hadamard()] {
            assert!(m.is_unitary(1e-12));
            assert!(m.is_hermitian(1e-12));
            assert!(m.mul(&m).approx_eq(&Matrix::identity(2), 1e-12));
        }
    }

    #[test]
    fn pauli_algebra_xy_equals_iz() {
        let xy = Matrix::pauli_x().mul(&Matrix::pauli_y());
        let iz = Matrix::pauli_z().scale(C64::I);
        assert!(xy.approx_eq(&iz, 1e-15));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = Matrix::from_rows(&[
            vec![C64::new(1.0, 1.0), C64::new(0.0, 2.0)],
            vec![C64::new(-1.0, 0.5), C64::new(2.0, -2.0)],
        ]);
        let b = Matrix::hadamard();
        let lhs = a.mul(&b).dagger();
        let rhs = b.dagger().mul(&a.dagger());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let k = Matrix::identity(2).kron(&Matrix::identity(3));
        assert!(k.approx_eq(&Matrix::identity(6), 1e-15));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = Matrix::hadamard();
        let b = Matrix::pauli_x();
        let c = Matrix::pauli_z();
        let d = Matrix::pauli_y();
        let lhs = a.kron(&b).mul(&c.kron(&d));
        let rhs = a.mul(&c).kron(&b.mul(&d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_and_trace_mul_agree() {
        let a = Matrix::from_real_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(a
            .trace_mul(&b)
            .approx_eq(a.mul(&b).trace(), 1e-14));
        assert_eq!(a.trace(), C64::real(5.0));
    }

    #[test]
    fn cnot_flips_target_when_control_set() {
        let cnot = Matrix::cnot();
        assert!(cnot.is_unitary(1e-14));
        let v10 = CVector::basis(4, 2); // |10⟩
        let v11 = CVector::basis(4, 3); // |11⟩
        assert!(cnot.mul_vec(&v10).approx_eq(&v11, 1e-15));
        assert!(cnot.mul_vec(&v11).approx_eq(&v10, 1e-15));
    }

    #[test]
    fn rotation_is_unitary_and_periodic() {
        for theta in [0.0, 0.7, std::f64::consts::PI, 4.2] {
            let r = Matrix::rotation_from_involution(&Matrix::pauli_y(), theta);
            assert!(r.is_unitary(1e-12));
        }
        // Rσ(0) = I, Rσ(2π) = -I
        let r0 = Matrix::rotation_from_involution(&Matrix::pauli_x(), 0.0);
        assert!(r0.approx_eq(&Matrix::identity(2), 1e-12));
        let r2pi = Matrix::rotation_from_involution(&Matrix::pauli_x(), 2.0 * std::f64::consts::PI);
        assert!(r2pi.approx_eq(&Matrix::identity(2).scale(-C64::ONE), 1e-12));
    }

    #[test]
    fn rotation_derivative_is_half_shifted_rotation() {
        // d/dθ Rσ(θ) = ½ Rσ(θ+π)  (Lemma D.1)
        let theta = 0.9;
        let h = 1e-6;
        let sigma = Matrix::pauli_z();
        let plus = Matrix::rotation_from_involution(&sigma, theta + h);
        let minus = Matrix::rotation_from_involution(&sigma, theta - h);
        let fd = (&plus - &minus).scale(C64::real(0.5 / h));
        let analytic = Matrix::rotation_from_involution(&sigma, theta + std::f64::consts::PI)
            .scale(C64::real(0.5));
        assert!(fd.approx_eq(&analytic, 1e-8));
    }

    #[test]
    fn outer_product_projector() {
        let p0 = Matrix::basis_projector(2, 0);
        assert!(p0.mul(&p0).approx_eq(&p0, 1e-15));
        assert!(p0.is_hermitian(1e-15));
        assert_eq!(p0.trace(), C64::ONE);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.mul(&b);
    }
}
