//! Extraction of a program's denotational superoperator as a matrix.
//!
//! `[[P]]` is a completely positive, trace-non-increasing map on `D(Hv)`
//! (Section 2.2 / Fig. 1b). For analysis and testing it is useful to have
//! `[[P]]` *as data*: this module computes its natural matrix
//! representation (acting on vectorised density operators) and its Choi
//! matrix, from which complete positivity, the trace condition, and the
//! Schrödinger–Heisenberg dual are all directly checkable.

use crate::ast::{Params, Stmt};
use crate::denot::denote;
use crate::register::Register;
use qdp_linalg::{C64, Matrix};
use qdp_sim::DensityMatrix;

/// The superoperator matrix `S` of `[[P]]` acting on row-major vectorised
/// operators: `vec([[P]]ρ) = S · vec(ρ)`, with `S` of dimension `4ⁿ × 4ⁿ`.
///
/// # Panics
///
/// Panics on additive programs (use [`crate::compile`] first).
pub fn superoperator_matrix(stmt: &Stmt, reg: &Register, params: &Params) -> Matrix {
    let n = reg.len();
    let dim = 1usize << n;
    let vec_dim = dim * dim;
    let mut out = Matrix::zeros(vec_dim, vec_dim);
    // Column k of S is vec([[P]] E_k) for the matrix unit E_k = |i⟩⟨j|.
    for i in 0..dim {
        for j in 0..dim {
            let col = i * dim + j;
            let mut unit = Matrix::zeros(dim, dim);
            unit.set(i, j, C64::ONE);
            let image = denote(
                stmt,
                reg,
                params,
                &DensityMatrix::from_matrix(n, &unit),
            );
            let (re, im) = image.planes();
            for (row, (&r, &i)) in re.iter().zip(im).enumerate() {
                out.set(row, col, C64::new(r, i));
            }
        }
    }
    out
}

/// The Choi matrix `J([[P]]) = Σ_{ij} |i⟩⟨j| ⊗ [[P]](|i⟩⟨j|)`.
/// `[[P]]` is completely positive iff `J ⪰ 0`.
pub fn choi_matrix(stmt: &Stmt, reg: &Register, params: &Params) -> Matrix {
    let n = reg.len();
    let dim = 1usize << n;
    let mut out = Matrix::zeros(dim * dim, dim * dim);
    for i in 0..dim {
        for j in 0..dim {
            let mut unit = Matrix::zeros(dim, dim);
            unit.set(i, j, C64::ONE);
            let image = denote(stmt, reg, params, &DensityMatrix::from_matrix(n, &unit));
            for a in 0..dim {
                for b in 0..dim {
                    out.set(i * dim + a, j * dim + b, image.get(a, b));
                }
            }
        }
    }
    out
}

/// Applies the Schrödinger–Heisenberg dual `[[P]]*` to an observable
/// matrix: the unique map with `tr(O·[[P]]ρ) = tr([[P]]*(O)·ρ)` for all
/// `ρ` (used by the Sequence rule of the differentiation logic,
/// Lemma D.2).
pub fn dual_apply(stmt: &Stmt, reg: &Register, params: &Params, obs: &Matrix) -> Matrix {
    let n = reg.len();
    let dim = 1usize << n;
    assert!(obs.rows() == dim && obs.cols() == dim, "observable must be 2^n x 2^n");
    // [[P]]*(O)_{ji} = tr(O · [[P]](|i⟩⟨j|)): evaluate on matrix units.
    let mut out = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            let mut unit = Matrix::zeros(dim, dim);
            unit.set(i, j, C64::ONE);
            let image = denote(stmt, reg, params, &DensityMatrix::from_matrix(n, &unit));
            out.set(j, i, obs.trace_mul(&image.to_matrix()));
        }
    }
    out
}

/// Checks that `[[P]]` is an *admissible* superoperator: completely
/// positive (Choi PSD) and trace-non-increasing on states.
pub fn is_admissible(stmt: &Stmt, reg: &Register, params: &Params, tol: f64) -> bool {
    let choi = choi_matrix(stmt, reg, params);
    if !choi.is_hermitian(tol) || !choi.is_psd(tol) {
        return false;
    }
    // Trace condition: [[P]]*(I) ⊑ I.
    let dual_id = dual_apply(stmt, reg, params, &Matrix::identity(1 << reg.len()));
    let gap = &Matrix::identity(1 << reg.len()) - &dual_id;
    gap.is_hermitian(tol) && gap.is_psd(tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use qdp_linalg::CVector;

    fn setup(src: &str, params: &[(&str, f64)]) -> (Stmt, Register, Params) {
        let p = parse_program(src).unwrap();
        let reg = Register::from_program(&p);
        let params = Params::from_pairs(params.iter().map(|&(k, v)| (k, v)));
        (p, reg, params)
    }

    #[test]
    fn superoperator_matrix_reproduces_denotation() {
        let (p, reg, params) = setup(
            "q1 *= RX(a); case M[q1] = 0 -> skip[q1], 1 -> q1 := |0> end",
            &[("a", 0.8)],
        );
        let s = superoperator_matrix(&p, &reg, &params);
        let mut rho = DensityMatrix::pure_zero(1);
        rho.apply_unitary(&Matrix::hadamard(), &[0]);
        let direct = denote(&p, &reg, &params, &rho);
        let vec_out = s.mul_vec(&CVector::new(rho.to_matrix().as_slice().to_vec()));
        let lifted = DensityMatrix::from_matrix(
            1,
            &Matrix::from_data(2, 2, vec_out.into_inner()),
        );
        assert!(direct.approx_eq(&lifted, 1e-10));
    }

    #[test]
    fn unitary_programs_are_admissible_and_trace_preserving() {
        let (p, reg, params) = setup("q1 *= RY(a); q1 *= H", &[("a", 1.1)]);
        assert!(is_admissible(&p, &reg, &params, 1e-8));
        let dual_id = dual_apply(&p, &reg, &params, &Matrix::identity(2));
        assert!(dual_id.approx_eq(&Matrix::identity(2), 1e-10), "unital dual");
    }

    #[test]
    fn aborting_programs_are_admissible_but_lossy() {
        let (p, reg, params) = setup(
            "q1 *= H; case M[q1] = 0 -> skip[q1], 1 -> abort[q1] end",
            &[],
        );
        assert!(is_admissible(&p, &reg, &params, 1e-8));
        let dual_id = dual_apply(&p, &reg, &params, &Matrix::identity(2));
        // [[P]]*(I) = |0⟩⟨0| in the X basis — strictly below identity.
        assert!(!dual_id.approx_eq(&Matrix::identity(2), 1e-6));
    }

    #[test]
    fn duality_identity_lemma_d_2() {
        let (p, reg, params) = setup(
            "q1 *= RX(a); while[2] M[q1] = 1 do q1 *= RY(a) done",
            &[("a", 0.9)],
        );
        let obs = Matrix::pauli_z();
        let dual_obs = dual_apply(&p, &reg, &params, &obs);
        for k in 0..2usize {
            let rho = DensityMatrix::from_matrix(1, &Matrix::basis_projector(2, k));
            let lhs = obs.trace_mul(&denote(&p, &reg, &params, &rho).to_matrix());
            let rhs = dual_obs.trace_mul(&rho.to_matrix());
            assert!(lhs.approx_eq(rhs, 1e-10), "basis state {k}");
        }
    }

    #[test]
    fn choi_of_identity_program_is_maximally_entangled_projector() {
        let (p, reg, params) = setup("skip[q1]", &[]);
        let choi = choi_matrix(&p, &reg, &params);
        // J(id) = Σ_{ij} |ii⟩⟨jj| — rank one with trace 2.
        assert!((choi.trace().re - 2.0).abs() < 1e-12);
        assert!(choi.is_psd(1e-9));
        assert!(choi.mul(&choi).approx_eq(&choi.scale(C64::real(2.0)), 1e-9));
    }

    #[test]
    fn two_qubit_program_superoperator_dimensions() {
        let (p, reg, params) = setup("q1, q2 *= RXX(a)", &[("a", 0.2)]);
        let s = superoperator_matrix(&p, &reg, &params);
        assert_eq!(s.rows(), 16);
        assert_eq!(s.cols(), 16);
        assert!(is_admissible(&p, &reg, &params, 1e-8));
    }
}
