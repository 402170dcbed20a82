//! Observable and differential semantics (Section 5 of the paper).
//!
//! * **Observable semantics** (Definition 5.1): for an observable `O` and an
//!   input `ρ`, the program denotes the function
//!   `θ* ↦ tr(O · [[P(θ*)]]ρ)`. For an additive program, the value is the
//!   *sum* over its compiled multiset (Eq. 5.4).
//! * **Observable semantics with ancilla** (Definition 5.2): programs over
//!   `v ∪ {A}` read out `tr((OA ⊗ O) · [[P′]](|0⟩A⟨0| ⊗ ρ))`, with `OA = ZA`
//!   fixed as in the soundness proof.
//! * **Differential semantics** (Definition 5.3): `S′` computes the `j`-th
//!   differential semantics of `S` iff the above equals
//!   `∂/∂θj tr(O · [[S]]ρ)` for *every* `O` and `ρ` — the strongest possible
//!   quantifier order, which is what makes composition work.

use qdp_lang::ast::{Params, Stmt};
use qdp_lang::{denot, Register};
use qdp_sim::{DensityMatrix, Observable};

/// Observable semantics `[[(O, ρ) → P(θ*)]] = tr(O · [[P(θ*)]]ρ)`
/// (Definition 5.1) of a normal program.
///
/// # Panics
///
/// Panics when `stmt` is additive; an additive program's value is the sum
/// over its compiled multiset ([`qdp_lang::compile::compile`], Eq. 5.4).
pub fn observable_semantics(
    stmt: &Stmt,
    reg: &Register,
    params: &Params,
    obs: &Observable,
    rho: &DensityMatrix,
) -> f64 {
    obs.expectation(&denot::denote(stmt, reg, params, rho))
}

/// Observable semantics **with ancilla** (Definition 5.2):
/// `tr((ZA ⊗ O) · [[P′(θ*)]]((|0⟩A⟨0|) ⊗ ρ))`, where `P′` runs on the
/// extended register (`ancilla` at index 0) and `O`/`ρ` live on the base
/// register.
///
/// # Panics
///
/// Panics when `stmt` is additive or register sizes are inconsistent.
pub fn observable_semantics_with_ancilla(
    stmt: &Stmt,
    ext_reg: &Register,
    params: &Params,
    obs: &Observable,
    rho: &DensityMatrix,
) -> f64 {
    assert_eq!(
        ext_reg.len(),
        rho.num_qubits() + 1,
        "extended register must have exactly one more qubit than the input state"
    );
    let ext_obs = obs.with_ancilla_z();
    let ext_rho = rho.prepend_zero_ancilla();
    observable_semantics(stmt, ext_reg, params, &ext_obs, &ext_rho)
}

/// Central finite difference `(f(x+h) − f(x−h)) / 2h` — the numerical oracle
/// the soundness tests compare differential semantics against.
pub fn central_difference(mut f: impl FnMut(f64) -> f64, x: f64, h: f64) -> f64 {
    (f(x + h) - f(x - h)) / (2.0 * h)
}

/// The derivative of the observable semantics of a normal program with
/// respect to `param`, computed *numerically* (Definition 5.3's right-hand
/// side). Used as the reference in tests and benchmarks.
pub fn numeric_derivative(
    stmt: &Stmt,
    reg: &Register,
    params: &Params,
    param: &str,
    obs: &Observable,
    rho: &DensityMatrix,
    h: f64,
) -> f64 {
    let base = params
        .get(param)
        .unwrap_or_else(|| panic!("parameter '{param}' has no value"));
    central_difference(
        |x| {
            let mut shifted = params.clone();
            shifted.set(param, x);
            observable_semantics(stmt, reg, &shifted, obs, rho)
        },
        base,
        h,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::parse_program;

    #[test]
    fn observable_semantics_of_rotation() {
        // ⟨Z⟩ after RY(θ)|0⟩ is cos θ.
        let p = parse_program("q1 *= RY(t)").unwrap();
        let reg = Register::from_program(&p);
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        for theta in [0.0, 0.4, 1.2, 2.8] {
            let params = Params::from_pairs([("t", theta)]);
            let val = observable_semantics(&p, &reg, &params, &obs, &rho);
            assert!((val - theta.cos()).abs() < 1e-12, "θ={theta}");
        }
    }

    #[test]
    fn ancilla_semantics_ignores_trivial_ancilla() {
        // A program that never touches the ancilla: ZA reads +1, so the
        // extended semantics equals the plain semantics.
        let p = parse_program("q1 *= RY(t)").unwrap();
        let base_reg = Register::from_program(&p);
        let ext_reg = base_reg.with_ancilla_front("A".into());
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        let params = Params::from_pairs([("t", 0.9)]);
        let plain = observable_semantics(&p, &base_reg, &params, &obs, &rho);
        let ext = observable_semantics_with_ancilla(&p, &ext_reg, &params, &obs, &rho);
        assert!((plain - ext).abs() < 1e-12);
    }

    #[test]
    fn numeric_derivative_matches_cosine() {
        let p = parse_program("q1 *= RY(t)").unwrap();
        let reg = Register::from_program(&p);
        let obs = Observable::pauli_z(1, 0);
        let rho = DensityMatrix::pure_zero(1);
        let params = Params::from_pairs([("t", 0.6)]);
        let d = numeric_derivative(&p, &reg, &params, "t", &obs, &rho, 1e-5);
        assert!((d + 0.6f64.sin()).abs() < 1e-8);
    }

    #[test]
    fn central_difference_of_square() {
        let d = central_difference(|x| x * x, 3.0, 1e-6);
        assert!((d - 6.0).abs() < 1e-6);
    }
}
