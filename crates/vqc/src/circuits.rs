//! The case-study circuits of Section 8.1: `Q(Γ)`, `P1(Θ,Φ)`, `P2(Θ,Φ,Ψ)`.
//!
//! `Q(Γ)` is a 4-qubit layer of single-qubit rotations:
//!
//! ```text
//! Q(Γ) ≡ RX(γ1)[q1]; …; RX(γ4)[q4];
//!        RY(γ5)[q1]; …; RY(γ8)[q4];
//!        RZ(γ9)[q1]; …; RZ(γ12)[q4]
//! ```
//!
//! `P1(Θ,Φ) = Q(Θ); Q(Φ)` has no control; `P2(Θ,Φ,Ψ)` replaces the second
//! layer by a measurement-controlled `case` — the construct that gives the
//! paper's training advantage (Fig. 6) and that circuit-only schemes such as
//! the phase-shift rule cannot express.

use qdp_lang::ast::{Stmt, Var};
use qdp_linalg::Pauli;

/// Number of qubits in the case-study circuits.
pub const CASE_STUDY_QUBITS: usize = 4;
/// Number of parameters per `Q` block.
pub const PARAMS_PER_BLOCK: usize = 12;

/// Parameter names `"{prefix}0" .. "{prefix}11"` for one `Q` block.
pub fn block_param_names(prefix: &str) -> Vec<String> {
    (0..PARAMS_PER_BLOCK).map(|i| format!("{prefix}{i}")).collect()
}

/// The rotation block `Q(Γ)` with parameters named `"{prefix}0..11"`.
pub fn q_block(prefix: &str) -> Stmt {
    let names = block_param_names(prefix);
    let mut stmts = Vec::with_capacity(PARAMS_PER_BLOCK);
    for (stage, axis) in [Pauli::X, Pauli::Y, Pauli::Z].into_iter().enumerate() {
        for q in 0..CASE_STUDY_QUBITS {
            stmts.push(Stmt::rot(
                axis,
                names[stage * CASE_STUDY_QUBITS + q].as_str(),
                format!("q{}", q + 1).as_str(),
            ));
        }
    }
    Stmt::seq(stmts)
}

/// `P1(Θ,Φ) ≡ Q(Θ); Q(Φ)` (Eq. 8.1) — 24 parameters `T0..11`, `F0..11`.
pub fn p1() -> Stmt {
    Stmt::seq([q_block("T"), q_block("F")])
}

/// `P2(Θ,Φ,Ψ) ≡ Q(Θ); case M[q1] = 0 → Q(Φ), 1 → Q(Ψ) end` (Eq. 8.2) —
/// 36 parameters `T0..11`, `F0..11`, `S0..11`.
pub fn p2() -> Stmt {
    Stmt::seq([
        q_block("T"),
        Stmt::Case {
            qs: vec![Var::new("q1")],
            arms: vec![q_block("F"), q_block("S")],
        },
    ])
}

/// All parameter names of [`p2`].
pub fn p2_param_names() -> Vec<String> {
    let mut names = block_param_names("T");
    names.extend(block_param_names("F"));
    names.extend(block_param_names("S"));
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_lang::{wf, Register};

    #[test]
    fn q_block_has_12_gates_and_12_params() {
        let b = q_block("T");
        assert_eq!(b.gate_count(), 12);
        assert_eq!(b.parameters().len(), 12);
        wf::check(&b).unwrap();
    }

    #[test]
    fn p1_and_p2_execute_same_gate_count_per_run() {
        // The paper notes P1 and P2 execute the same number of gates per
        // run: each run of P2 takes exactly one case arm.
        let p1 = p1();
        let p2 = p2();
        assert_eq!(p1.gate_count(), 24);
        // Static count includes both arms; per-trace count is 24.
        assert_eq!(p2.gate_count(), 36);
        wf::check(&p1).unwrap();
        wf::check(&p2).unwrap();
    }

    #[test]
    fn parameter_sets_are_disjoint_and_complete() {
        let p2 = p2();
        let params = p2.parameters();
        assert_eq!(params.len(), 36);
        for name in p2_param_names() {
            assert!(params.contains(&name), "{name} missing");
        }
    }

    #[test]
    fn each_parameter_occurs_once() {
        // Key property for the resource analysis: every parameter of the
        // case study occurs exactly once, so |#∂/∂α| = 1 for all α.
        let p = p2();
        for name in p2_param_names() {
            assert_eq!(qdp_ad::occurrence_count(&p, &name), 1, "{name}");
        }
    }

    #[test]
    fn registers_are_four_qubits() {
        assert_eq!(Register::from_program(&p1()).len(), 4);
        assert_eq!(Register::from_program(&p2()).len(), 4);
    }
}
