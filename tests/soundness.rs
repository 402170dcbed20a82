//! Property-based soundness tests (Theorem 6.2 and Propositions 3.1, 4.2,
//! 7.2) on randomly generated programs.
//!
//! Programs are drawn over two qubits `q1, q2` and two parameters `a, b`,
//! with sequences, measurement cases and 2-bounded loops up to depth 3 —
//! enough to exercise every differentiation rule in combination. Generation
//! uses a seeded PRNG (the workspace's offline `rand` stand-in), so every run
//! checks the same program sample deterministically; bump `CASES` or add
//! seeds to widen the net.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use qdpl::ad::{differentiate, occurrence_count, semantics, transform};
use qdpl::lang::ast::{Params, Stmt, Var};
use qdpl::lang::{compile, op_sem, parse_program, pretty, wf, Register};
use qdpl::linalg::Pauli;
use qdpl::sim::{DensityMatrix, Observable};

const CASES: usize = 24;

fn rand_axis(rng: &mut StdRng) -> Pauli {
    match rng.gen_range(0..3usize) {
        0 => Pauli::X,
        1 => Pauli::Y,
        _ => Pauli::Z,
    }
}

fn rand_qubit(rng: &mut StdRng) -> &'static str {
    if rng.gen::<bool>() {
        "q1"
    } else {
        "q2"
    }
}

fn rand_param(rng: &mut StdRng) -> &'static str {
    if rng.gen::<bool>() {
        "a"
    } else {
        "b"
    }
}

fn rand_leaf(rng: &mut StdRng) -> Stmt {
    match rng.gen_range(0..5usize) {
        0 => Stmt::rot(rand_axis(rng), rand_param(rng), rand_qubit(rng)),
        1 => Stmt::coupling(rand_axis(rng), rand_param(rng), "q1", "q2"),
        2 => Stmt::unitary(qdpl::lang::Gate::H, [Var::new(rand_qubit(rng))]),
        3 => Stmt::init(rand_qubit(rng)),
        _ => Stmt::skip([Var::new("q1"), Var::new("q2")]),
    }
}

fn rand_stmt(rng: &mut StdRng, depth: usize) -> Stmt {
    if depth == 0 || rng.gen_range(0..3usize) == 0 {
        return rand_leaf(rng);
    }
    match rng.gen_range(0..3usize) {
        0 => Stmt::Seq(
            Box::new(rand_stmt(rng, depth - 1)),
            Box::new(rand_stmt(rng, depth - 1)),
        ),
        1 => {
            let q = rand_qubit(rng);
            Stmt::case_qubit(q, rand_stmt(rng, depth - 1), rand_stmt(rng, depth - 1))
        }
        _ => {
            let q = rand_qubit(rng);
            Stmt::while_bounded(q, 2, rand_stmt(rng, depth - 1))
        }
    }
}

/// Draws the `i`-th well-formed random program of a deterministic stream.
fn wf_program(seed: u64) -> Stmt {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5);
    loop {
        let p = rand_stmt(&mut rng, 3);
        if wf::check(&p).is_ok() {
            return p;
        }
    }
}

fn fixed_input() -> DensityMatrix {
    let mut rho = DensityMatrix::pure_zero(2);
    rho.apply_unitary(&qdpl::linalg::Matrix::hadamard(), &[0]);
    rho.apply_unitary(
        &qdpl::linalg::Matrix::rotation_from_involution(&qdpl::linalg::Matrix::pauli_y(), 0.4),
        &[1],
    );
    rho
}

/// Theorem 6.2 (soundness): the transformed program computes the derivative
/// of the observable semantics, checked against central finite differences
/// for every parameter.
#[test]
fn theorem_6_2_derivative_matches_finite_difference() {
    let full_reg = Register::from_vars([Var::new("q1"), Var::new("q2")]);
    for case in 0..CASES {
        let p = wf_program(case as u64);
        // Re-register the program over both qubits so observables line up.
        let padded = Stmt::Seq(
            Box::new(Stmt::skip([Var::new("q1"), Var::new("q2")])),
            Box::new(p),
        );
        let params = Params::from_pairs([("a", 0.73), ("b", -0.41)]);
        let obs = Observable::pauli_z(2, 1);
        let rho = fixed_input();
        for name in ["a", "b"] {
            let diff = differentiate(&padded, name).expect("differentiable fragment");
            let analytic = diff.derivative(&params, &obs, &rho);
            let numeric = semantics::numeric_derivative(
                &padded, &full_reg, &params, name, &obs, &rho, 1e-5,
            );
            assert!(
                (analytic - numeric).abs() < 5e-6,
                "case {case} ∂/∂{name}: analytic {analytic} vs numeric {numeric}\n{}",
                pretty::to_source(&padded)
            );
        }
    }
}

/// Proposition 3.1: for normal programs the denotational semantics is the
/// sum of the operational trace multiset.
#[test]
fn proposition_3_1_denotation_sums_traces() {
    let reg = Register::from_vars([Var::new("q1"), Var::new("q2")]);
    for case in 0..CASES {
        let p = wf_program(1000 + case as u64);
        let params = Params::from_pairs([("a", 1.2), ("b", 0.3)]);
        let rho = fixed_input();
        let traces = op_sem::trace_multiset(&p, &reg, &params, &rho);
        let summed = op_sem::sum_traces(&traces, 2);
        let direct = qdpl::lang::denot::denote(&p, &reg, &params, &rho);
        assert!(
            summed.approx_eq(&direct, 1e-9),
            "case {case}:\n{}",
            pretty::to_source(&p)
        );
    }
}

/// Proposition 4.2: compilation preserves the non-zero trace multiset of the
/// additive derivative program.
#[test]
fn proposition_4_2_compile_preserves_traces() {
    for case in 0..CASES {
        let p = wf_program(2000 + case as u64);
        let diff = differentiate(&p, "a").expect("differentiable fragment");
        let additive = &transform(&p, diff.param(), diff.ancilla()).expect("fresh ancilla");
        let reg = diff.ext_register().clone();
        let params = Params::from_pairs([("a", 0.9), ("b", -0.2)]);
        let rho = fixed_input().prepend_zero_ancilla();

        let lhs: Vec<DensityMatrix> = op_sem::trace_multiset(additive, &reg, &params, &rho)
            .into_iter()
            .filter(|r| r.trace() > 1e-10)
            .collect();
        let rhs: Vec<DensityMatrix> = compile::compile(additive)
            .iter()
            .flat_map(|q| op_sem::trace_multiset(q, &reg, &params, &rho))
            .filter(|r| r.trace() > 1e-10)
            .collect();
        assert!(
            op_sem::multisets_approx_eq(&lhs, &rhs, 1e-9),
            "case {case}: trace multisets differ: {} vs {}\n{}",
            lhs.len(),
            rhs.len(),
            pretty::to_source(&p)
        );
    }
}

/// Proposition 7.2: the compiled derivative-program count never exceeds the
/// occurrence count.
#[test]
fn proposition_7_2_bound() {
    for case in 0..CASES {
        let p = wf_program(3000 + case as u64);
        for name in ["a", "b"] {
            let m = differentiate(&p, name).expect("differentiable").compiled().len();
            let oc = occurrence_count(&p, name);
            assert!(
                m <= oc,
                "case {case} ∂/∂{name}: |#∂| = {m} > OC = {oc}\n{}",
                pretty::to_source(&p)
            );
        }
    }
}

/// Pretty-printer / parser round trip on random programs.
#[test]
fn pretty_parse_round_trip() {
    for case in 0..CASES {
        let p = wf_program(4000 + case as u64);
        let src = pretty::to_source(&p);
        let reparsed = parse_program(&src)
            .unwrap_or_else(|e| panic!("case {case}: re-parse failed: {e}\nsource:\n{src}"));
        // Equal up to sequence associativity (the parser right-associates).
        assert_eq!(reparsed.normalize_seq(), p.normalize_seq(), "case {case}");
    }
}

/// The compiled multiset of any derivative satisfies the Fig. 3 invariant
/// and contains only normal programs.
#[test]
fn compiled_derivatives_are_normal() {
    for case in 0..CASES {
        let p = wf_program(5000 + case as u64);
        let diff = differentiate(&p, "a").expect("differentiable");
        let additive = transform(&p, diff.param(), diff.ancilla()).expect("fresh ancilla");
        let compiled = compile::compile(&additive);
        assert!(compile::invariant_holds(&compiled), "case {case}");
        assert!(compiled.iter().all(Stmt::is_normal), "case {case}");
    }
}

/// The simplification pass preserves the denotational semantics over the
/// original register and never adds gates.
#[test]
fn simplify_preserves_semantics() {
    let reg = Register::from_vars([Var::new("q1"), Var::new("q2")]);
    for case in 0..CASES {
        let p = wf_program(6000 + case as u64);
        let simplified = qdpl::lang::opt::simplify(&p);
        let params = Params::from_pairs([("a", 0.6), ("b", -1.1)]);
        let rho = fixed_input();
        let before = qdpl::lang::denot::denote(&p, &reg, &params, &rho);
        let after = qdpl::lang::denot::denote(&simplified, &reg, &params, &rho);
        assert!(
            before.approx_eq(&after, 1e-9),
            "case {case}:\n{}",
            pretty::to_source(&p)
        );
        assert!(simplified.gate_count() <= p.gate_count(), "case {case}");
    }
}
