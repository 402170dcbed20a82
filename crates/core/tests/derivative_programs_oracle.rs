//! Exactness of the one-pass derivative builder against its oracle.
//!
//! `transform::derivative_programs` (and so `differentiate_in`, which the
//! engine runs) must return exactly `compile(transform(P))` minus its
//! essentially-aborting programs — the paper's Fig. 4 transformation
//! followed by Fig. 3 compilation — the same programs in the same order,
//! over the same ancilla-extended register. Each normal input also checks
//! Proposition 7.2, `|#∂/∂θj(P)| ≤ OC_j(P)`.
//!
//! Inputs: P1, P2, the `S` and `M` rows of the paper's Table 3,
//! `hardware_efficient_ansatz(6, 2)`, every second-order program of P1 and
//! P2 (controlled-rotation gadgets differentiated again), hand-written
//! all-normal-arm cases, and the shared seeded generator (`support/`).
//! The `L` rows are `#[ignore]`d: the quadratic oracle alone takes about a
//! minute on them in release (`cargo test --release -p qdp-ad --test derivative_programs_oracle
//! -- --ignored`).

use qdp_ad::exec::differentiate_in;
use qdp_ad::transform::{derivative_programs, fresh_ancilla, transform};
use qdp_ad::{differentiate, occurrence_count};
use qdp_lang::ast::{Stmt, Var};
use qdp_lang::{compile, parse_program, Register};
use qdp_vqc::families::paper_instances;
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use qdp_vqc::{p1, p2};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support;
use support::stmt;

/// The oracle: the ancilla `differentiate_in` picks, `compile(transform(P))`
/// minus aborting programs, and the extended register.
fn oracle(program: &Stmt, param: &str, base: &Register) -> (Var, Vec<Stmt>, Register) {
    let mut ancilla = fresh_ancilla(program, param);
    while base.contains(&ancilla) {
        ancilla = Var::new(format!("{}'", ancilla.name()));
    }
    let additive = transform(program, param, &ancilla).expect("fresh ancilla");
    let compiled = compile::compile(&additive)
        .into_iter()
        .filter(|p| !p.essentially_aborts())
        .collect();
    let register = base.with_ancilla_front(ancilla.clone());
    (ancilla, compiled, register)
}

/// Checks every parameter of `program` (plus one it does not use) over
/// `base`; returns the number of (program, parameter) pairs checked.
fn check_in(label: &str, program: &Stmt, base: &Register) -> usize {
    let mut params: Vec<String> = program.parameters().into_iter().collect();
    params.push("unused_param".to_string());
    for param in &params {
        let (ancilla, expected, register) = oracle(program, param, base);
        let direct = derivative_programs(program, param, &ancilla).expect("fresh ancilla");
        assert!(
            direct == expected,
            "{label} ∂/∂{param}: derivative_programs differs from the oracle"
        );
        let diff = differentiate_in(program, param, base).expect("fresh ancilla");
        assert!(
            diff.compiled() == expected.as_slice(),
            "{label} ∂/∂{param}: differentiate_in differs"
        );
        assert_eq!(diff.ext_register(), &register, "{label} ∂/∂{param}");
        // Proposition 7.2 is stated for normal programs: a `+` in the input
        // multiplies the untouched factors of the Sequence rule.
        assert!(
            !program.is_normal() || expected.len() <= occurrence_count(program, param),
            "{label} ∂/∂{param}: Proposition 7.2 violated ({} > OC)",
            expected.len()
        );
    }
    params.len()
}

fn check(label: &str, program: &Stmt) -> usize {
    check_in(label, program, &Register::from_program(program))
}

fn check_paper_rows(size: &str) -> usize {
    let mut pairs = 0;
    for config in paper_instances()
        .into_iter()
        .filter(|c| c.name.contains(size))
    {
        pairs += check(&config.name, &config.build());
    }
    pairs
}

#[test]
fn paper_circuits_match_the_oracle() {
    for (label, program) in [
        ("P1", p1()),
        ("P2", p2()),
        ("HEA(6,2)", hardware_efficient_ansatz(6, 2)),
    ] {
        assert_eq!(check(label, &program), program.parameters().len() + 1);
    }
}

#[test]
fn small_and_medium_paper_rows_match_the_oracle() {
    assert!(check_paper_rows("{S,") > 0);
    assert!(check_paper_rows("{M,") > 0);
}

/// The `L` rows: the quadratic oracle takes about a minute here in release.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn large_paper_rows_match_the_oracle() {
    assert!(check_paper_rows("{L,") > 0);
}

/// Second order: each compiled first-derivative program carries a
/// controlled-rotation gadget, differentiated again over the first
/// derivative's extended register (footnote 7 of the paper).
#[test]
fn second_order_programs_match_the_oracle() {
    for (name, program) in [("P1", p1()), ("P2", p2())] {
        for param in program.parameters() {
            let first = differentiate(&program, &param).expect("fresh ancilla");
            for (i, inner) in first.compiled().iter().enumerate() {
                let label = format!("{name} ∂/∂{param} program {i}");
                check_in(&label, inner, first.ext_register());
            }
        }
    }
}

/// A case whose arms contain no `;`, `while` or `+` transforms to a normal
/// program, which Fig. 3 keeps whole: the inert arm becomes its own
/// `abort[arm ∪ {A}]`, not the fill-and-break pad over the whole case.
#[test]
fn all_normal_arm_cases_stay_whole() {
    let p = parse_program("case M[q1] = 0 -> q2 *= RX(t), 1 -> skip[q2] end").unwrap();
    let a = fresh_ancilla(&p, "t");
    let programs = derivative_programs(&p, "t", &a).unwrap();
    assert_eq!(programs.len(), 1);
    let Stmt::Case { arms, .. } = &programs[0] else {
        panic!("{programs:?}")
    };
    assert_eq!(arms[1], Stmt::abort([a.clone(), Var::new("q2")]));
    check("normal case", &p);

    // One `;` in an arm switches to fill-and-break, padded over the case.
    let p = parse_program("case M[q1] = 0 -> q2 *= RX(t); q2 *= H, 1 -> skip[q2] end").unwrap();
    let programs = derivative_programs(&p, "t", &a).unwrap();
    let Stmt::Case { arms, .. } = &programs[0] else {
        panic!("{programs:?}")
    };
    assert_eq!(
        arms[1],
        Stmt::abort([a.clone(), Var::new("q1"), Var::new("q2")])
    );
    check("broken case", &p);

    for src in [
        "q1 *= H; case M[q1] = 0 -> case M[q2] = 0 -> q2 *= RY(t), 1 -> abort[q2] end, 1 -> q1 *= RZ(t) end; q2 *= RX(t)",
        "case M[q1] = 0 -> abort[q2], 1 -> skip[q2] end; q2 *= RX(t)",
        "case M[q1] = 0 -> q2 *= RX(s), 1 -> q2 := |0> end",
    ] {
        check(src, &parse_program(src).unwrap());
    }
}

#[test]
fn ancilla_collisions_are_reported() {
    let p = parse_program("A_t *= RX(t)").unwrap();
    assert!(derivative_programs(&p, "t", &Var::new("A_t")).is_err());
}

#[test]
fn random_programs_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0D1F_F0A5);
    let (mut pairs, mut nonempty) = (0, 0);
    for case in 0..400 {
        let p = stmt(&mut rng, 4);
        pairs += check(&format!("random program {case}"), &p);
        let base = Register::from_program(&p);
        nonempty += p
            .parameters()
            .iter()
            .filter(|name| {
                !differentiate_in(&p, name, &base)
                    .unwrap()
                    .compiled()
                    .is_empty()
            })
            .count();
    }
    // The stream must exercise real derivative programs, not just aborts.
    assert!(
        nonempty * 4 > pairs,
        "{nonempty} non-empty multisets of {pairs} pairs"
    );
}
