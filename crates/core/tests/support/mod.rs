//! The seeded program generator the differential suites share.
//!
//! [`stmt`] draws a random program over three qubits and three parameter
//! names (so parameters repeat within a program): rotations, couplings,
//! controlled rotations, Clifford gates, resets, `skip`, `abort`, one- and
//! two-qubit `case`s, bounded `while` loops and `+`. Every suite that
//! draws from it with the same seed sees the same programs.

use qdp_lang::ast::{Angle, Gate, Stmt, Var};
use qdp_linalg::Pauli;
use rand::rngs::StdRng;
use rand::Rng;

const QUBITS: [&str; 3] = ["q0", "q1", "q2"];
/// Few names, so parameters repeat within a program.
const PARAMS: [&str; 3] = ["a", "b", "c"];

fn qubit(rng: &mut StdRng) -> Var {
    Var::new(QUBITS[rng.gen_range(0..QUBITS.len())])
}

fn qubit_pair(rng: &mut StdRng) -> (Var, Var) {
    let i = rng.gen_range(0..QUBITS.len());
    let j = (i + rng.gen_range(1..QUBITS.len())) % QUBITS.len();
    (Var::new(QUBITS[i]), Var::new(QUBITS[j]))
}

fn qubit_set(rng: &mut StdRng) -> Vec<Var> {
    let (a, b) = qubit_pair(rng);
    if rng.gen::<bool>() {
        vec![a]
    } else {
        vec![a, b]
    }
}

fn axis(rng: &mut StdRng) -> Pauli {
    [Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..3usize)]
}

fn param(rng: &mut StdRng) -> &'static str {
    PARAMS[rng.gen_range(0..PARAMS.len())]
}

fn leaf(rng: &mut StdRng) -> Stmt {
    match rng.gen_range(0..9usize) {
        0 | 1 => Stmt::rot(axis(rng), param(rng), qubit(rng)),
        2 => {
            let (a, b) = qubit_pair(rng);
            Stmt::coupling(axis(rng), param(rng), a, b)
        }
        3 => {
            // A controlled rotation in the input (the iterated rule).
            let (c, t) = qubit_pair(rng);
            let gate = Gate::CRot {
                controls: 1,
                axis: axis(rng),
                angle: Angle::param(param(rng)),
            };
            Stmt::unitary(gate, [c, t])
        }
        4 => Stmt::unitary(Gate::H, [qubit(rng)]),
        5 => Stmt::init(qubit(rng)),
        6 => Stmt::skip(qubit_set(rng)),
        7 => Stmt::abort(qubit_set(rng)),
        _ => {
            let (a, b) = qubit_pair(rng);
            Stmt::unitary(Gate::Cnot, [a, b])
        }
    }
}

pub fn stmt(rng: &mut StdRng, depth: usize) -> Stmt {
    if depth == 0 || rng.gen_range(0..4usize) == 0 {
        return leaf(rng);
    }
    let sub = |rng: &mut StdRng| stmt(rng, depth - 1);
    match rng.gen_range(0..7usize) {
        0 | 1 => Stmt::Seq(Box::new(sub(rng)), Box::new(sub(rng))),
        2 => Stmt::case_qubit(qubit(rng), sub(rng), sub(rng)),
        3 => {
            // A two-qubit measurement: four arms.
            let (a, b) = qubit_pair(rng);
            Stmt::Case {
                qs: vec![a, b],
                arms: (0..4).map(|_| sub(rng)).collect(),
            }
        }
        4 => {
            // Arms free of `;`, `while` and `+`: the transformed case is normal.
            let q = qubit(rng);
            let arm = |rng: &mut StdRng| {
                if rng.gen::<bool>() {
                    leaf(rng)
                } else {
                    Stmt::case_qubit(qubit(rng), leaf(rng), leaf(rng))
                }
            };
            Stmt::case_qubit(q, arm(rng), arm(rng))
        }
        5 => Stmt::while_bounded(qubit(rng), rng.gen_range(1..4u32), sub(rng)),
        _ => Stmt::Sum(Box::new(sub(rng)), Box::new(sub(rng))),
    }
}
