//! The per-row exact oracles the batched-evaluation suites compare against,
//! and the bitwise own-matrix oracle of the lowering.
//!
//! The single-input engine calls (`value_pure`, `derivative_pure`,
//! `gradient_pure`) are rows of the batched sweeps (the exact sweep for
//! values, the adjoint for derivatives), so a suite that checks the batch against
//! them would compare a sweep with itself. These
//! helpers evaluate one input row with the AST interpreter instead:
//! derivatives sum `denot::expectation_pure` over the parameter's compiled
//! multiset on `|0⟩⊗ψ` against `O.with_ancilla_z()`, and forward values run
//! the program itself.
//!
//! [`trajectory`] builds a program's `TrajProgram` straight from its AST
//! at one valuation, every gate its own matrix, without going through
//! `LoweredSet::lower`.

// Each suite includes this file and uses the helpers it needs.
#![allow(dead_code)]

use qdp_ad::{Differentiated, GradientEngine};
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::{denot, Register};
use qdp_sim::{Measurement, Observable, StateVector, TrajProgram};
use std::collections::BTreeMap;

/// `⟨O⟩` on the program's output from `psi`, by the AST interpreter.
pub fn value(engine: &GradientEngine, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
    denot::expectation_pure(engine.program(), engine.register(), params, psi, obs)
}

/// `∂⟨O⟩/∂θ` on `psi` (Eq. 7.1): each compiled derivative program's
/// interpreted expectation, summed in multiset order.
pub fn derivative(diff: &Differentiated, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
    let ext_psi = StateVector::zero_state(1).tensor(psi);
    let ext_obs = obs.with_ancilla_z();
    diff.compiled()
        .iter()
        .map(|p| denot::expectation_pure(p, diff.ext_register(), params, &ext_psi, &ext_obs))
        .sum()
}

/// [`derivative`] for every parameter of the engine, keyed by name.
pub fn gradient(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    psi: &StateVector,
) -> BTreeMap<String, f64> {
    engine
        .parameters()
        .map(|name| {
            let diff = engine.differentiated(name).expect("engine parameter");
            (name.to_string(), derivative(diff, params, obs, psi))
        })
        .collect()
}

/// The normal program `stmt` over `reg` as a [`TrajProgram`] at the
/// valuation `params`: each gate with its own `Gate::matrix(params)`, each
/// `case` a computational measurement, each reset a measured flip, each
/// `while` unfolded. A parameterised gate's angle is `base + offset`, as
/// the lowering's matrix table computes it, so the program runs bit for bit
/// as the lowered one bound to the same valuation.
///
/// # Panics
///
/// Panics on a program with `+`, or when a used parameter has no value.
pub fn trajectory(stmt: &Stmt, reg: &Register, params: &Params) -> TrajProgram {
    let mut out = TrajProgram::new();
    push(stmt, reg, params, &mut out);
    out
}

fn push(stmt: &Stmt, reg: &Register, params: &Params, out: &mut TrajProgram) {
    match stmt {
        Stmt::Skip { .. } => {}
        Stmt::Abort { .. } => out.push_abort(),
        Stmt::Init { q } => out.push_init(reg.indices_of(std::slice::from_ref(q))[0]),
        Stmt::Unitary { gate, qs } => out.push_gate(gate.matrix(params), reg.indices_of(qs)),
        Stmt::Seq(a, b) => {
            push(a, reg, params, out);
            push(b, reg, params, out);
        }
        Stmt::Case { qs, arms } => out.push_case(
            Measurement::computational(reg.indices_of(qs)),
            arms.iter().map(|arm| trajectory(arm, reg, params)).collect(),
        ),
        Stmt::While { .. } => push(&stmt.unfold_while_once(), reg, params, out),
        Stmt::Sum(..) => panic!("a program with `+` has no trajectory; compile it first"),
    }
}
