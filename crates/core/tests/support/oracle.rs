//! The per-row exact oracles the batched-evaluation suites compare against.
//!
//! The single-input engine calls (`value_pure`, `derivative_pure`,
//! `gradient_pure`) are rows of the batched sweeps (the exact sweep for
//! values, the adjoint for derivatives), so a suite that checks the batch against
//! them would compare a sweep with itself. These
//! helpers evaluate one input row by branch enumeration instead:
//! derivatives sum [`qdp_ad::LoweredProgram::expectation_pure`] over the
//! parameter's lowered multiset on `|0⟩⊗ψ` against `O.with_ancilla_z()`,
//! and forward values run the AST interpreter.

// Each suite includes this file and uses the helpers it needs.
#![allow(dead_code)]

use qdp_ad::{Differentiated, GradientEngine};
use qdp_lang::ast::Params;
use qdp_lang::denot;
use qdp_sim::{Observable, StateVector};
use std::collections::BTreeMap;

/// `⟨O⟩` on the program's output from `psi`, by the AST interpreter.
pub fn value(engine: &GradientEngine, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
    denot::expectation_pure(engine.program(), engine.register(), params, psi, obs)
}

/// `∂⟨O⟩/∂θ` on `psi` (Eq. 7.1): each lowered derivative program's
/// branch-enumerated expectation, summed in multiset order.
pub fn derivative(diff: &Differentiated, params: &Params, obs: &Observable, psi: &StateVector) -> f64 {
    let skeleton = diff.skeleton();
    let lowered = skeleton.lowered();
    let values = lowered.slot_values(params);
    let ext_psi = StateVector::zero_state(1).tensor(psi);
    let ext_obs = obs.with_ancilla_z();
    lowered
        .programs()
        .iter()
        .map(|p| p.expectation_pure(&values, &ext_psi, &ext_obs))
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
