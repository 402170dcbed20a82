//! Oracle suite of the exact adjoint gradient.
//!
//! `GradientEngine::gradient_pure_batch` and
//! `Differentiated::derivative_pure_batch` run the forward program once
//! forward and once backward per branch (`LoweredSet::gradient_batch`).
//! By Theorem 6.2 that is the quantity the paper's derivative programs
//! compute, so the named oracle is each parameter's derivative multiset on
//! its own: `diff.skeleton().lowered().expectation_batch` (each program's
//! exact sweep, summed in multiset order) on `|0⟩⊗ψ` with `Z_A⊗O`.
//! Checked on:
//!
//! * the paper circuits `P1` and `P2`, the 12 `S` rows of Table 3 and
//!   `hardware_efficient_ansatz(6, 2)`: within 1e-12 of the oracle and
//!   within 1e-7 of central finite differences of the forward value;
//! * 400 programs from the shared seeded generator (`support/`: resets,
//!   `abort`, one- and two-qubit `case`s, bounded `while`, `+`, repeated
//!   parameters), more than 200 of them with derivative programs: within
//!   1e-12 of the oracle, and within 1e-7 of finite differences where the
//!   program is normal;
//! * bitwise, under forced 1, 2 and 8 `qdp_par` threads (on a batch large
//!   enough to split into row tiles) and under split, merged and permuted
//!   batches: every row carries the same bits, and `gradient_pure_batch`'s
//!   column `j` is `derivative_pure_batch` for parameter `j`;
//! * the `M` rows, `#[ignore]`d: registers of up to 19 qubits take about
//!   a minute in release (`cargo test --release -p qdp-ad --test
//!   adjoint_oracle -- --ignored`).

use qdp_ad::GradientEngine;
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::C64;
use qdp_sim::{BatchedStates, Observable, StateVector};
use qdp_vqc::families::paper_instances;
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use qdp_vqc::{circuits, task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

mod support;

/// Serializes the file: `set_max_threads` is process-global.
static THREADS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Agreement with the per-parameter multisets.
const ORACLE_TOL: f64 = 1e-12;

/// Agreement with central finite differences at step [`FD_STEP`].
const FD_TOL: f64 = 1e-7;
const FD_STEP: f64 = 1e-5;

fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let norm = amps
        .iter()
        .map(|a| a.re * a.re + a.im * a.im)
        .sum::<f64>()
        .sqrt();
    StateVector::from_amplitudes(
        n,
        amps.into_iter()
            .map(|a| C64::new(a.re / norm, a.im / norm))
            .collect(),
    )
}

fn random_params(rng: &mut StdRng, program: &Stmt) -> Params {
    Params::from_pairs(program.parameters().into_iter().map(|name| {
        (
            name,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        )
    }))
}

fn z_last(program: &Stmt) -> Observable {
    let n = Register::from_program(program).len();
    Observable::pauli_z(n, n - 1)
}

/// `gradient_pure_batch` as `[parameter][row]`, parameters in name order.
fn adjoint_columns(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<Vec<f64>> {
    let rows = engine.gradient_pure_batch(params, obs, batch);
    engine
        .parameters()
        .map(|name| rows.iter().map(|row| row[name]).collect())
        .collect()
}

/// The oracle in the same layout: each parameter's derivative multiset
/// swept program by program on the ancilla-extended batch and observable.
fn oracle_columns(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<Vec<f64>> {
    let (ext_batch, ext_obs) = (batch.prepend_zero_ancilla(), obs.with_ancilla_z());
    engine
        .parameters()
        .map(|name| {
            let skeleton = engine
                .differentiated(name)
                .expect("engine parameter")
                .skeleton();
            let lowered = skeleton.lowered();
            lowered.expectation_batch(&lowered.slot_values(params), &ext_batch, &ext_obs)
        })
        .collect()
}

/// Central finite differences of `value_pure_batch`, `[parameter][row]`.
fn finite_difference_columns(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<Vec<f64>> {
    engine
        .parameters()
        .map(|name| {
            let at = |shift: f64| {
                let mut shifted = params.clone();
                shifted.set(name, params.get(name).expect("parameter value") + shift);
                engine.value_pure_batch(&shifted, obs, batch)
            };
            let (up, down) = (at(FD_STEP), at(-FD_STEP));
            up.iter()
                .zip(&down)
                .map(|(u, d)| (u - d) / (2.0 * FD_STEP))
                .collect()
        })
        .collect()
}

fn assert_close(label: &str, what: &str, got: &[Vec<f64>], want: &[Vec<f64>], tol: f64) {
    assert_eq!(got.len(), want.len(), "{label}: column count");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        for (r, (a, b)) in g.iter().zip(w).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "{label}: parameter {j} row {r}: adjoint {a} vs {what} {b}"
            );
        }
    }
}

fn bits(columns: &[Vec<f64>]) -> Vec<Vec<u64>> {
    columns
        .iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Column `j` of the gradient against parameter `j`'s
/// `derivative_pure_batch`, bit for bit.
fn assert_columns_are_derivatives(
    label: &str,
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
    columns: &[Vec<f64>],
) {
    for (name, column) in engine.parameters().zip(columns) {
        let derivative = engine
            .differentiated(name)
            .expect("engine parameter")
            .derivative_pure_batch(params, obs, batch);
        assert!(
            bits(std::slice::from_ref(column)) == bits(&[derivative]),
            "{label}: gradient column {name} differs from derivative_pure_batch"
        );
    }
}

/// Every row carries the same bits alone, in the two halves of a split,
/// and in reversed order.
fn assert_batch_invariant(
    label: &str,
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    states: &[StateVector],
    whole: &[Vec<f64>],
) {
    let row_bits = |columns: &[Vec<f64>], r: usize| -> Vec<u64> {
        columns.iter().map(|c| c[r].to_bits()).collect()
    };
    let run = |rows: &[StateVector]| {
        adjoint_columns(engine, params, obs, &BatchedStates::from_states(rows))
    };
    let mid = states.len() / 2;
    let (front, back) = (run(&states[..mid]), run(&states[mid..]));
    let reversed: Vec<StateVector> = states.iter().rev().cloned().collect();
    let reversed = run(&reversed);
    for r in 0..states.len() {
        let want = row_bits(whole, r);
        let split = if r < mid {
            row_bits(&front, r)
        } else {
            row_bits(&back, r - mid)
        };
        assert!(split == want, "{label} row {r}: a split batch moved bits");
        assert!(
            row_bits(&reversed, states.len() - 1 - r) == want,
            "{label} row {r}: a permuted batch moved bits"
        );
        let alone = run(std::slice::from_ref(&states[r]));
        assert!(row_bits(&alone, 0) == want, "{label} row {r}: the row alone moved bits");
    }
}

/// The full check on one program and a seeded `rows`-row batch: the
/// oracle, finite differences, batch invariance and the per-parameter
/// entry point, then the bits under forced 1, 2 and 8 threads.
fn check(label: &str, program: &Stmt, obs: &Observable, rows: usize, seed: u64) {
    let engine = GradientEngine::new(program).expect("differentiable");
    let mut rng = StdRng::seed_from_u64(seed);
    let params = random_params(&mut rng, program);
    let n = engine.register().len();
    let states: Vec<StateVector> = (0..rows).map(|_| random_state(&mut rng, n)).collect();
    let batch = BatchedStates::from_states(&states);
    let got = adjoint_columns(&engine, &params, obs, &batch);
    assert_close(
        label,
        "multiset",
        &got,
        &oracle_columns(&engine, &params, obs, &batch),
        ORACLE_TOL,
    );
    assert_close(
        label,
        "finite differences",
        &got,
        &finite_difference_columns(&engine, &params, obs, &batch),
        FD_TOL,
    );
    assert_batch_invariant(label, &engine, &params, obs, &states, &got);
    assert_columns_are_derivatives(label, &engine, &params, obs, &batch, &got);
    let expected = bits(&got);
    let _guard = serialized();
    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let again = bits(&adjoint_columns(&engine, &params, obs, &batch));
        qdp_par::set_max_threads(0);
        assert!(again == expected, "{label}: bits moved at {threads} threads");
    }
}

#[test]
fn paper_circuits_match_the_multisets() {
    check("P1", &circuits::p1(), &task::readout_observable(), 16, 0xAD1);
    check("P2", &circuits::p2(), &task::readout_observable(), 16, 0xAD2);
    check(
        "HEA(6,2)",
        &hardware_efficient_ansatz(6, 2),
        &Observable::pauli_z(6, 0),
        16,
        0xAD3,
    );
}

/// 112 rows × 64 amplitudes × 40 ops: enough work for the sweep to split
/// into row tiles once threads are allowed.
#[test]
fn row_tiles_carry_the_bits_of_one_block() {
    let program = hardware_efficient_ansatz(6, 2);
    let engine = GradientEngine::new(&program).expect("differentiable");
    let ops: usize = engine
        .forward_skeleton()
        .lowered()
        .programs()
        .iter()
        .map(|p| p.op_weight())
        .sum();
    let rows = 112;
    assert!(
        rows * 64 * ops >= qdp_par::FORK_MIN_WORK,
        "the batch must be large enough to tile"
    );
    check("HEA(6,2) tiled", &program, &Observable::pauli_z(6, 5), rows, 0xAD4);
}

#[test]
fn small_paper_rows_match_the_multisets() {
    let rows: Vec<_> = paper_instances()
        .into_iter()
        .filter(|c| c.name.contains("{S,"))
        .collect();
    assert_eq!(rows.len(), 12);
    for (i, config) in rows.iter().enumerate() {
        let program = config.build();
        check(&config.name, &program, &z_last(&program), 6, 0xAD00 + i as u64);
    }
}

/// The `M` rows: 12- and 18-qubit programs, one row each, against the
/// multisets on 13- and 19-qubit extended registers.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn medium_paper_rows_match_the_multisets() {
    for (i, config) in paper_instances()
        .into_iter()
        .filter(|c| c.name.contains("{M,"))
        .enumerate()
    {
        let program = config.build();
        let engine = GradientEngine::new(&program).expect("differentiable");
        let mut rng = StdRng::seed_from_u64(0xAD40 + i as u64);
        let params = random_params(&mut rng, &program);
        let batch = BatchedStates::from_states(&[random_state(&mut rng, engine.register().len())]);
        let obs = z_last(&program);
        let got = adjoint_columns(&engine, &params, &obs, &batch);
        assert_close(
            &config.name,
            "multiset",
            &got,
            &oracle_columns(&engine, &params, &obs, &batch),
            ORACLE_TOL,
        );
        let _guard = serialized();
        for threads in [1usize, 2, 8] {
            qdp_par::set_max_threads(threads);
            let again = bits(&adjoint_columns(&engine, &params, &obs, &batch));
            qdp_par::set_max_threads(0);
            assert!(
                again == bits(&got),
                "{}: bits moved at {threads} threads",
                config.name
            );
        }
    }
}

#[test]
fn generated_programs_match_the_multisets() {
    let mut rng = StdRng::seed_from_u64(0xAD_5EED);
    let (mut nonempty, mut differenced) = (0, 0);
    for case in 0..400 {
        let program = support::stmt(&mut rng, 4);
        let engine = GradientEngine::new(&program).expect("fresh ancilla");
        let n = engine.register().len();
        let params = random_params(&mut rng, &program);
        let obs = Observable::pauli_z(n, rng.gen_range(0..n));
        let states: Vec<StateVector> = (0..5).map(|_| random_state(&mut rng, n)).collect();
        let batch = BatchedStates::from_states(&states);
        let label = format!("program {case} {program:?}");
        let got = adjoint_columns(&engine, &params, &obs, &batch);
        assert_close(
            &label,
            "multiset",
            &got,
            &oracle_columns(&engine, &params, &obs, &batch),
            ORACLE_TOL,
        );
        if program.is_normal() {
            assert_close(
                &label,
                "finite differences",
                &got,
                &finite_difference_columns(&engine, &params, &obs, &batch),
                FD_TOL,
            );
            differenced += 1;
        }
        assert_batch_invariant(&label, &engine, &params, &obs, &states, &got);
        assert_columns_are_derivatives(&label, &engine, &params, &obs, &batch, &got);
        nonempty += usize::from(engine.total_programs() > 0);
    }
    // The stream must exercise real derivative programs, not just aborts.
    assert!(
        nonempty > 200,
        "{nonempty} of 400 programs have derivative programs"
    );
    assert!(
        differenced > 200,
        "{differenced} of 400 programs checked against finite differences"
    );
}

/// A parameter the program does not use has the zero derivative, and the
/// gradient map keys exactly the program's parameters.
#[test]
fn gradient_rows_key_every_parameter() {
    let program = circuits::p2();
    let engine = GradientEngine::new(&program).expect("differentiable");
    let mut rng = StdRng::seed_from_u64(0xAD6);
    let params = random_params(&mut rng, &program);
    let batch = BatchedStates::from_states(&[random_state(&mut rng, 4)]);
    let rows: Vec<BTreeMap<String, f64>> =
        engine.gradient_pure_batch(&params, &task::readout_observable(), &batch);
    assert_eq!(
        rows[0].keys().cloned().collect::<Vec<_>>(),
        engine.parameters().map(str::to_string).collect::<Vec<_>>()
    );
    let unused = qdp_ad::differentiate(&program, "not_a_parameter").expect("differentiable");
    assert_eq!(
        unused.derivative_pure_batch(&params, &task::readout_observable(), &batch),
        vec![0.0]
    );
}
