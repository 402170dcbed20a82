//! `GradientEngine::value_and_gradient_batch`, the dense exact entry
//! point, against the keyed calls it replaces in the exact `Trainer`
//! epoch: its values carry `value_pure_batch`'s bits and its gradient rows
//! `gradient_pure_batch`'s maps, bit for bit, in `parameters()` order; a
//! parameter the lowering never reaches reads a zero column. Programs
//! with `+` get values too: by Proposition 3.1 the sum over the compiled
//! multiset, in multiset order, whose central differences agree with the
//! gradient.

use qdp_ad::{DenseEvaluation, GradientEngine};
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::compile::compile;
use qdp_lang::{parse_program, Register};
use qdp_linalg::C64;
use qdp_sim::{BatchedStates, DensityMatrix, Observable, StateVector};
use qdp_vqc::{circuits, task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

mod support;

/// `set_max_threads` is process-global: every test of this binary holds
/// this lock while it runs.
static THREADS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    StateVector::from_amplitudes(n, amps.into_iter().map(|a| a / norm).collect())
}

fn random_batch(rng: &mut StdRng, n: usize, rows: usize) -> BatchedStates {
    let inputs: Vec<StateVector> = (0..rows).map(|_| random_state(rng, n)).collect();
    BatchedStates::from_states(&inputs)
}

/// A value per parameter in `parameters()` order, and the same valuation
/// keyed by name.
fn valuation(engine: &GradientEngine, rng: &mut StdRng) -> (Vec<f64>, Params) {
    let values: Vec<f64> = engine
        .parameters()
        .map(|_| rng.gen_range(-3.0..3.0))
        .collect();
    let params = Params::from_pairs(engine.parameters().zip(values.iter().copied()));
    (values, params)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The dense call against `value_pure_batch` and `gradient_pure_batch`,
/// bit for bit.
fn check_dense(
    label: &str,
    engine: &GradientEngine,
    values: &[f64],
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> DenseEvaluation {
    let dense = engine.value_and_gradient_batch(values, obs, batch);
    assert_eq!(
        bits(dense.values()),
        bits(&engine.value_pure_batch(params, obs, batch)),
        "{label}: values"
    );
    let rows = engine.gradient_pure_batch(params, obs, batch);
    let width = engine.parameters().count();
    assert_eq!(dense.gradient().len(), batch.len() * width, "{label}");
    for (r, row) in rows.iter().enumerate() {
        let keyed: Vec<f64> = engine.parameters().map(|name| row[name]).collect();
        assert_eq!(
            bits(dense.gradient_row(r)),
            bits(&keyed),
            "{label}: row {r}"
        );
    }
    dense
}

#[test]
fn dense_evaluation_carries_the_keyed_bits_on_the_paper_circuits() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xD3);
    let obs = task::readout_observable();
    let inputs: Vec<StateVector> = task::dataset().iter().map(|s| s.input_state()).collect();
    let batch = BatchedStates::from_states(&inputs);
    for (label, program) in [("P1", circuits::p1()), ("P2", circuits::p2())] {
        let engine = GradientEngine::new(&program).unwrap();
        let (values, params) = valuation(&engine, &mut rng);
        let mut first: Option<DenseEvaluation> = None;
        for threads in [1, 2, 8] {
            qdp_par::set_max_threads(threads);
            let dense = check_dense(label, &engine, &values, &params, &obs, &batch);
            // Each column also carries its parameter's own derivative.
            for (j, name) in engine.parameters().enumerate() {
                let column = engine
                    .differentiated(name)
                    .unwrap()
                    .derivative_pure_batch(&params, &obs, &batch);
                for (r, d) in column.iter().enumerate() {
                    assert_eq!(
                        dense.gradient_row(r)[j].to_bits(),
                        d.to_bits(),
                        "{label} {name}"
                    );
                }
            }
            match &first {
                None => first = Some(dense),
                Some(first) => assert_eq!(
                    (bits(first.values()), bits(first.gradient())),
                    (bits(dense.values()), bits(dense.gradient())),
                    "{label}: {threads} threads"
                ),
            }
        }
        qdp_par::set_max_threads(0);
    }
}

#[test]
fn dense_evaluation_carries_the_keyed_bits_on_generated_programs() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xDE45E);
    let mut sums = 0;
    for case in 0..120 {
        let program = support::stmt(&mut rng, 3);
        sums += usize::from(!program.is_normal());
        let engine = GradientEngine::new(&program).unwrap();
        let n = engine.register().len();
        let (values, params) = valuation(&engine, &mut rng);
        let obs = Observable::pauli_z(n, rng.gen_range(0..n));
        let rows = rng.gen_range(1..6usize);
        let batch = random_batch(&mut rng, n, rows);
        check_dense(
            &format!("case {case}: {program}"),
            &engine,
            &values,
            &params,
            &obs,
            &batch,
        );
    }
    assert!(sums >= 10, "only {sums} programs with `+` drawn");
}

#[test]
fn a_parameter_without_a_slot_gets_a_zero_column() {
    let _guard = serialized();
    // The left summand always aborts, so compilation drops it and `a`
    // never reaches the lowering.
    let program = parse_program("q1 *= RX(a); abort[q1] + q1 *= RY(b)").unwrap();
    let engine = GradientEngine::new(&program).unwrap();
    assert_eq!(engine.parameters().collect::<Vec<_>>(), ["a", "b"]);
    let mut rng = StdRng::seed_from_u64(0x2E20);
    let (values, params) = valuation(&engine, &mut rng);
    let obs = Observable::pauli_z(1, 0);
    let batch = random_batch(&mut rng, 1, 3);
    let dense = check_dense("abort + RY", &engine, &values, &params, &obs, &batch);
    for r in 0..batch.len() {
        assert_eq!(
            dense.gradient_row(r)[0].to_bits(),
            0.0f64.to_bits(),
            "row {r}"
        );
        assert_ne!(dense.gradient_row(r)[1], 0.0, "row {r}");
    }
    // The value is the surviving summand's alone.
    let alone = GradientEngine::new(&parse_program("q1 *= RY(b)").unwrap()).unwrap();
    assert_eq!(
        bits(dense.values()),
        bits(&alone.value_pure_batch(&params, &obs, &batch))
    );
}

/// `f(θ)` for each row, one engine per program of the compiled multiset,
/// summed in multiset order.
fn multiset_sum(
    program: &Stmt,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<f64> {
    let reg = Register::from_program(program);
    let columns: Vec<Vec<f64>> = compile(program)
        .iter()
        .map(|p| {
            // Each summand over the whole program's register.
            let lowered = qdp_ad::LoweredSet::lower(std::slice::from_ref(p), &reg);
            lowered.expectation_batch(&lowered.slot_values(params), batch, obs)
        })
        .collect();
    (0..batch.len())
        .map(|r| columns.iter().map(|c| c[r]).sum())
        .collect()
}

#[test]
fn values_of_a_program_with_a_sum_are_the_sum_over_its_compiled_multiset() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0x5E31);
    for src in [
        "q1 *= RX(a) + q1 *= RY(a)",
        "q1 *= RY(a); q2 *= RX(b); case M[q1] = 0 -> q2 *= RY(a), 1 -> q2 := |0> end \
         + q1, q2 *= RZZ(b); q1 *= RY(a) + q2 *= H; q2 *= RX(b)",
    ] {
        let program = parse_program(src).unwrap();
        assert!(!program.is_normal(), "{src}");
        let engine = GradientEngine::new(&program).unwrap();
        let n = engine.register().len();
        let obs = Observable::pauli_z(n, n - 1);
        let batch = random_batch(&mut rng, n, 4);
        let (values, params) = valuation(&engine, &mut rng);

        let value = engine.value_pure_batch(&params, &obs, &batch);
        assert_eq!(
            bits(&value),
            bits(&multiset_sum(&program, &params, &obs, &batch)),
            "{src}"
        );
        let dense = engine.value_and_gradient_batch(&values, &obs, &batch);
        assert_eq!(bits(dense.values()), bits(&value), "{src}");

        // The single-input and density forms agree with the batch.
        let psi = batch.row_state(0);
        assert_eq!(
            engine.value_pure(&params, &obs, &psi).to_bits(),
            value[0].to_bits()
        );
        let on_rho = engine.value(&params, &obs, &DensityMatrix::from_pure(&psi));
        assert!(
            (on_rho - value[0]).abs() < 1e-12,
            "{src}: {on_rho} vs {}",
            value[0]
        );

        // Central differences of the value match the adjoint gradient.
        let h = 1e-5;
        let gradient = engine.gradient_pure_batch(&params, &obs, &batch);
        for name in engine.parameters() {
            let at = |x: f64| {
                let mut shifted = params.clone();
                shifted.set(name, x);
                engine.value_pure_batch(&shifted, &obs, &batch)
            };
            let x = params.get(name).unwrap();
            let (up, down) = (at(x + h), at(x - h));
            for r in 0..batch.len() {
                let numeric = (up[r] - down[r]) / (2.0 * h);
                let analytic = gradient[r][name];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{src}: d/d{name} row {r}: {numeric} vs {analytic}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "one value per engine parameter")]
fn a_short_valuation_is_rejected() {
    let engine = GradientEngine::new(&parse_program("q1 *= RX(a); q1 *= RY(b)").unwrap()).unwrap();
    let batch = BatchedStates::from_states(&[StateVector::zero_state(1)]);
    engine.value_and_gradient_batch(&[0.1], &Observable::pauli_z(1, 0), &batch);
}
