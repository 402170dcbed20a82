//! Differential tests of the batched evaluation engine against the serial
//! per-sample oracle (`support/oracle.rs`: the AST interpreter per row) —
//! the oracle every future backend inherits.
//!
//! Randomized circuits (up to 8 qubits, up to 24 parameters, with and
//! without measurement control flow) are evaluated on random input batches
//! of sizes 1, 2, 16, and 33 (the off-by-one-past-a-power-of-two size
//! exercises the batch's power-of-two block decomposition). For each
//! circuit the suite asserts:
//!
//! * batched forward values, per-parameter derivatives, full gradients,
//!   and the chain-ruled training loss/gradient all match the serial
//!   per-sample loop to `1e-12`,
//! * the batched results are **bitwise** identical under forced 1-, 2-,
//!   and 8-thread `qdp_par` configurations, and
//! * every single-input engine call carries, bit for bit, row 0 of its
//!   batched form on a batch of one.

use qdp_ad::{differentiate, GradientEngine};
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_lang::Register;
use qdp_linalg::{C64, Pauli};
use qdp_sim::{BatchedStates, Observable, StateVector};
use qdp_vqc::families::paper_instances;
use qdp_vqc::{circuits, task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[path = "support/oracle.rs"]
mod oracle;

/// Serializes **every** test in this binary: `set_max_threads` is
/// process-global (a concurrently running sibling test could reset it
/// mid-run, silently undoing the forced configuration), so the
/// determinism test below must never overlap any other parallel work.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const TOL: f64 = 1e-12;
const BATCH_SIZES: [usize; 4] = [1, 2, 16, 33];

fn var(i: usize) -> Var {
    Var::new(format!("q{}", i + 1))
}

/// A random program over `n` qubits drawing parameterized rotations and
/// couplings from `params`; with `branching`, it also sprinkles in
/// measurement `case`s, `q := |0⟩` resets, and bounded `while` loops — the
/// constructs that force the batched executor off its fused straight-line
/// fast path.
fn random_program(
    rng: &mut StdRng,
    n: usize,
    params: &[String],
    len: usize,
    branching: bool,
) -> Stmt {
    let axes = [Pauli::X, Pauli::Y, Pauli::Z];
    let mut stmts: Vec<Stmt> = Vec::with_capacity(len);
    // Touch every qubit once so the register spans all n qubits.
    for q in 0..n {
        stmts.push(Stmt::unitary(Gate::H, [var(q)]));
    }
    for _ in 0..len {
        let param = params[rng.gen_range(0..params.len())].clone();
        let axis = axes[rng.gen_range(0..3usize)];
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..if branching { 10usize } else { 6usize }) {
            0..=2 => stmts.push(Stmt::rot(axis, param, var(q))),
            3 => {
                // Constant-offset angle: exercises parameterless slots.
                stmts.push(Stmt::unitary(
                    Gate::Rot {
                        axis,
                        angle: Angle {
                            param: Some(param),
                            offset: std::f64::consts::PI / 2.0,
                        },
                    },
                    [var(q)],
                ));
            }
            4 if n >= 2 => {
                let mut q2 = rng.gen_range(0..n);
                while q2 == q {
                    q2 = rng.gen_range(0..n);
                }
                stmts.push(Stmt::unitary(
                    Gate::Coupling {
                        axis,
                        angle: Angle::param(param),
                    },
                    [var(q), var(q2)],
                ));
            }
            5 => stmts.push(Stmt::unitary(Gate::H, [var(q)])),
            6 => stmts.push(Stmt::init(var(q))),
            7 | 8 => {
                let other = params[rng.gen_range(0..params.len())].clone();
                stmts.push(Stmt::Case {
                    qs: vec![var(q)],
                    arms: vec![
                        Stmt::rot(axis, param, var((q + 1) % n)),
                        Stmt::rot(axes[rng.gen_range(0..3usize)], other, var(q)),
                    ],
                });
            }
            _ => stmts.push(Stmt::while_bounded(
                var(q),
                2,
                Stmt::rot(axis, param, var(q)),
            )),
        }
    }
    Stmt::seq(stmts)
}

/// A random normalised pure state on `n` qubits.
fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let dim = 1usize << n;
    let mut amps: Vec<C64> = (0..dim)
        .map(|_| C64::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    StateVector::from_amplitudes(n, amps)
}

fn random_valuation(rng: &mut StdRng, names: &[String]) -> Params {
    Params::from_pairs(
        names
            .iter()
            .map(|name| (name.clone(), rng.gen::<f64>() * std::f64::consts::TAU)),
    )
}

struct Case {
    engine: GradientEngine,
    register: Register,
    params: Params,
    obs: Observable,
}

/// The randomized circuit family under test: small/branching/wide-register
/// configurations, up to 8 qubits and 24 parameters.
fn cases() -> Vec<Case> {
    let configs: [(u64, usize, usize, usize, bool); 4] = [
        // (seed, qubits, params, ops, branching)
        (11, 2, 3, 10, false),
        (23, 4, 8, 16, true),
        (37, 5, 24, 26, false),
        (59, 8, 6, 12, true),
    ];
    configs
        .into_iter()
        .map(|(seed, n, n_params, len, branching)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let names: Vec<String> = (0..n_params).map(|i| format!("t{i}")).collect();
            let program = random_program(&mut rng, n, &names, len, branching);
            let register = Register::from_program(&program);
            let engine = GradientEngine::new(&program).expect("random programs differentiable");
            let params = random_valuation(&mut rng, &names);
            let obs = Observable::pauli_z(register.len(), rng.gen_range(0..register.len()));
            Case {
                engine,
                register,
                params,
                obs,
            }
        })
        .collect()
}

fn random_batch(rng: &mut StdRng, n: usize, rows: usize) -> Vec<StateVector> {
    (0..rows).map(|_| random_state(rng, n)).collect()
}

#[test]
fn batched_forward_values_match_serial_path() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xF0);
    for (ci, case) in cases().iter().enumerate() {
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            let batched = case.engine.value_pure_batch(&case.params, &case.obs, &batch);
            assert_eq!(batched.len(), rows);
            for (r, psi) in states.iter().enumerate() {
                let serial = oracle::value(&case.engine, &case.params, &case.obs, psi);
                assert!(
                    (batched[r] - serial).abs() < TOL,
                    "case {ci} rows {rows} row {r}: batched {} vs serial {serial}",
                    batched[r]
                );
            }
        }
    }
}

#[test]
fn batched_derivatives_match_serial_path() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xD1);
    for (ci, case) in cases().iter().enumerate() {
        // One representative parameter per circuit keeps the run fast while
        // gradients (below) cover all of them.
        let param = case.engine.parameters().next().expect("has parameters");
        let diff = differentiate(case.engine.program(), param).unwrap();
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            let batched = diff.derivative_pure_batch(&case.params, &case.obs, &batch);
            for (r, psi) in states.iter().enumerate() {
                let serial = oracle::derivative(&diff, &case.params, &case.obs, psi);
                assert!(
                    (batched[r] - serial).abs() < TOL,
                    "case {ci} ∂/∂{param} rows {rows} row {r}: batched {} vs serial {serial}",
                    batched[r]
                );
            }
        }
    }
}

#[test]
fn batched_gradients_match_serial_path_entrywise() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xA7);
    for (ci, case) in cases().iter().enumerate() {
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            let batched = case
                .engine
                .gradient_pure_batch(&case.params, &case.obs, &batch);
            assert_eq!(batched.len(), rows);
            for (r, psi) in states.iter().enumerate() {
                let serial = oracle::gradient(&case.engine, &case.params, &case.obs, psi);
                assert_eq!(batched[r].len(), serial.len());
                for (name, s) in &serial {
                    let b = batched[r][name];
                    assert!(
                        (b - s).abs() < TOL,
                        "case {ci} rows {rows} row {r} ∂/∂{name}: batched {b} vs serial {s}"
                    );
                }
            }
        }
    }
}

/// The full training computation — squared loss chain-ruled through the
/// batch — against the per-sample loop `Trainer::loss_gradient` ran before
/// the batch engine existed.
#[test]
fn batched_loss_and_loss_gradient_match_serial_loop() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for (ci, case) in cases().iter().enumerate() {
        let rows = 16;
        let states = random_batch(&mut rng, case.register.len(), rows);
        let labels: Vec<f64> = (0..rows).map(|_| f64::from(rng.gen::<bool>())).collect();
        let batch = BatchedStates::from_states(&states);

        // Serial reference: per-sample forward + per-sample gradient.
        let mut serial_loss = 0.0;
        let mut serial_grads: BTreeMap<String, f64> = case
            .engine
            .parameters()
            .map(|name| (name.to_string(), 0.0))
            .collect();
        for (psi, label) in states.iter().zip(&labels) {
            let pred = oracle::value(&case.engine, &case.params, &case.obs, psi);
            serial_loss += (pred - label) * (pred - label);
            let outer = 2.0 * (pred - label);
            for (name, g) in oracle::gradient(&case.engine, &case.params, &case.obs, psi) {
                *serial_grads.get_mut(&name).unwrap() += outer * g;
            }
        }

        // Batched: one forward sweep + one gradient sweep.
        let preds = case.engine.value_pure_batch(&case.params, &case.obs, &batch);
        let batched_loss: f64 = preds
            .iter()
            .zip(&labels)
            .map(|(&p, &l)| (p - l) * (p - l))
            .sum();
        let grad_rows = case
            .engine
            .gradient_pure_batch(&case.params, &case.obs, &batch);
        let mut batched_grads: BTreeMap<String, f64> = serial_grads
            .keys()
            .map(|k| (k.clone(), 0.0))
            .collect();
        for (row, (&pred, &label)) in grad_rows.iter().zip(preds.iter().zip(&labels)) {
            let outer = 2.0 * (pred - label);
            for (name, g) in row {
                *batched_grads.get_mut(name).unwrap() += outer * g;
            }
        }

        assert!(
            (batched_loss - serial_loss).abs() < TOL,
            "case {ci} loss: batched {batched_loss} vs serial {serial_loss}"
        );
        for (name, s) in &serial_grads {
            let b = batched_grads[name];
            assert!(
                (b - s).abs() < TOL,
                "case {ci} dL/d{name}: batched {b} vs serial {s}"
            );
        }
    }
}

/// Batched evaluation must be **bitwise** reproducible under forced 1-, 2-,
/// and 8-thread `qdp_par` configurations — the deterministic-split
/// discipline of the kernels and the order-preserving reductions guarantee
/// it, and CI runs the whole suite under `QDP_PAR_THREADS=1` and `=8` to
/// keep it that way.
#[test]
fn batched_results_are_bitwise_deterministic_across_thread_counts() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for (ci, case) in cases().iter().enumerate() {
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            type GradBits = Vec<Vec<(String, u64)>>;
            let mut runs: Vec<(Vec<u64>, GradBits)> = Vec::new();
            for threads in [1usize, 2, 8] {
                qdp_par::set_max_threads(threads);
                let values: Vec<u64> = case
                    .engine
                    .value_pure_batch(&case.params, &case.obs, &batch)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let grads: Vec<Vec<(String, u64)>> = case
                    .engine
                    .gradient_pure_batch(&case.params, &case.obs, &batch)
                    .iter()
                    .map(|row| row.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect())
                    .collect();
                runs.push((values, grads));
            }
            qdp_par::set_max_threads(0); // restore auto-detection
            assert_eq!(runs[0], runs[1], "case {ci} rows {rows}: 1 vs 2 threads");
            assert_eq!(runs[1], runs[2], "case {ci} rows {rows}: 2 vs 8 threads");
        }
    }
}

#[test]
fn batched_engine_apis_match_per_row_paths() {
    let _guard = serialized();
    let p = qdp_lang::parse_program(
        "q1 *= RX(a); case M[q1] = 0 -> q2 *= RY(b), 1 -> q2 *= RZ(a) end",
    )
    .unwrap();
    let engine = GradientEngine::new(&p).unwrap();
    let params = Params::from_pairs([("a", 0.5), ("b", 1.4)]);
    let obs = Observable::projector_one(2, 1);
    let rows: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(2, k)).collect();
    let batch = BatchedStates::from_states(&rows);

    let values = engine.value_pure_batch(&params, &obs, &batch);
    let grads = engine.gradient_pure_batch(&params, &obs, &batch);
    assert_eq!(values.len(), 4);
    assert_eq!(grads.len(), 4);
    for (r, psi) in rows.iter().enumerate() {
        let value = oracle::value(&engine, &params, &obs, psi);
        assert!((values[r] - value).abs() < TOL, "row {r} forward");
        let serial = oracle::gradient(&engine, &params, &obs, psi);
        assert_eq!(grads[r].len(), serial.len());
        for (name, v) in &serial {
            // 1e-12 tolerance, not bit equality: the batched straight-line
            // path fuses commuting rotations, which reorders rounding.
            assert!(
                (grads[r][name] - v).abs() < TOL,
                "row {r} ∂/∂{name}: batched {} vs per-row {v}",
                grads[r][name]
            );
        }
    }
}

#[test]
fn batched_derivative_matches_per_row_derivative() {
    // Three adjacent rotations on one qubit force genuine 2×2 fusion
    // products in the batched path, so agreement is numerical (1e-12),
    // not bitwise.
    let _guard = serialized();
    let p = qdp_lang::parse_program("q1 *= RX(t); q1 *= RY(u); q1 *= RZ(t)").unwrap();
    let diff = differentiate(&p, "t").unwrap();
    let params = Params::from_pairs([("t", 0.35), ("u", 1.21)]);
    let obs = Observable::pauli_z(1, 0);
    let rows = vec![StateVector::zero_state(1), StateVector::basis_state(1, 1)];
    let batch = BatchedStates::from_states(&rows);
    let batched = diff.derivative_pure_batch(&params, &obs, &batch);
    for (r, psi) in rows.iter().enumerate() {
        let serial = oracle::derivative(&diff, &params, &obs, psi);
        assert!(
            (batched[r] - serial).abs() < TOL,
            "row {r}: batched {} vs per-row {serial}",
            batched[r]
        );
    }
}

/// A gradient's bits, parameters in name order.
fn gradient_bits(gradient: &BTreeMap<String, f64>) -> Vec<(String, u64)> {
    gradient.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
}

/// Every single-input engine call is row 0 of its batched form on a batch
/// of one, bit for bit — on `P1`, `P2` and `QNN_{S,w}` (bounded `while`
/// loops), under forced 1, 2 and 8 threads.
#[test]
fn single_input_calls_are_row_zero_of_a_batch_of_one() {
    let _guard = serialized();
    let s_row = paper_instances()
        .into_iter()
        .find(|c| c.name == "QNN_{S,w}")
        .expect("the S,w row exists")
        .build();
    let s_qubits = Register::from_program(&s_row).len();
    let programs = [
        ("P1", circuits::p1(), task::readout_observable()),
        ("P2", circuits::p2(), task::readout_observable()),
        ("QNN_{S,w}", s_row, Observable::pauli_z(s_qubits, s_qubits - 1)),
    ];
    let mut rng = StdRng::seed_from_u64(0x1A0);
    let mut shift_rows = 0;
    for (label, program, obs) in programs {
        let engine = GradientEngine::new(&program).expect("differentiable");
        let names: Vec<String> = engine.parameters().map(str::to_string).collect();
        let params = random_valuation(&mut rng, &names);
        let psi = random_state(&mut rng, engine.register().len());
        let one = BatchedStates::gather(&[&psi]);
        let inputs = std::slice::from_ref(&psi);
        for threads in [1usize, 2, 8] {
            qdp_par::set_max_threads(threads);
            let at = format!("{label} at {threads} threads");
            assert_eq!(
                engine.value_pure(&params, &obs, &psi).to_bits(),
                engine.value_pure_batch(&params, &obs, &one)[0].to_bits(),
                "value_pure on {at}"
            );
            assert_eq!(
                gradient_bits(&engine.gradient_pure(&params, &obs, &psi)),
                gradient_bits(&engine.gradient_pure_batch(&params, &obs, &one)[0]),
                "gradient_pure on {at}"
            );
            for name in &names {
                let diff = engine.differentiated(name).expect("engine parameter");
                assert_eq!(
                    diff.derivative_pure(&params, &obs, &psi).to_bits(),
                    diff.derivative_pure_batch(&params, &obs, &one)[0].to_bits(),
                    "derivative_pure ∂/∂{name} on {at}"
                );
            }
            if engine.shift_rule_eligible() {
                shift_rows += 1;
                assert_eq!(
                    gradient_bits(&engine.gradient_pure_shift(&params, &obs, &psi)),
                    gradient_bits(&engine.gradient_pure_shift_batch(&params, &obs, &one)[0]),
                    "gradient_pure_shift on {at}"
                );
            }
            assert_eq!(
                engine.value_pure_shots(&params, &obs, &psi, 256, 0x5EED).to_bits(),
                engine.value_pure_shots_batch(&params, &obs, inputs, 256, &[0x5EED])[0].to_bits(),
                "value_pure_shots on {at}"
            );
            assert_eq!(
                gradient_bits(&engine.gradient_pure_shots(&params, &obs, &psi, 64, 0x5EED)),
                gradient_bits(
                    &engine.gradient_pure_shots_batch(&params, &obs, inputs, 64, &[0x5EED])[0]
                ),
                "gradient_pure_shots on {at}"
            );
        }
        qdp_par::set_max_threads(0);
    }
    assert!(shift_rows > 0, "no case exercised the shift rule");
}
