//! Differential tests of the **branch-weighted exact executor** against the
//! retained per-row branch-enumeration oracle.
//!
//! Randomized *branching* circuits (up to 8 qubits, with measurement
//! `case`s, `q := |0⟩` resets, and bounded `while` loops — every program is
//! guaranteed at least one branch point, so the batched path always runs
//! the branch-weighted sweep, never the straight-line fast path) are
//! evaluated on random input batches of sizes 1, 2, 16, and 33. For each
//! circuit the suite asserts:
//!
//! * batched forward values, per-parameter derivatives (the derivative
//!   multisets the code transformation produces, including while-unroll
//!   cases), and full gradients match the per-row oracle
//!   (`ResolvedProgram::expectation_pure` branch enumeration, and the AST
//!   interpreter for forwards) to `1e-12`,
//! * per-row results are **bitwise** invariant under batch composition and
//!   under forced 1-, 2-, and 8-thread `qdp_par` configurations, and
//! * the surviving **leaf weights of every row sum to 1** on abort-free
//!   programs (the branch tree is trace-preserving), the property pinning
//!   the weight bookkeeping of the regrouping machinery.

use qdp_ad::{differentiate, GradientEngine};
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_lang::Register;
use qdp_linalg::{C64, Pauli};
use qdp_sim::{BatchedStates, Observable, ShotEngine, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes every test in this binary: `set_max_threads` is
/// process-global, so a concurrently running sibling test could reset it
/// mid-run (see `batch_equivalence.rs`).
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

/// A random **branching** program over `n` qubits: parameterized rotations
/// and couplings interleaved with measurement `case`s, `q := |0⟩` resets,
/// and (with `with_while`) bounded `while` loops. The leading `case`
/// guarantees at least one branch point, so these programs can never take
/// the straight-line fast path.
fn random_branching_program(
    rng: &mut StdRng,
    n: usize,
    params: &[String],
    len: usize,
    with_while: bool,
) -> Stmt {
    let axes = [Pauli::X, Pauli::Y, Pauli::Z];
    let mut stmts: Vec<Stmt> = Vec::with_capacity(len + n + 1);
    for q in 0..n {
        stmts.push(Stmt::unitary(Gate::H, [var(q)]));
    }
    // The guaranteed branch point.
    stmts.push(Stmt::Case {
        qs: vec![var(0)],
        arms: vec![
            Stmt::rot(Pauli::Y, params[0].clone(), var(n - 1)),
            Stmt::rot(Pauli::Z, params[params.len() - 1].clone(), var(0)),
        ],
    });
    for _ in 0..len {
        let param = params[rng.gen_range(0..params.len())].clone();
        let axis = axes[rng.gen_range(0..3usize)];
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..10usize) {
            0..=2 => stmts.push(Stmt::rot(axis, param, var(q))),
            3 => stmts.push(Stmt::unitary(
                Gate::Rot {
                    axis,
                    angle: Angle {
                        param: Some(param),
                        offset: std::f64::consts::PI / 2.0,
                    },
                },
                [var(q)],
            )),
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
            5 => stmts.push(Stmt::init(var(q))),
            6 | 7 => {
                let other = params[rng.gen_range(0..params.len())].clone();
                stmts.push(Stmt::Case {
                    qs: vec![var(q)],
                    arms: vec![
                        Stmt::rot(axis, param, var((q + 1) % n)),
                        Stmt::rot(axes[rng.gen_range(0..3usize)], other, var(q)),
                    ],
                });
            }
            _ if with_while => stmts.push(Stmt::while_bounded(
                var(q),
                2,
                Stmt::rot(axis, param, var(q)),
            )),
            _ => stmts.push(Stmt::rot(axis, param, var(q))),
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

fn random_batch(rng: &mut StdRng, n: usize, rows: usize) -> Vec<StateVector> {
    (0..rows).map(|_| random_state(rng, n)).collect()
}

struct Case {
    engine: GradientEngine,
    register: Register,
    params: Params,
    obs: Observable,
}

/// The randomized branching-circuit family: small, wide-register, and
/// while-unrolling configurations, up to 8 qubits.
fn cases() -> Vec<Case> {
    let configs: [(u64, usize, usize, usize, bool); 4] = [
        // (seed, qubits, params, ops, with_while)
        (101, 2, 3, 8, true),
        (211, 4, 6, 12, false),
        (307, 5, 8, 14, true),
        (401, 8, 4, 8, false),
    ];
    configs
        .into_iter()
        .map(|(seed, n, n_params, len, with_while)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let names: Vec<String> = (0..n_params).map(|i| format!("t{i}")).collect();
            let program = random_branching_program(&mut rng, n, &names, len, with_while);
            let register = Register::from_program(&program);
            let engine = GradientEngine::new(&program).expect("random programs differentiable");
            let params = Params::from_pairs(
                names
                    .iter()
                    .map(|name| (name.clone(), rng.gen::<f64>() * std::f64::consts::TAU)),
            );
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

#[test]
fn branch_weighted_forward_values_match_interpreter() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xE1);
    for (ci, case) in cases().iter().enumerate() {
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            let batched = case.engine.value_pure_batch(&case.params, &case.obs, &batch);
            for (r, psi) in states.iter().enumerate() {
                let serial = case.engine.value_pure(&case.params, &case.obs, psi);
                assert!(
                    (batched[r] - serial).abs() < TOL,
                    "case {ci} rows {rows} row {r}: batched {} vs interpreter {serial}",
                    batched[r]
                );
            }
        }
    }
}

#[test]
fn branch_weighted_derivative_multisets_match_per_row_oracle() {
    // The paper's core workload: derivative multisets of branching
    // programs (case/init/while-unrolled), batched sweep vs the per-row
    // branch enumerator `derivative_pure` routes through.
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xE2);
    for (ci, case) in cases().iter().enumerate() {
        let param = case.engine.parameters().next().expect("has parameters");
        let diff = differentiate(case.engine.program(), param).unwrap();
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            let batched = diff.derivative_pure_batch(&case.params, &case.obs, &batch);
            for (r, psi) in states.iter().enumerate() {
                let oracle = diff.derivative_pure(&case.params, &case.obs, psi);
                assert!(
                    (batched[r] - oracle).abs() < TOL,
                    "case {ci} ∂/∂{param} rows {rows} row {r}: batched {} vs oracle {oracle}",
                    batched[r]
                );
            }
        }
    }
}

#[test]
fn branch_weighted_gradients_match_per_row_oracle_entrywise() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xE3);
    for (ci, case) in cases().iter().enumerate() {
        let rows = 16;
        let states = random_batch(&mut rng, case.register.len(), rows);
        let batch = BatchedStates::from_states(&states);
        let batched = case
            .engine
            .gradient_pure_batch(&case.params, &case.obs, &batch);
        assert_eq!(batched.len(), rows);
        for (r, psi) in states.iter().enumerate() {
            let serial = case.engine.gradient_pure(&case.params, &case.obs, psi);
            assert_eq!(batched[r].len(), serial.len());
            for (name, s) in &serial {
                let b = batched[r][name];
                assert!(
                    (b - s).abs() < TOL,
                    "case {ci} row {r} ∂/∂{name}: batched {b} vs oracle {s}"
                );
            }
        }
    }
}

#[test]
fn branch_weighted_rows_are_bitwise_invariant_under_batch_composition() {
    // A row's exact result must carry identical bits whether it runs alone
    // or inside any batch — the weighted regrouping performs per-row
    // identical floating-point operations regardless of grouping.
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xE4);
    for (ci, case) in cases().iter().enumerate() {
        let states = random_batch(&mut rng, case.register.len(), 7);
        let batch = BatchedStates::from_states(&states);
        let together = case.engine.value_pure_batch(&case.params, &case.obs, &batch);
        for (r, psi) in states.iter().enumerate() {
            let alone = case.engine.value_pure_batch(
                &case.params,
                &case.obs,
                &BatchedStates::from_states(std::slice::from_ref(psi)),
            )[0];
            assert_eq!(together[r].to_bits(), alone.to_bits(), "case {ci} row {r}");
        }
    }
}

/// Leaf weights of the branch-weighted sweep sum to 1 per row on
/// abort-free programs (normalised inputs): the weight a row starts with
/// is conserved by the trace-preserving branch tree, up to the pruning
/// threshold.
#[test]
fn leaf_weights_sum_to_one_per_row() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xE5);
    for (seed, n, n_params, len) in [(33u64, 2usize, 3usize, 8usize), (44, 4, 5, 10), (55, 5, 4, 9)] {
        let mut gen_rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = (0..n_params).map(|i| format!("t{i}")).collect();
        // No `while`: its unrolling introduces aborting branches, which
        // legitimately leak weight (covered by the oracle suites above).
        let program = random_branching_program(&mut gen_rng, n, &names, len, false);
        let register = Register::from_program(&program);
        let set = qdp_ad::LoweredSet::lower(std::slice::from_ref(&program), &register);
        let params = Params::from_pairs(
            names
                .iter()
                .map(|name| (name.clone(), gen_rng.gen::<f64>() * std::f64::consts::TAU)),
        );
        let values = set.slot_values(&params);
        let states = random_batch(&mut rng, register.len(), 9);
        for prog in set.programs() {
            let engine = ShotEngine::new(prog.resolve(&values).to_trajectory());
            let weights = engine.leaf_weights(BatchedStates::from_states(&states));
            for (r, row) in weights.iter().enumerate() {
                let total: f64 = row.iter().sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "seed {seed} row {r}: {} leaves sum to {total}",
                    row.len()
                );
            }
        }
    }
}

/// Branch-weighted evaluation must be **bitwise** reproducible under
/// forced 1-, 2-, and 8-thread `qdp_par` configurations — CI runs the
/// suite under `QDP_PAR_THREADS=1` and `=8` on top of this. The gradient's
/// per-parameter fan-out forks here, but each exact sweep sits below
/// `qdp_par::FORK_MIN_WORK` and runs as one block; the sweep's row-tiled
/// fan-out is pinned by `layout_differential.rs`'s 10-qubit case.
#[test]
fn branch_weighted_results_are_bitwise_deterministic_across_thread_counts() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xE6);
    for (ci, case) in cases().iter().enumerate() {
        for rows in [2usize, 16] {
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
                let grads: GradBits = case
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
