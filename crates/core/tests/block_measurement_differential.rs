//! Differential tests of the **block-level measurement engine** against
//! the per-row oracles.
//!
//! PR 5 replaced the per-row measurement loops of the batched executors
//! (`branch_probabilities_into` / `collapse_amps_into` per row, fresh
//! outcome buckets per fork) with block kernels — one bucketed
//! probability sweep per group, one strided collapse pass per outcome, a
//! pooled scratch arena — in both execution modes. This suite pins the
//! contract at every level:
//!
//! * the block kernels themselves
//!   (`Measurement::branch_probabilities_block` /
//!   `Measurement::collapse_block_into`) match the per-row
//!   `branch_probabilities_pure` / `collapse_pure` oracle **bitwise**,
//!   signed zeros included, on random states and row selections;
//! * exact expectations of randomized **branching** programs (n ≤ 8,
//!   `case`s, resets, bounded `while` unrolls, derivative multisets) over
//!   batches of 1/2/16/33 match the per-row enumeration oracle to
//!   `1e-12`;
//! * sampled trajectories are **bitwise** unchanged: batched sweeps equal
//!   per-row (batch-of-one) sweeps draw for draw, and whole shot-noise
//!   estimates carry identical bits under forced 1/2/8-thread `qdp_par`
//!   configurations;
//! * the weighted-leaf mass budget (`ShotEngine::with_mass_budget`)
//!   deviates from the unpruned oracle by at most ε per row and is exact
//!   (bitwise) at the default ε = 0.

use qdp_ad::{differentiate, GradientEngine};
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_lang::Register;
use qdp_linalg::{C64, Pauli};
use qdp_sim::{BatchedStates, Measurement, Observable, ShotEngine, ShotSampler, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

#[path = "support/oracle.rs"]
mod oracle;

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
/// guarantees at least one branch point, so every program exercises the
/// block regrouping.
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

/// A random normalised pure state on `n` qubits, with sign-rich amplitudes.
fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let dim = 1usize << n;
    let mut amps: Vec<C64> = (0..dim)
        .map(|_| C64::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0))
        .collect();
    // Exact zeros and negative zeros exercise the projector kernel's
    // signed-zero contract.
    if dim > 2 {
        amps[rng.gen_range(0..dim)] = C64::new(0.0, -0.0);
    }
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
        (17, 2, 3, 8, true),
        (23, 4, 6, 12, false),
        (31, 5, 8, 14, true),
        (47, 8, 4, 8, false),
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

fn amp_bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

fn plane_bits(re: &[f64], im: &[f64]) -> Vec<(u64, u64)> {
    re.iter()
        .zip(im)
        .map(|(r, i)| (r.to_bits(), i.to_bits()))
        .collect()
}

#[test]
fn block_probability_kernel_matches_per_row_oracle_bitwise() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xB10C);
    for n in [1usize, 3, 6, 8] {
        let mut targets = vec![rng.gen_range(0..n)];
        if n > 1 && rng.gen::<bool>() {
            let mut t2 = rng.gen_range(0..n);
            while t2 == targets[0] {
                t2 = rng.gen_range(0..n);
            }
            targets.push(t2);
        }
        let meas = Measurement::computational(targets.clone());
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, n, rows);
            let batch = BatchedStates::from_states(&states);
            let mut table = Vec::new();
            let (bre, bim) = batch.planes();
            meas.branch_probabilities_block(n, bre, bim, &mut table);
            let outcomes = meas.num_outcomes();
            assert_eq!(table.len(), rows * outcomes);
            for (r, psi) in states.iter().enumerate() {
                let oracle = meas.branch_probabilities_pure(psi);
                for (m, (a, b)) in table[r * outcomes..(r + 1) * outcomes]
                    .iter()
                    .zip(&oracle)
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n {n} targets {targets:?} rows {rows} row {r} outcome {m}"
                    );
                }
            }
        }
    }
}

#[test]
fn block_collapse_kernel_matches_per_row_oracle_bitwise() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xC011);
    for n in [2usize, 4, 7] {
        let meas = if rng.gen::<bool>() || n < 2 {
            Measurement::computational(vec![rng.gen_range(0..n)])
        } else {
            Measurement::computational(vec![0, n - 1])
        };
        let rows = 9;
        let states = random_batch(&mut rng, n, rows);
        let batch = BatchedStates::from_states(&states);
        // Full, single-row, and strided out-of-order selections.
        let selections: [Vec<usize>; 3] =
            [(0..rows).collect(), vec![4], vec![7, 2, 5, 0]];
        for selected in &selections {
            for outcome in 0..meas.num_outcomes() {
                let mut block_re = Vec::new();
                let mut block_im = Vec::new();
                let (bre, bim) = batch.planes();
                meas.collapse_block_into(n, bre, bim, selected, outcome, &mut block_re, &mut block_im);
                let dim = 1usize << n;
                assert_eq!(block_re.len(), selected.len() * dim);
                assert_eq!(block_im.len(), selected.len() * dim);
                for (j, &r) in selected.iter().enumerate() {
                    let oracle = meas.collapse_pure(&states[r], outcome);
                    let (ore, oim) = oracle.planes();
                    assert_eq!(
                        plane_bits(
                            &block_re[j * dim..(j + 1) * dim],
                            &block_im[j * dim..(j + 1) * dim]
                        ),
                        plane_bits(ore, oim),
                        "n {n} selection {selected:?} outcome {outcome} row {r}"
                    );
                }
            }
        }
    }
}

#[test]
fn exact_branching_expectations_match_per_row_oracle() {
    // The block-measurement exact sweep behind `value_pure_batch` /
    // `derivative_pure_batch` against the per-row enumeration oracle, on
    // branching programs including while unrolls and derivative multisets.
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xB1);
    for (ci, case) in cases().iter().enumerate() {
        let param = case.engine.parameters().next().expect("has parameters");
        let diff = differentiate(case.engine.program(), param).unwrap();
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, case.register.len(), rows);
            let batch = BatchedStates::from_states(&states);
            let values = case.engine.value_pure_batch(&case.params, &case.obs, &batch);
            let derivs = diff.derivative_pure_batch(&case.params, &case.obs, &batch);
            for (r, psi) in states.iter().enumerate() {
                let value_oracle = oracle::value(&case.engine, &case.params, &case.obs, psi);
                assert!(
                    (values[r] - value_oracle).abs() < TOL,
                    "case {ci} rows {rows} row {r}: value {} vs oracle {value_oracle}",
                    values[r]
                );
                let deriv_oracle = oracle::derivative(&diff, &case.params, &case.obs, psi);
                assert!(
                    (derivs[r] - deriv_oracle).abs() < TOL,
                    "case {ci} ∂/∂{param} rows {rows} row {r}: {} vs oracle {deriv_oracle}",
                    derivs[r]
                );
            }
        }
    }
}

#[test]
fn sampled_trajectories_are_bitwise_invariant_under_batch_composition() {
    // The block regrouping of the sampled executor: a batched `run` must
    // produce, row for row, the identical outcome histories and the
    // identical collapsed amplitude bits as running each row alone with
    // the same derived stream — on the trajectory IRs of real derivative
    // multisets.
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xB2);
    for (ci, case) in cases().iter().enumerate().take(3) {
        let param = case.engine.parameters().next().expect("has parameters");
        let diff = differentiate(case.engine.program(), param).unwrap();
        let skeleton = diff.skeleton();
        let lowered = skeleton.lowered();
        let values = lowered.slot_values(&case.params);
        let Some(prog) = lowered.programs().first() else {
            continue;
        };
        let engine = ShotEngine::new(prog.resolve(&values).to_trajectory());
        // Derivative programs run on |0⟩A ⊗ ψ.
        let n = case.register.len() + 1;
        for rows in BATCH_SIZES {
            let states = random_batch(&mut rng, n, rows);
            let seed = 0xD00 + ci as u64;
            let mut samplers: Vec<ShotSampler> = (0..rows)
                .map(|r| ShotSampler::derived(seed, r as u64))
                .collect();
            let grouped = engine.run(BatchedStates::from_states(&states), &vec![1; rows], &mut samplers);
            for (r, psi) in states.iter().enumerate() {
                let mut solo_sampler = vec![ShotSampler::derived(seed, r as u64)];
                let solo = engine
                    .run(
                        BatchedStates::from_states(std::slice::from_ref(psi)),
                        &[1],
                        &mut solo_sampler,
                    )
                    .remove(0);
                assert_eq!(
                    solo.outcomes, grouped[r].outcomes,
                    "case {ci} rows {rows} row {r}: outcome history changed"
                );
                match (&solo.state, &grouped[r].state) {
                    (None, None) => {}
                    (Some(s), Some(g)) => assert_eq!(
                        amp_bits(&s.amplitudes()),
                        amp_bits(&g.amplitudes()),
                        "case {ci} rows {rows} row {r}: collapsed state changed"
                    ),
                    _ => panic!("case {ci} rows {rows} row {r}: abort status changed"),
                }
            }
        }
    }
}

/// 600 shots split into three `SHOT_TILE` tiles, which fan out whatever
/// their size, so the 2- and 8-thread legs run on the pool. The exact
/// sweep's row-tiled fan-out is pinned by `layout_differential.rs`'s
/// 10-qubit case instead.
#[test]
fn sampled_estimates_are_bitwise_deterministic_across_thread_counts() {
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xB3);
    for (ci, case) in cases().iter().enumerate().take(2) {
        let param = case.engine.parameters().next().expect("has parameters");
        let diff = differentiate(case.engine.program(), param).unwrap();
        let psi = random_state(&mut rng, case.register.len());
        let mut runs: Vec<u64> = Vec::new();
        for threads in [1usize, 2, 8] {
            qdp_par::set_max_threads(threads);
            let est = qdp_ad::estimator::estimate_derivative_batched(
                &diff,
                &case.params,
                &case.obs,
                &psi,
                600,
                0xCAFE + ci as u64,
            );
            runs.push(est.to_bits());
        }
        qdp_par::set_max_threads(0); // restore auto-detection
        assert_eq!(runs[0], runs[1], "case {ci}: 1 vs 2 threads");
        assert_eq!(runs[1], runs[2], "case {ci}: 2 vs 8 threads");
    }
}

#[test]
fn mass_budget_error_is_bounded_on_randomized_programs() {
    // `‖Z‖ = 1`, so a pruned exact sweep may deviate from the unpruned
    // oracle by at most the dropped mass — ε per row — and ε = 0 must be
    // the unpruned sweep bit for bit.
    let _guard = serialized();
    let mut rng = StdRng::seed_from_u64(0xB4);
    for (ci, case) in cases().iter().enumerate().take(3) {
        let lowered =
            qdp_ad::LoweredSet::lower(std::slice::from_ref(case.engine.program()), &case.register);
        let values = lowered.slot_values(&case.params);
        let traj = lowered.programs()[0].resolve(&values).to_trajectory();
        let states = random_batch(&mut rng, case.register.len(), 9);
        let batch = BatchedStates::from_states(&states);
        let unpruned =
            ShotEngine::new(traj.clone()).expectation_sweep(batch.clone(), &case.obs);
        let zero = ShotEngine::new(traj.clone())
            .with_mass_budget(0.0)
            .expectation_sweep(batch.clone(), &case.obs);
        for (r, (a, b)) in unpruned.iter().zip(&zero).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "case {ci} row {r}: ε = 0 moved bits");
        }
        for epsilon in [0.02, 0.2] {
            let pruned = ShotEngine::new(traj.clone())
                .with_mass_budget(epsilon)
                .expectation_sweep(batch.clone(), &case.obs);
            for (r, (p, e)) in pruned.iter().zip(&unpruned).enumerate() {
                assert!(
                    (p - e).abs() <= epsilon + 1e-12,
                    "case {ci} ε = {epsilon} row {r}: pruned {p} vs oracle {e}"
                );
            }
        }
    }
}
