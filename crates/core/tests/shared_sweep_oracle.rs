//! Bitwise oracle of the exact batched executor.
//!
//! `LoweredSet::expectation_batch` serves forward values
//! (`GradientEngine::value_pure_batch`), the shift rule, and each
//! parameter's derivative multiset, the named oracle of the adjoint exact
//! gradient (`adjoint_oracle.rs`). It sweeps each program of the set,
//! built once with its parameterised gates naming entries of a per-call
//! matrix table, bound to the table of the call's valuation. Every entry
//! must carry **exactly** the bits of the named oracle: each compiled
//! program on its own, built straight from its AST at the valuation with
//! every matrix its own (`support/oracle.rs`'s `trajectory`, which does
//! not go through the lowering) and run through
//! `ShotEngine::expectation_sweep`, the programs of a multiset summed per
//! row in multiset order. Checked on:
//!
//! * every parameter's derivative multiset of the paper circuits `P1` and
//!   `P2`, the `S` rows of Table 3 and `hardware_efficient_ansatz(6, 2)`,
//!   under forced 1, 2 and 8 `qdp_par` threads, on batches large enough
//!   to split into row tiles;
//! * 400 programs from the shared seeded generator (`support/`), each
//!   forward program (those without `+`, which have no lowering) as well
//!   as every parameter's multiset, together with invariance under batch
//!   splits and merges;
//! * the `M` rows, `#[ignore]`d: registers of up to 19 qubits take about
//!   a minute in release (`cargo test --release -p qdp-ad --test
//!   shared_sweep_oracle -- --ignored`).
//!
//! It also pins the summed op weights of the multisets and the forward
//! program's.

use qdp_ad::{GradientEngine, LoweredSet};
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::Register;
use qdp_linalg::C64;
use qdp_sim::{BatchedStates, Observable, ShotEngine, StateVector};
use qdp_vqc::families::paper_instances;
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use qdp_vqc::{circuits, task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

mod support;

#[path = "support/oracle.rs"]
mod oracle;

/// Serializes the file: `set_max_threads` is process-global.
static THREADS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Every parameter's derivative multiset swept on its own
/// (`LoweredSet::expectation_batch`) over the ancilla-extended batch and
/// observable, as bits: `[row][parameter]`, parameters in name order.
fn sweep_bits(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<Vec<u64>> {
    let (ext_batch, ext_obs) = (batch.prepend_zero_ancilla(), obs.with_ancilla_z());
    let columns: Vec<Vec<f64>> = engine
        .parameters()
        .map(|name| {
            let skeleton = engine
                .differentiated(name)
                .expect("engine parameter")
                .skeleton();
            let lowered = skeleton.lowered();
            lowered.expectation_batch(&lowered.slot_values(params), &ext_batch, &ext_obs)
        })
        .collect();
    (0..batch.len())
        .map(|r| columns.iter().map(|column| column[r].to_bits()).collect())
        .collect()
}

/// One multiset on the oracle: each program's own exact sweep over the
/// trajectory built from its AST, summed per row in multiset order (an
/// empty multiset reads 0).
fn multiset_oracle(
    compiled: &[Stmt],
    reg: &Register,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<f64> {
    let columns: Vec<Vec<f64>> = compiled
        .iter()
        .map(|p| {
            ShotEngine::new(oracle::trajectory(p, reg, params))
                .expectation_sweep(batch.clone(), obs)
                .unwrap()
        })
        .collect();
    if columns.is_empty() {
        return vec![0.0; batch.len()];
    }
    (0..batch.len())
        .map(|r| columns.iter().map(|column| column[r]).sum())
        .collect()
}

/// The oracle as bits, in the same layout: each parameter's multiset on
/// its own, over the ancilla-extended batch and observable.
fn oracle_bits(
    engine: &GradientEngine,
    params: &Params,
    obs: &Observable,
    batch: &BatchedStates,
) -> Vec<Vec<u64>> {
    let (ext_batch, ext_obs) = (batch.prepend_zero_ancilla(), obs.with_ancilla_z());
    let columns: Vec<Vec<f64>> = engine
        .parameters()
        .map(|name| {
            let diff = engine.differentiated(name).expect("engine parameter");
            multiset_oracle(diff.compiled(), diff.ext_register(), params, &ext_obs, &ext_batch)
        })
        .collect();
    (0..batch.len())
        .map(|r| columns.iter().map(|column| column[r].to_bits()).collect())
        .collect()
}

/// Checks the sweeps against the oracle on a seeded `rows`-row batch, under
/// forced 1, 2 and 8 threads.
fn check_threads(label: &str, program: &Stmt, obs: &Observable, rows: usize, seed: u64) {
    let engine = GradientEngine::new(program).expect("differentiable");
    let mut rng = StdRng::seed_from_u64(seed);
    let params = random_params(&mut rng, program);
    let n = engine.register().len();
    let states: Vec<StateVector> = (0..rows).map(|_| random_state(&mut rng, n)).collect();
    let batch = BatchedStates::from_states(&states);
    let expected = oracle_bits(&engine, &params, obs, &batch);
    let _guard = serialized();
    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let got = sweep_bits(&engine, &params, obs, &batch);
        qdp_par::set_max_threads(0);
        assert!(
            got == expected,
            "{label}: a sweep differs from the oracle at {threads} threads"
        );
    }
}

fn z_last(program: &Stmt) -> Observable {
    let n = Register::from_program(program).len();
    Observable::pauli_z(n, n - 1)
}

#[test]
fn paper_circuits_match_the_oracle() {
    // Rows × amplitudes × program ops reach `FORK_MIN_WORK`: every
    // parameter's sweeps split into row tiles once threads are allowed.
    check_threads("P1", &circuits::p1(), &task::readout_observable(), 512, 0x51);
    check_threads("P2", &circuits::p2(), &task::readout_observable(), 512, 0x52);
    let hea = hardware_efficient_ansatz(6, 2);
    check_threads("HEA(6,2)", &hea, &Observable::pauli_z(6, 0), 128, 0x53);
}

#[test]
fn small_paper_rows_match_the_oracle() {
    let rows: Vec<_> = paper_instances()
        .into_iter()
        .filter(|c| c.name.contains("{S,"))
        .collect();
    assert_eq!(rows.len(), 12);
    for (i, config) in rows.iter().enumerate() {
        let program = config.build();
        check_threads(
            &config.name,
            &program,
            &z_last(&program),
            12,
            0x5300 + i as u64,
        );
    }
}

/// The `M` rows: 12- and 18-qubit programs (plus the ancilla), one row each.
#[test]
#[ignore = "slow: run in release with --ignored"]
fn medium_paper_rows_match_the_oracle() {
    for (i, config) in paper_instances()
        .into_iter()
        .filter(|c| c.name.contains("{M,"))
        .enumerate()
    {
        let program = config.build();
        let engine = GradientEngine::new(&program).expect("differentiable");
        let mut rng = StdRng::seed_from_u64(0x4D00 + i as u64);
        let params = random_params(&mut rng, &program);
        let batch = BatchedStates::from_states(&[random_state(&mut rng, engine.register().len())]);
        let obs = z_last(&program);
        assert!(
            sweep_bits(&engine, &params, &obs, &batch)
                == oracle_bits(&engine, &params, &obs, &batch),
            "{}: a sweep differs from the oracle",
            config.name
        );
    }
}

#[test]
fn generated_programs_match_the_oracle_under_splits_and_merges() {
    let mut rng = StdRng::seed_from_u64(0x5EED_5A4E);
    let (mut nonempty, mut forward_checked) = (0, 0);
    for case in 0..400 {
        let program = support::stmt(&mut rng, 4);
        let engine = GradientEngine::new(&program).expect("fresh ancilla");
        let n = engine.register().len();
        let params = random_params(&mut rng, &program);
        let obs = Observable::pauli_z(n, rng.gen_range(0..n));
        let states: Vec<StateVector> = (0..5).map(|_| random_state(&mut rng, n)).collect();
        let batch = BatchedStates::from_states(&states);
        let whole = sweep_bits(&engine, &params, &obs, &batch);
        assert!(
            whole == oracle_bits(&engine, &params, &obs, &batch),
            "program {case}: a sweep differs from the oracle: {program:?}"
        );
        if program.is_normal() {
            let bits =
                |values: Vec<f64>| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
            let forward = std::slice::from_ref(engine.program());
            assert!(
                bits(engine.value_pure_batch(&params, &obs, &batch))
                    == bits(multiset_oracle(forward, engine.register(), &params, &obs, &batch)),
                "program {case}: the forward sweep differs from the oracle: {program:?}"
            );
            forward_checked += 1;
        }
        // Every row carries the same bits in any batch: alone, and in the
        // two halves of a split.
        let mut split = sweep_bits(
            &engine,
            &params,
            &obs,
            &BatchedStates::from_states(&states[..2]),
        );
        split.extend(sweep_bits(
            &engine,
            &params,
            &obs,
            &BatchedStates::from_states(&states[2..]),
        ));
        assert!(split == whole, "program {case}: a split batch moved bits");
        for (r, psi) in states.iter().enumerate() {
            let alone = sweep_bits(
                &engine,
                &params,
                &obs,
                &BatchedStates::from_states(std::slice::from_ref(psi)),
            );
            assert!(
                alone[0] == whole[r],
                "program {case} row {r}: the row alone moved bits"
            );
        }
        nonempty += usize::from(engine.total_programs() > 0);
    }
    // The stream must exercise real derivative programs, not just aborts.
    assert!(
        nonempty > 200,
        "{nonempty} of 400 programs have derivative programs"
    );
    assert!(
        forward_checked > 200,
        "{forward_checked} of 400 forward programs checked"
    );
}

/// The summed op weights of every parameter's derivative multiset, the
/// work its per-program sweeps run at most, against the forward
/// program's, the work of one adjoint forward pass.
#[test]
fn multiset_and_forward_op_weights() {
    for (label, program, forward_ops, separate_ops) in [
        ("P1", circuits::p1(), 24, 624),
        ("P2", circuits::p2(), 37, 1140),
        ("HEA(6,2)", hardware_efficient_ansatz(6, 2), 40, 1260),
    ] {
        let engine = GradientEngine::new(&program).expect("differentiable");
        let weight = |lowered: &LoweredSet| -> usize {
            lowered.programs().iter().map(|p| p.op_weight()).sum()
        };
        let separate: usize = engine
            .parameters()
            .map(|name| {
                weight(
                    engine
                        .differentiated(name)
                        .expect("engine parameter")
                        .skeleton()
                        .lowered(),
                )
            })
            .sum();
        assert_eq!(separate, separate_ops, "{label}: separate sweeps");
        assert_eq!(weight(engine.forward_skeleton().lowered()), forward_ops, "{label}: forward");
    }
}
