//! Golden bits of the exact batched gradient: hard-coded `f64::to_bits`
//! folds of `GradientEngine::gradient_pure_batch`, so a change to the exact
//! gradient path that moves a single bit fails here even when every
//! self-consistency suite (batched vs per-parameter, split vs merged
//! batches, 1 vs 8 threads) still agrees with itself.
//!
//! * `gradient_pure_batch` on `P1`, `P2`, `QNN_{S,w}` (bounded `while`
//!   loops, so `case` forks and aborting arms) and
//!   `hardware_efficient_ansatz(6, 2)`, each on a seeded 16-row batch of
//!   random states at a seeded valuation;
//! * four exact `Trainer` epochs on `P2` (every loss, and a fold of every
//!   final parameter's bits).
//!
//! Each is checked under forced 1, 2 and 8 `qdp_par` threads. The values
//! are a property of the arithmetic, not of the host: the kernels fix
//! their rounding order in source and are bitwise equal across SIMD tiers
//! (see `crates/sim/tests/layout_differential.rs`).

use qdp_ad::GradientEngine;
use qdp_lang::ast::{Params, Stmt};
use qdp_linalg::C64;
use qdp_sim::{BatchedStates, Observable, StateVector};
use qdp_vqc::families::paper_instances;
use qdp_vqc::hamiltonian::hardware_efficient_ansatz;
use qdp_vqc::loss::SquaredLoss;
use qdp_vqc::optim::GradientDescent;
use qdp_vqc::train::Trainer;
use qdp_vqc::{circuits, task};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Serializes the file: `set_max_threads` is process-global.
static THREADS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under each forced thread count and asserts it returns
/// `expected` every time.
fn assert_golden<T: PartialEq + std::fmt::Debug>(what: &str, expected: T, f: impl Fn() -> T) {
    let _guard = serialized();
    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let got = f();
        qdp_par::set_max_threads(0);
        assert_eq!(got, expected, "{what} at {threads} threads");
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a whole word.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// `rows` normalised random states on `n` qubits, from `seed`.
fn random_batch(n: usize, rows: usize, seed: u64) -> BatchedStates {
    let mut rng = StdRng::seed_from_u64(seed);
    let states: Vec<StateVector> = (0..rows)
        .map(|_| {
            let amps: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let norm = amps
                .iter()
                .map(|a| a.re * a.re + a.im * a.im)
                .sum::<f64>()
                .sqrt();
            let amps = amps
                .into_iter()
                .map(|a| C64::new(a.re / norm, a.im / norm))
                .collect();
            StateVector::from_amplitudes(n, amps)
        })
        .collect();
    BatchedStates::from_states(&states)
}

/// A seeded valuation of every parameter of `program`, in `[-π, π)`.
fn random_params(program: &Stmt, seed: u64) -> Params {
    let mut rng = StdRng::seed_from_u64(seed);
    Params::from_pairs(program.parameters().into_iter().map(|name| {
        (
            name,
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        )
    }))
}

/// The fold of every gradient entry's bits, row by row, parameters in
/// name order, over a seeded 16-row batch.
fn gradient_bits(program: &Stmt, obs: &Observable, seed: u64) -> u64 {
    let engine = GradientEngine::new(program).expect("differentiable");
    let params = random_params(program, seed);
    let batch = random_batch(engine.register().len(), 16, seed ^ 0xBA7C);
    let rows = engine.gradient_pure_batch(&params, obs, &batch);
    assert_eq!(rows.len(), 16);
    rows.iter().fold(FNV_OFFSET, |h, row| {
        row.values().fold(h, |h, v| fnv(h, v.to_bits()))
    })
}

#[test]
fn p1_gradient_bits() {
    assert_golden("gradient_pure_batch on P1", 0x822f_6b73_ac3c_1c26, || {
        gradient_bits(&circuits::p1(), &task::readout_observable(), 0x9A1)
    });
}

#[test]
fn p2_gradient_bits() {
    assert_golden("gradient_pure_batch on P2", 0x1f8a_6b28_d510_89f4, || {
        gradient_bits(&circuits::p2(), &task::readout_observable(), 0x9A2)
    });
}

#[test]
fn s_row_with_while_gradient_bits() {
    let row = paper_instances()
        .into_iter()
        .find(|c| c.name == "QNN_{S,w}")
        .expect("the S,w row exists");
    let program = row.build();
    let n = qdp_lang::Register::from_program(&program).len();
    assert_golden(
        "gradient_pure_batch on QNN_{S,w}",
        0x08c3_254f_f2f5_546b,
        || gradient_bits(&program, &Observable::pauli_z(n, n - 1), 0x9A3),
    );
}

#[test]
fn hea_gradient_bits() {
    let program = hardware_efficient_ansatz(6, 2);
    assert_golden(
        "gradient_pure_batch on HEA(6,2)",
        0xbfe5_f05b_d985_384f,
        || gradient_bits(&program, &Observable::pauli_z(6, 0), 0x9A4),
    );
}

#[test]
fn exact_trainer_epoch_bits() {
    let losses = vec![
        0x4003_4e14_6a1b_87f0u64,
        0x4005_39f8_449b_21b3,
        0x4008_dc30_f8ee_0bb3,
        0x3fef_cdac_1f36_d056,
    ];
    assert_golden(
        "exact Trainer on P2",
        (losses, 0x24b3_076c_59a6_de20),
        || {
            let data = task::dataset()
                .into_iter()
                .map(|s| (s.input_state(), s.target()))
                .collect();
            let mut t = Trainer::new(&circuits::p2(), task::readout_observable(), data)
                .expect("P2 is differentiable");
            t.init_params_seeded(11);
            let mut opt = GradientDescent::new(0.5);
            let losses: Vec<u64> = (0..4)
                .map(|_| t.epoch(&SquaredLoss, &mut opt).to_bits())
                .collect();
            // Every final parameter's bits, in name order.
            let params = t
                .params()
                .values()
                .fold(FNV_OFFSET, |h, v| fnv(h, v.to_bits()));
            (losses, params)
        },
    );
}
