//! Golden bits of the shot-noise paths: hard-coded `f64::to_bits` of
//! sampled results, so a change to the sampled executor that moves a
//! single bit fails here even when every self-consistency suite (batched
//! vs serial, grouped vs solo, 1 vs 8 threads) still agrees with itself.
//!
//! * `ShotEngine::try_estimate_expectation_batch` on one input of a
//!   hand-built program with a reset, nested `case`s and an aborting arm,
//!   and `ShotEngine::run` of that program on one input with 64 shots
//!   (every outcome and every
//!   collapsed amplitude: read-out samples are discrete eigenvalues, so
//!   only this check sees a flipped low bit directly);
//! * `PreparedDerivativeEstimator::estimate` on one `P2` parameter;
//! * `GradientEngine::gradient_pure_shots_batch` over the 16 `P2` task
//!   rows, and over three rows of a program whose multisets hold more
//!   than one program, at a shot count above `SHOT_TILE` that is not a
//!   multiple of it;
//! * `GradientEngine::value_pure_shots_batch` over six `P2` task rows;
//! * four shot-noise `Trainer` epochs on `P2` (every loss, and a fold of
//!   every final parameter's bits).
//!
//! Each is checked under forced 1, 2 and 8 `qdp_par` threads. The values
//! are a property of the arithmetic, not of the host: the kernels fix
//! their rounding order in source and are bitwise equal across SIMD tiers
//! (see `crates/sim/tests/layout_differential.rs`).

use qdp_ad::estimator::PreparedDerivativeEstimator;
use qdp_ad::{differentiate, GradientEngine};
use qdp_lang::ast::Params;
use qdp_linalg::Matrix;
use qdp_sim::{
    BatchedStates, Measurement, Observable, ProjectiveObservable, ShotEngine, ShotSampler,
    StateVector, TrajProgram, SHOT_TILE,
};
use qdp_vqc::loss::SquaredLoss;
use qdp_vqc::optim::GradientDescent;
use qdp_vqc::train::{ShotNoise, Trainer};
use qdp_vqc::{circuits, task};
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

fn ry(theta: f64) -> Matrix {
    Matrix::rotation_from_involution(&Matrix::pauli_y(), theta)
}

fn rx(theta: f64) -> Matrix {
    Matrix::rotation_from_involution(&Matrix::pauli_x(), theta)
}

/// `RY(0.7)[0]; RX(1.3)[1]; case M[0] = 0 → (RY(0.4)[2]; case M[1] =
/// 0 → RX(0.9)[2], 1 → abort end), 1 → (q1 := |0⟩; CNOT[0,2]) end;
/// RY(1.1)[2]` on three qubits.
fn branching_program() -> TrajProgram {
    let mut inner0 = TrajProgram::new();
    inner0.push_gate(rx(0.9), vec![2]);
    let mut inner1 = TrajProgram::new();
    inner1.push_abort();
    let mut arm0 = TrajProgram::new();
    arm0.push_gate(ry(0.4), vec![2]);
    arm0.push_case(Measurement::computational(vec![1]), vec![inner0, inner1]);
    let mut arm1 = TrajProgram::new();
    arm1.push_init(1);
    arm1.push_gate(Matrix::cnot(), vec![0, 2]);
    let mut p = TrajProgram::new();
    p.push_gate(ry(0.7), vec![0]);
    p.push_gate(rx(1.3), vec![1]);
    p.push_case(Measurement::computational(vec![0]), vec![arm0, arm1]);
    p.push_gate(ry(1.1), vec![2]);
    p
}

#[test]
fn one_row_estimate_expectation_bits() {
    let engine = ShotEngine::new(branching_program());
    let readout = ProjectiveObservable::new(&Observable::pauli_z(3, 2));
    let mut psi = StateVector::zero_state(3);
    psi.apply_gate(&Matrix::hadamard(), &[2]);
    // Three full tiles and a ragged one, so the tile fan-out is exercised.
    let shots = 3 * SHOT_TILE + 17;
    assert_golden("one-row estimate_expectation_batch", 0xbfe2_dfb6_f348_1243, || {
        engine
            .try_estimate_expectation_batch(std::slice::from_ref(&psi), &readout, shots, &[0x601D])
            .unwrap()[0]
            .to_bits()
    });
}

#[test]
fn repeated_run_state_bits() {
    let engine = ShotEngine::new(branching_program());
    let mut psi = StateVector::zero_state(3);
    psi.apply_gate(&Matrix::hadamard(), &[2]);
    assert_golden("run on a repeated input", 0xdb00_26c2_656e_24e7, || {
        let mut samplers: Vec<ShotSampler> =
            (0..64).map(|s| ShotSampler::derived(0x5EA, s)).collect();
        let rows = engine.run(BatchedStates::from_states(std::slice::from_ref(&psi)), &[64], &mut samplers);
        rows.iter().fold(FNV_OFFSET, |h, row| {
            let h = row.outcomes.iter().fold(h, |h, &o| fnv(h, o as u64));
            match &row.state {
                None => fnv(h, u64::MAX),
                Some(state) => state
                    .amplitudes()
                    .iter()
                    .fold(h, |h, a| fnv(fnv(h, a.re.to_bits()), a.im.to_bits())),
            }
        })
    });
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a whole word.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The seeded `P2` valuation every `P2` check below starts from.
fn p2_params(seed: u64) -> Params {
    let mut t = Trainer::new(&circuits::p2(), task::readout_observable(), task_data())
        .expect("P2 is differentiable");
    t.init_params_seeded(seed);
    Params::from_pairs(t.params().iter().map(|(k, &v)| (k.clone(), v)))
}

fn task_data() -> Vec<(StateVector, f64)> {
    task::dataset()
        .into_iter()
        .map(|s| (s.input_state(), s.target()))
        .collect()
}

#[test]
fn derivative_estimate_bits() {
    let diff = differentiate(&circuits::p2(), "T2").expect("P2 is differentiable");
    let est = PreparedDerivativeEstimator::new(&diff, &p2_params(5), &task::readout_observable());
    let psi = task::dataset()[11].input_state();
    assert_golden("PreparedDerivativeEstimator::estimate", 0xbfb1_1111_1111_1111, || {
        est.estimate(&psi, 300, 0xD0D0).to_bits()
    });
}

#[test]
fn shot_noise_trainer_epoch_bits() {
    let losses = vec![
        0x3ffe_0900_0000_0000u64,
        0x3fcf_e800_0000_0000,
        0x3f9a_a000_0000_0000,
        0x3f84_4000_0000_0000,
    ];
    assert_golden("shot-noise Trainer on P2", (losses, 0x3ddc_60dd_e09b_f15d), || {
        let mut t = Trainer::new(&circuits::p2(), task::readout_observable(), task_data())
            .expect("P2 is differentiable");
        t.init_params_seeded(9);
        t.set_shot_noise(Some(ShotNoise {
            value_shots: 64,
            gradient_shots: 16,
            seed: 0x7A1,
        }));
        let mut opt = GradientDescent::new(0.5);
        let losses: Vec<u64> = (0..4)
            .map(|_| t.epoch(&SquaredLoss, &mut opt).to_bits())
            .collect();
        // Every final parameter's bits, in name order.
        let params = t.params().values().fold(FNV_OFFSET, |h, v| fnv(h, v.to_bits()));
        (losses, params)
    });
}

/// The fold of every gradient entry's bits, row by row, parameters in
/// name order.
fn gradient_rows_bits(rows: &[std::collections::BTreeMap<String, f64>]) -> u64 {
    rows.iter().fold(FNV_OFFSET, |h, row| {
        row.values().fold(h, |h, v| fnv(h, v.to_bits()))
    })
}

fn task_inputs(rows: usize) -> Vec<StateVector> {
    task::dataset()
        .into_iter()
        .take(rows)
        .map(|s| s.input_state())
        .collect()
}

fn row_seeds(seed: u64, rows: usize) -> Vec<u64> {
    (0..rows as u64).map(|r| qdp_sim::derive_seed(seed, r)).collect()
}

#[test]
fn p2_gradient_shots_batch_bits() {
    let engine = GradientEngine::new(&circuits::p2()).expect("P2 is differentiable");
    let (params, obs) = (p2_params(3), task::readout_observable());
    let inputs = task_inputs(16);
    assert_eq!(inputs.len(), 16);
    let seeds = row_seeds(0x5407, 16);
    assert_golden("gradient_pure_shots_batch on P2", 0x05ad_059d_6108_3025, || {
        gradient_rows_bits(&engine.gradient_pure_shots_batch(&params, &obs, &inputs, 64, &seeds))
    });
}

#[test]
fn multi_program_gradient_shots_batch_bits() {
    let program = qdp_lang::parse_program(
        "q1 *= RX(t); q2 *= RY(s); \
         case M[q1] = 0 -> q2 *= RY(t), 1 -> q2 *= RZ(t) end; \
         while[2] M[q2] = 1 do q2 *= RX(s) done",
    )
    .expect("the program parses");
    let engine = GradientEngine::new(&program).expect("differentiable");
    assert!(engine.differentiated("t").expect("t is a parameter").compiled().len() > 1);
    let params = Params::from_pairs([("t", 0.9), ("s", -1.3)]);
    let obs = Observable::pauli_z(2, 1);
    let inputs: Vec<StateVector> = (0..3)
        .map(|r| {
            let mut psi = StateVector::basis_state(2, r);
            psi.apply_gate(&ry(0.3 + r as f64), &[0]);
            psi
        })
        .collect();
    let shots = 2 * SHOT_TILE + 37;
    let seeds = row_seeds(0x3A11, 3);
    assert_golden("gradient_pure_shots_batch on a multi-program multiset", 0xdd7c_e7e3_e3b6_f356, || {
        gradient_rows_bits(&engine.gradient_pure_shots_batch(&params, &obs, &inputs, shots, &seeds))
    });
}

#[test]
fn p2_value_shots_batch_bits() {
    let engine = GradientEngine::new(&circuits::p2()).expect("P2 is differentiable");
    let (params, obs) = (p2_params(4), task::readout_observable());
    let inputs = task_inputs(6);
    let seeds = row_seeds(0x7A1E, 6);
    assert_golden("value_pure_shots_batch on P2", 0x46fb_0714_9e31_bfd8, || {
        engine
            .value_pure_shots_batch(&params, &obs, &inputs, SHOT_TILE + 44, &seeds)
            .iter()
            .fold(FNV_OFFSET, |h, v| fnv(h, v.to_bits()))
    });
}
