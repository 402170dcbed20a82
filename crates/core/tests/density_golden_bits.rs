//! Golden bits of the density-operator paths: hard-coded `f64::to_bits`
//! fingerprints of partial density operators (Fig. 1b) run through the
//! gate kernels, Kraus channels, measurements and the differentiation
//! pipeline, so a change to the density path that moves a single bit fails
//! here even when every self-consistency suite still agrees with itself.
//!
//! * `GradientEngine::value` and `GradientEngine::gradient` of `P1` and
//!   `P2` on three dataset rows and on the maximally mixed state;
//! * one `P1` `second_derivative` (the nested differentiation of footnote 7);
//! * a 10-qubit `ρ` (`2²⁰` amplitudes, above `qdp_par::FORK_MIN_WORK`, so
//!   the kernels fork — including the top-bit split a left factor on row
//!   qubit 0 takes) through a gate sequence covering every kernel shape,
//!   an `apply_conjugation` with a projector, `initialize_qubit`, then
//!   `KrausChannel::apply` (depolarizing and amplitude damping), a
//!   rotated-basis `Measurement::branches` and `KrausChannel::dual_apply`.
//!
//! Every fingerprint is checked under forced 1, 2 and 8 `qdp_par` threads
//! and, at each thread count, under every SIMD tier cap the host supports
//! plus `Scalar`. The values are a property of the arithmetic, not of the
//! host: the kernels fix their rounding order in source and are bitwise
//! equal across SIMD tiers (see `crates/sim/tests/layout_differential.rs`).

use qdp_ad::exec::second_derivative;
use qdp_ad::GradientEngine;
use qdp_lang::ast::{Params, Stmt};
use qdp_linalg::{C64, Matrix};
use qdp_sim::simd::{self, SimdTier};
use qdp_sim::{DensityMatrix, KrausChannel, Measurement, StateVector};
use qdp_vqc::{circuits, task};
use std::sync::{Mutex, MutexGuard};

/// Serializes the file: `set_max_threads` and `set_tier_cap` are
/// process-global.
static GLOBALS: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every SIMD tier cap this host can run, plus `Scalar`.
fn tier_caps() -> Vec<SimdTier> {
    [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| t <= simd::detected_tier())
        .collect()
}

/// Runs `f` under each forced thread count and tier cap and asserts it
/// returns `expected` every time.
fn assert_golden<T: PartialEq + std::fmt::Debug>(what: &str, expected: T, f: impl Fn() -> T) {
    let _guard = serialized();
    let cap = simd::tier_cap();
    for threads in [1usize, 2, 8] {
        for tier in tier_caps() {
            qdp_par::set_max_threads(threads);
            simd::set_tier_cap(tier);
            let got = f();
            qdp_par::set_max_threads(0);
            simd::set_tier_cap(cap);
            assert_eq!(got, expected, "{what} at {threads} threads, tier cap {tier:?}");
        }
    }
}

/// FNV-1a over a stream of 64-bit words.
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fingerprint of every entry of `ρ`, row-major, real then imaginary bits.
fn fold_density(rho: &DensityMatrix) -> u64 {
    let dim = rho.dim();
    fold((0..dim * dim).flat_map(|k| {
        let z = rho.get(k / dim, k % dim);
        [z.re.to_bits(), z.im.to_bits()]
    }))
}

fn fold_matrix(m: &Matrix) -> u64 {
    fold(m.as_slice().iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
}

/// A fixed valuation: parameter `i` (in name order) is `0.3 + 0.41·i`.
fn valuation(program: &Stmt) -> Params {
    Params::from_pairs(
        program
            .parameters()
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, 0.3 + 0.41 * i as f64)),
    )
}

/// Three dataset rows and the maximally mixed state on the 4 task qubits.
fn inputs() -> Vec<DensityMatrix> {
    let data = task::dataset();
    let mut out: Vec<DensityMatrix> = [1usize, 6, 13]
        .iter()
        .map(|&i| DensityMatrix::from_pure(&data[i].input_state()))
        .collect();
    out.push(DensityMatrix::maximally_mixed(circuits::CASE_STUDY_QUBITS));
    out
}

/// Per input: the value's bits, then a fold of the gradient's bits in
/// parameter-name order.
fn values_and_gradients(program: &Stmt) -> Vec<u64> {
    let engine = GradientEngine::new(program).expect("differentiable");
    let params = valuation(program);
    let obs = task::readout_observable();
    let mut out = Vec::new();
    for rho in inputs() {
        out.push(engine.value(&params, &obs, &rho).to_bits());
        let grad = engine.gradient(&params, &obs, &rho);
        out.push(fold(grad.values().map(|g| g.to_bits())));
    }
    out
}

fn ry(theta: f64) -> Matrix {
    Matrix::rotation_from_involution(&Matrix::pauli_y(), theta)
}

fn rx(theta: f64) -> Matrix {
    Matrix::rotation_from_involution(&Matrix::pauli_x(), theta)
}

fn rz(theta: f64) -> Matrix {
    Matrix::rotation_from_involution(&Matrix::pauli_z(), theta)
}

/// `[[I, 0], [0, u]]` — the block-diagonal (controlled-`u`) 4×4.
fn controlled(u: &Matrix) -> Matrix {
    let mut m = Matrix::identity(4);
    for r in 0..2 {
        for c in 0..2 {
            m.set(2 + r, 2 + c, u.get(r, c));
        }
    }
    m
}

fn toffoli() -> Matrix {
    let mut t = Matrix::identity(8);
    t.set(6, 6, C64::ZERO);
    t.set(7, 7, C64::ZERO);
    t.set(6, 7, C64::ONE);
    t.set(7, 6, C64::ONE);
    t
}

const WIDE: usize = 10;

/// `|ψ⟩⟨ψ|` for deterministic pseudo-random amplitudes on [`WIDE`] qubits,
/// then a gate sequence covering every kernel shape: dense real and
/// complex 1q (row qubit 0 is the top bit of the doubled register),
/// diagonal, controlled, dense 2q, `k = 3`, a projector conjugation and a
/// reset.
fn wide_rho() -> DensityMatrix {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) / 32.0
    };
    let amps: Vec<C64> = (0..1usize << WIDE).map(|_| C64::new(next(), next())).collect();
    let mut rho = DensityMatrix::from_pure(&StateVector::from_amplitudes(WIDE, amps));
    let dense = rz(0.35).mul(&ry(0.8)).mul(&rx(1.7));
    let rxx = Matrix::rotation_from_involution(&Matrix::pauli_x().kron(&Matrix::pauli_x()), 0.6);
    let cz = Matrix::diagonal(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE]);
    rho.apply_unitary(&Matrix::hadamard(), &[0]);
    rho.apply_unitary(&ry(0.7), &[3]);
    rho.apply_unitary(&rx(1.1), &[9]);
    rho.apply_unitary(&rz(0.4), &[5]);
    rho.apply_unitary(&Matrix::cnot(), &[0, 9]);
    rho.apply_unitary(&controlled(&ry(1.3)), &[2, 7]);
    rho.apply_unitary(&cz, &[1, 8]);
    rho.apply_unitary(&rxx, &[4, 6]);
    rho.apply_unitary(&dense, &[8]);
    rho.apply_unitary(&dense, &[0]);
    rho.apply_unitary(&toffoli(), &[0, 5, 9]);
    rho.apply_conjugation(&Matrix::basis_projector(2, 0), &[6]);
    rho.initialize_qubit(4);
    rho
}

/// Fingerprints of the wide `ρ`, both channels applied to it, both
/// branches of a rotated-basis measurement, and a channel dual.
fn wide_fingerprints() -> Vec<u64> {
    let rho = wide_rho();
    let depol = KrausChannel::depolarizing(2, 0.3);
    let damp = KrausChannel::amplitude_damping(7, 0.45);
    let r = ry(0.9);
    let basis = |k: usize| r.mul(&Matrix::basis_projector(2, k)).mul(&r.dagger());
    let meas = Measurement::new(vec![basis(0), basis(1)], vec![3]);
    let mut out = vec![
        fold_density(&rho),
        fold_density(&depol.apply(&rho)),
        fold_density(&damp.apply(&rho)),
    ];
    out.extend(meas.branches(&rho).iter().map(fold_density));
    out.push(fold_matrix(&damp.dual_apply(&rho.to_matrix(), WIDE)));
    out
}

#[test]
fn p1_density_values_and_gradients_are_golden() {
    assert_golden(
        "P1 value/gradient",
        vec![
            0x3fe7294bc046a6c8,
            0xb37a19a49997e620,
            0x3fd1ad687f72b26a,
            0x9c6d13cfb30c7c02,
            0x3fe7294bc046a6c9,
            0xe637a7b764819a29,
            0x3fdffffffffffffe,
            0xfcc43fd7003c2305,
        ],
        || values_and_gradients(&circuits::p1()),
    );
}

#[test]
fn p2_density_values_and_gradients_are_golden() {
    assert_golden(
        "P2 value/gradient",
        vec![
            0x3fe26ab57633bd0d,
            0xcfabdf257e589ba1,
            0x3fdb2a95139885df,
            0x52c0c1bcecefdab5,
            0x3fed7c6349fc6059,
            0x1b20eda262c88d2c,
            0x3fe0000000000001,
            0xb3cff28841434e75,
        ],
        || values_and_gradients(&circuits::p2()),
    );
}

#[test]
fn p1_second_derivative_is_golden() {
    let p1 = circuits::p1();
    let params = valuation(&p1);
    let obs = task::readout_observable();
    let rho = inputs().remove(1);
    assert_golden("P1 ∂²/∂T3∂F7", 0x3fdd55ba565aacbc, || {
        second_derivative(&p1, "T3", "F7", &params, &obs, &rho)
            .expect("differentiable")
            .to_bits()
    });
}

#[test]
#[cfg_attr(miri, ignore = "2^20 amplitudes: too large for the interpreter")]
fn wide_density_path_is_golden() {
    assert_golden(
        "10-qubit density path",
        vec![
            0xe45ae6f817ff5174, // gate sequence
            0x0f5777a7360c5a26, // depolarizing
            0xdb489c83940ef1c0, // amplitude damping
            0xbb65fbd685a94cb4, // rotated branch 0
            0xe889383db392c7df, // rotated branch 1
            0x9dd45c22962cbe64, // amplitude-damping dual
        ],
        wide_fingerprints,
    );
}
