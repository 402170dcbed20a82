//! Kernel-level ablation: the production plane kernels against the
//! full-range reference scan, on the array shapes the paper's evaluation
//! actually stresses (a 10-qubit density matrix = 2²⁰ amplitudes, and the
//! small pure states of the training fast path).

use criterion::{criterion_group, criterion_main, Criterion};
use qdp_linalg::{C64, Matrix};
use qdp_sim::kernels::{apply_matrix_planes, apply_matrix_reference};
use qdp_sim::DensityMatrix;
use std::hint::black_box;
use std::time::Duration;

/// `H^⊗n |0⟩⟨0| H^⊗n` on `n` qubits: its split planes (the production
/// layout) and an interleaved copy (the reference scan's layout).
fn density(n: usize) -> ((Vec<f64>, Vec<f64>), Vec<C64>) {
    let mut rho = DensityMatrix::pure_zero(n);
    for q in 0..n {
        rho.apply_unitary(&Matrix::hadamard(), &[q]);
    }
    let (re, im) = rho.planes();
    ((re.to_vec(), im.to_vec()), rho.to_matrix().as_slice().to_vec())
}

fn bench_gate_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_apply_10q_density");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let n = 10usize; // density matrix ⇒ flat array over 2n = 20 qubits
    let (planes, amps) = density(n);
    let h = Matrix::hadamard();
    let rz = Matrix::rotation_from_involution(&Matrix::pauli_z(), 0.37);
    let crx = qdp_lang::ast::controlled_rotation_matrix(&Matrix::pauli_x(), 0.7);

    let (mut re, mut im) = planes.clone();
    group.bench_function("fast/H on row qubit 4", |b| {
        b.iter(|| {
            apply_matrix_planes(black_box(&mut re), black_box(&mut im), 2 * n, &h, &[4]);
        })
    });
    let mut buf = amps.clone();
    group.bench_function("reference/H on row qubit 4", |b| {
        b.iter(|| {
            apply_matrix_reference(black_box(&mut buf), 2 * n, &h, &[4]);
        })
    });

    let (mut re, mut im) = planes.clone();
    group.bench_function("fast/RZ (diagonal) on row qubit 4", |b| {
        b.iter(|| {
            apply_matrix_planes(black_box(&mut re), black_box(&mut im), 2 * n, &rz, &[4]);
        })
    });
    let mut buf = amps.clone();
    group.bench_function("reference/RZ on row qubit 4", |b| {
        b.iter(|| {
            apply_matrix_reference(black_box(&mut buf), 2 * n, &rz, &[4]);
        })
    });

    let (mut re, mut im) = planes;
    group.bench_function("fast/CRX (block-diag) on row qubits 0,7", |b| {
        b.iter(|| {
            apply_matrix_planes(black_box(&mut re), black_box(&mut im), 2 * n, &crx, &[0, 7]);
        })
    });
    let mut buf = amps.clone();
    group.bench_function("reference/CRX on row qubits 0,7", |b| {
        b.iter(|| {
            apply_matrix_reference(black_box(&mut buf), 2 * n, &crx, &[0, 7]);
        })
    });
    group.finish();
}

/// Per-tier ablation of the explicit SIMD kernels (`qdp_sim::simd`): the
/// same plane-seam gate sweeps under every tier this host can run, so a
/// criterion report shows exactly what each vector width buys per dispatch
/// class. Workloads: 14-qubit pure state (16 Ki amplitudes, L2-resident) —
/// RX at an interior stride (dense contiguous runs), RX/H/RZ/CNOT at the
/// lowest bit (the `mask = 1` deinterleave shape), and a dense 2q coupling
/// rotation (chunked runs).
fn bench_simd_tiers(c: &mut Criterion) {
    use qdp_sim::simd::{self, SimdTier};
    use qdp_sim::StateVector;

    let mut group = c.benchmark_group("simd_tiers_14q_pure");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));

    let n = 14usize;
    let mut amps = vec![C64::ZERO; 1 << n];
    amps[0] = C64::new(0.6, 0.8);
    let psi = StateVector::from_amplitudes(n, amps);

    let rx = Matrix::rotation_x(0.7);
    let h = Matrix::hadamard();
    let rz = Matrix::rotation_z(0.7);
    let cnot = Matrix::cnot();
    let rxx = Matrix::coupling_rotation(qdp_linalg::Pauli::X, 0.7);
    let cases: [(&str, &Matrix, &[usize]); 6] = [
        ("rx_interior", &rx, &[5]),
        ("rx_mask1", &rx, &[n - 1]),
        ("h_mask1", &h, &[n - 1]),
        ("rz_mask1", &rz, &[n - 1]),
        ("cnot_mask1", &cnot, &[3, n - 1]),
        ("rxx_runs", &rxx, &[3, 7]),
    ];

    let tiers: Vec<SimdTier> = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| t == SimdTier::Scalar || t <= simd::detected_tier())
        .collect();
    for tier in tiers {
        simd::set_tier_cap(tier);
        for (label, m, targets) in cases {
            let mut buf = psi.clone();
            group.bench_function(&format!("{tier:?}/{label}"), |b| {
                b.iter(|| black_box(&mut buf).apply_gate(m, targets))
            });
        }
    }
    simd::set_tier_cap(SimdTier::Avx512); // uncap: active = detected again
    group.finish();
}

fn bench_small_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_apply_6q_pure");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));

    let h = Matrix::hadamard();
    let mut amps = vec![C64::ZERO; 64];
    amps[0] = C64::ONE;
    let (mut re, mut im) = (vec![0.0; 64], vec![0.0; 64]);
    re[0] = 1.0;
    group.bench_function("fast/H on qubit 3", |b| {
        b.iter(|| apply_matrix_planes(black_box(&mut re), black_box(&mut im), 6, &h, &[3]))
    });
    let mut buf = amps.clone();
    group.bench_function("reference/H on qubit 3", |b| {
        b.iter(|| apply_matrix_reference(black_box(&mut buf), 6, &h, &[3]))
    });
    group.finish();
}

criterion_group!(benches, bench_gate_apply, bench_simd_tiers, bench_small_state);
criterion_main!(benches);
