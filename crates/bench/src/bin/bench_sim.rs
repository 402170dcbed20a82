//! Emits `BENCH_sim.json` — the simulator's performance trajectory record.
//!
//! Measures the headline numbers of the simulator's performance work:
//!
//! 0. `gate_apply` — the **L2-resident batched seam workload**: one gate
//!    per kernel dispatch class — H (dense real), RX (dense complex),
//!    RZ (diagonal), CNOT (block-diagonal controlled) — applied to a
//!    16-row × 10-qubit `BatchedStates` (two 128 KiB planes,
//!    cache-resident), plus the block measurement kernels
//!    (`branch_probabilities_block` / `collapse_block_into`) on the same
//!    block, and the seam at one thread against the default thread count
//!    (recorded only: its tile sits below the fork threshold, which a
//!    `const` assert pins). This is where the PR-7 split-plane layout
//!    shows up; the PR-6 interleaved-layout record is compiled in as the
//!    *before* number
//!    (measured at commit 6b04277 with identical workload, iteration
//!    policy, and `-C target-cpu=x86-64-v3`, in the same session as the
//!    PR-7 record so machine conditions match).
//! 1. single-qubit gate application to a 10-qubit `DensityMatrix`
//!    (kernel-level, fast vs reference) — DRAM-bound (16 MiB of
//!    amplitudes), so layout changes barely move it; guarded against the
//!    PR-5 record instead,
//! 2. the end-to-end `gradient.rs` workload — a full 24-parameter gradient
//!    of the paper's `P1` circuit — fast kernels vs reference kernels, and
//! 3. `gradient_batch_16x` — the full-batch training gradient over the
//!    16-sample classification dataset, batched engine
//!    (`Trainer::loss_gradient` on `value_pure_batch`/`gradient_pure_batch`)
//!    vs the serial per-sample loop it replaced, and
//! 4. `estimator_shots` — the shot-noise P1 gradient (Section 7's
//!    execution model, 1024 trajectories per parameter), batched
//!    `ShotEngine` sweeps (`gradient_pure_shots`) vs the serial per-shot
//!    AST loop (`estimate_derivative`), and
//! 5. `gradient_branching_batch` — the full 36-parameter gradient of the
//!    *measurement-controlled* `P2` circuit over the 16-sample dataset:
//!    the branch-weighted batched executor
//!    (`GradientEngine::gradient_pure_batch` forking the whole block at
//!    each measurement) vs the per-row branch-enumeration baseline
//!    (`gradient_pure` per sample), and
//! 6. `measurement_sweep` — the block-level measurement engine on its
//!    measurement-heavy workload: one `P2` parameter's branching
//!    derivative multiset evaluated exactly over the 16-sample dataset
//!    (`ShotEngine::expectation_sweep`, one probability sweep and one
//!    collapse pass per group per fork) vs the retained per-row
//!    measurement path (`ResolvedProgram::expectation_pure`, one
//!    measurement pass per row per fork), plus the same multiset sampled
//!    at a 1024-shot budget (batched sweeps vs the serial per-shot loop),
//!    and
//! 7. `compile_cache` — the compile-once pipeline on the full 36-parameter
//!    `P2` gradient: cold per-call recompilation (fresh
//!    `LoweredSet::lower` of all 36 gadget multisets on top of the
//!    evaluation) vs the warm interned path, plus the `±π/2` shift rule on
//!    the **single** interned forward skeleton — whose compile count is
//!    pinned in-process to exactly one lowered program.
//! 8. `service_overload` — the `GradientService` under saturation: 32
//!    clients racing into a `max_pending = 8` tenant (the shed count is
//!    exact — the queue bound admits 8 and rejects 24 with a typed
//!    `Overloaded`, whatever the interleaving), plus a live phase of
//!    4 × 64 sequential requests at `min_batch = 1` recording a p50/p99
//!    request-latency proxy under concurrent serving.
//! 9. `differentiate` — cold `GradientEngine::new` (every parameter's
//!    compiled derivative multiset, built in one pass by
//!    `transform::derivative_programs`) on the 14-qubit hardware-efficient
//!    ansatz and on `P2`, against the paper's two-step route that the one
//!    pass replaces — Fig. 4 `transform` to the additive program, then
//!    Fig. 3 `compile` minus aborting programs — timed in the same run.
//!    Both routes must yield identical multisets.
//!
//! Run with `scripts/bench_sim.sh` or
//! `cargo run --release -p qdp-bench --bin bench_sim [output-path]`.

use qdp_ad::estimator::{estimate_derivative, estimate_derivative_batched};
use qdp_ad::transform::{fresh_ancilla, transform};
use qdp_ad::{
    GradientEngine, GradientService, OverloadPolicy, RequestOptions, ServiceConfig,
};
use qdp_lang::ast::{Params, Stmt};
use qdp_lang::compile;
use qdp_linalg::{C64, Matrix, Pauli};
use qdp_sim::kernels::{apply_matrix_planes, apply_matrix_reference, set_reference_kernels};
use qdp_sim::simd::{self, SimdTier};
use qdp_sim::{BatchedStates, DensityMatrix, Measurement, ShotSampler, StateVector};
use qdp_vqc::circuits::p1;
use qdp_vqc::loss::{Loss, SquaredLoss};
use qdp_vqc::task;
use qdp_vqc::train::Trainer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Median-of-runs wall time in nanoseconds for `f`, self-calibrating the
/// iteration count so each sample takes ≥ ~20ms.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Calibrate.
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 20 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    // Sample.
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time in nanoseconds of the two sides of `f` — `f(true)`
/// and `f(false)` — alternated every ~2 ms block over 41 rounds, so the
/// host's slow and fast spells (each far longer than a block) land on both
/// sides alike. Returns `(true_ns, false_ns)`.
fn paired_ns(mut f: impl FnMut(bool)) -> (f64, f64) {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f(true);
        }
        if t0.elapsed().as_micros() >= 2000 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut block = |side: bool| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f(side);
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let (mut first, mut second): (Vec<f64>, Vec<f64>) =
        (0..41).map(|_| (block(true), block(false))).unzip();
    first.sort_by(f64::total_cmp);
    second.sort_by(f64::total_cmp);
    (first[first.len() / 2], second[second.len() / 2])
}

/// The Fig. 4 + Fig. 3 oracle of `GradientEngine::new`: per parameter, the
/// additive program `transform` builds, compiled, minus aborting programs.
fn oracle_multisets(program: &Stmt) -> Vec<Vec<Stmt>> {
    program
        .parameters()
        .iter()
        .map(|param| {
            let ancilla = fresh_ancilla(program, param);
            let additive = transform(program, param, &ancilla).expect("fresh ancilla");
            let mut compiled = compile::compile(&additive);
            compiled.retain(|p| !p.essentially_aborts());
            compiled
        })
        .collect()
}

/// Cold `GradientEngine::new` on `program` against [`oracle_multisets`]:
/// checks the two agree, then returns `(engine_ns, oracle_ns)`.
fn differentiate_ns(program: &Stmt) -> (f64, f64) {
    let engine = GradientEngine::new(program).expect("differentiable");
    let one_pass: Vec<Vec<Stmt>> = engine
        .parameters()
        .filter_map(|p| engine.differentiated(p))
        .map(|d| d.compiled().to_vec())
        .collect();
    assert!(
        one_pass == oracle_multisets(program),
        "the one-pass derivative multisets must equal compile(transform(P))"
    );
    let engine_ns = time_ns(|| {
        std::hint::black_box(GradientEngine::new(program).expect("differentiable"));
    });
    let oracle_ns = time_ns(|| {
        std::hint::black_box(oracle_multisets(program));
    });
    (engine_ns, oracle_ns)
}

/// A random normalized `n`-qubit state (the micro-workload inputs — same
/// generator and seeds as the PR-6 baseline run).
fn random_state(n: usize, seed: u64) -> StateVector {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let amps: Vec<C64> = (0..1usize << n).map(|_| C64::new(next(), next())).collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    StateVector::from_amplitudes(
        n,
        amps.into_iter().map(|a| C64::new(a.re / norm, a.im / norm)).collect(),
    )
}

/// PR-6 (interleaved AoS layout, commit 6b04277) record of the batched
/// 16×10q seam micro-workloads — the *before* numbers `gate_apply` and the
/// `measurement_sweep` block kernels compare against. Measured on the same
/// machine/flags with `bench_micro` at that commit.
const PR6_GATE_H_NS: f64 = 8482.6;
const PR6_GATE_RX_NS: f64 = 18864.5;
const PR6_GATE_RZ_NS: f64 = 13946.6;
const PR6_GATE_CNOT_NS: f64 = 14016.1;
const PR6_BLOCK_PROBS_NS: f64 = 12999.1;
const PR6_BLOCK_COLLAPSE_NS: f64 = 12912.6;

/// PR-6 record of the two macro workloads whose hot loops the split-plane
/// layout rewrote underneath (`batched_ns` in the committed BENCH_sim.json
/// at commit 6b04277, re-measured in the same session as the micro
/// baselines) — recorded alongside the new numbers for trend tracking.
const PR6_ESTIMATOR_SHOTS_BATCHED_NS: f64 = 14620161.0;
const PR6_BRANCHING_BATCHED_NS: f64 = 1268493.9;

/// PR-5 record of the DRAM-bound density-matrix gate apply (`fast_ns` of
/// `gate_apply_10q_density` in the committed BENCH_sim.json at PR 5) — the
/// regression floor for the legacy headline.
const PR5_GATE_APPLY_DENSITY_NS: f64 = 748660.7;

/// PR-7 (split-plane scalar kernels) record of the batched 16×10q seam
/// micro-workloads — the *before* numbers the PR-9 explicit SIMD tier
/// compares against. Taken from the committed BENCH_sim.json at commit
/// 151fc02, measured on the same machine/flags (an AVX-512 host) with the
/// identical workload and iteration policy.
const PR7_GATE_H_NS: f64 = 8046.4;
const PR7_GATE_RX_NS: f64 = 11214.7;
const PR7_GATE_RZ_NS: f64 = 8172.8;
const PR7_GATE_CNOT_NS: f64 = 9561.5;
const PR7_BLOCK_PROBS_NS: f64 = 5850.5;
const PR7_BLOCK_COLLAPSE_NS: f64 = 9681.4;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sim.json".to_string());

    // --- 0. gate_apply: the L2-resident batched seam workload. ------------
    let micro_n = 10usize;
    let micro_rows = 16usize;
    let micro_states: Vec<StateVector> =
        (0..micro_rows).map(|r| random_state(micro_n, r as u64 + 1)).collect();
    let mut micro_batch = BatchedStates::from_states(&micro_states);

    let h = Matrix::hadamard();
    let rx = Matrix::rotation_x(0.7);
    let rz = Matrix::rotation_z(0.7);
    let cnot = Matrix::cnot();
    let gate_h_ns = time_ns(|| micro_batch.apply_gate(&h, &[4]));
    let gate_rx_ns = time_ns(|| micro_batch.apply_gate(&rx, &[5]));
    let gate_rz_ns = time_ns(|| micro_batch.apply_gate(&rz, &[6]));
    let gate_cnot_ns = time_ns(|| micro_batch.apply_gate(&cnot, &[3, 7]));

    // The same four gates at one thread against the default count,
    // recorded for the trend. The seam's tile is below the fork threshold,
    // so both sides run the same serial code; the assert pins that.
    const { assert!(16 << 10 < qdp_par::FORK_MIN_WORK) };
    let (seam_default_ns, seam_1t_ns) = paired_ns(|default| {
        qdp_par::set_max_threads(if default { 0 } else { 1 });
        micro_batch.apply_gate(&h, &[4]);
        micro_batch.apply_gate(&rx, &[5]);
        micro_batch.apply_gate(&rz, &[6]);
        micro_batch.apply_gate(&cnot, &[3, 7]);
    });
    qdp_par::set_max_threads(0);
    let seam_thread_ratio = seam_1t_ns / seam_default_ns;

    // PR-9 SIMD micro-workloads: the `mask = 1` deinterleave orbits the
    // explicit kernels target (row qubit 9 → stride-2 plane pairs) and a
    // dense-2q contiguous-run shape (row qubits 3,7 → run length 4), plus
    // the same workloads with the tier capped to the scalar fallback — an
    // in-process speedup oracle immune to cross-session machine drift.
    let rxx = Matrix::coupling_rotation(Pauli::X, 0.7);
    let gate_h_m1_ns = time_ns(|| micro_batch.apply_gate(&h, &[9]));
    let gate_rx_m1_ns = time_ns(|| micro_batch.apply_gate(&rx, &[9]));
    let gate_rz_m1_ns = time_ns(|| micro_batch.apply_gate(&rz, &[9]));
    let gate_cnot_m1_ns = time_ns(|| micro_batch.apply_gate(&cnot, &[3, 9]));
    let gate_rxx_ns = time_ns(|| micro_batch.apply_gate(&rxx, &[3, 7]));

    let simd_tier = simd::active_tier();
    simd::set_tier_cap(SimdTier::Scalar);
    let scalar_rx_ns = time_ns(|| micro_batch.apply_gate(&rx, &[5]));
    let scalar_rx_m1_ns = time_ns(|| micro_batch.apply_gate(&rx, &[9]));
    let scalar_cnot_m1_ns = time_ns(|| micro_batch.apply_gate(&cnot, &[3, 9]));
    let scalar_rxx_ns = time_ns(|| micro_batch.apply_gate(&rxx, &[3, 7]));
    simd::set_tier_cap(SimdTier::Avx512); // uncap: active = detected again
    let simd_rx_speedup = scalar_rx_ns / gate_rx_ns;
    let simd_mask1_speedup = scalar_rx_m1_ns / gate_rx_m1_ns;
    let simd_cnot_mask1_speedup = scalar_cnot_m1_ns / gate_cnot_m1_ns;
    let simd_rxx_speedup = scalar_rxx_ns / gate_rxx_ns;

    let micro_batch = BatchedStates::from_states(&micro_states);
    let micro_meas = Measurement::computational(vec![4]);
    let mut micro_table = Vec::new();
    let block_probs_ns = time_ns(|| {
        let (re, im) = micro_batch.planes();
        micro_meas.branch_probabilities_block(micro_n, re, im, &mut micro_table);
        std::hint::black_box(&micro_table);
    });
    let micro_selected: Vec<usize> = (0..micro_rows).collect();
    let (mut micro_out_re, mut micro_out_im) = (Vec::new(), Vec::new());
    let block_collapse_ns = time_ns(|| {
        micro_out_re.clear();
        micro_out_im.clear();
        let (re, im) = micro_batch.planes();
        micro_meas.collapse_block_into(
            micro_n,
            re,
            im,
            &micro_selected,
            0,
            &mut micro_out_re,
            &mut micro_out_im,
        );
        std::hint::black_box((&micro_out_re, &micro_out_im));
    });

    // --- 1. Kernel-level: H on one qubit of a 10-qubit density matrix. ----
    let n = 10usize;
    let mut rho = DensityMatrix::pure_zero(n);
    for q in 0..n {
        rho.apply_unitary(&Matrix::hadamard(), &[q]);
    }
    let (re, im) = rho.planes();
    let h = Matrix::hadamard();

    let (mut buf_re, mut buf_im) = (re.to_vec(), im.to_vec());
    let gate_fast_ns =
        time_ns(|| apply_matrix_planes(&mut buf_re, &mut buf_im, 2 * n, &h, &[4]));
    let mut buf = rho.to_matrix().as_slice().to_vec();
    let gate_ref_ns = time_ns(|| apply_matrix_reference(&mut buf, 2 * n, &h, &[4]));

    // --- 2. End-to-end: full P1 gradient (the gradient.rs workload). ------
    let program = p1();
    let engine = GradientEngine::new(&program).expect("P1 differentiable");
    let param_values: BTreeMap<String, f64> = program
        .parameters()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, 0.2 + 0.31 * i as f64))
        .collect();
    let params = Params::from_pairs(param_values.iter().map(|(k, &v)| (k.clone(), v)));
    let obs = task::readout_observable();
    let psi = StateVector::from_bits(&[true, false, true, false]);

    let grad_fast_ns = time_ns(|| {
        std::hint::black_box(engine.gradient_pure(&params, &obs, &psi));
    });
    set_reference_kernels(true);
    let grad_ref_ns = time_ns(|| {
        std::hint::black_box(engine.gradient_pure(&params, &obs, &psi));
    });
    set_reference_kernels(false);

    // --- 3. Batched vs serial full-batch training gradient (16 samples). -
    let data: Vec<(StateVector, f64)> = task::dataset()
        .into_iter()
        .map(|s| (s.input_state(), s.target()))
        .collect();
    let batch_size = data.len();
    let loss = SquaredLoss;
    let param_values: BTreeMap<String, f64> = program
        .parameters()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, 0.2 + 0.31 * i as f64))
        .collect();

    // The serial per-sample loop `Trainer::loss_gradient` ran before the
    // batch engine existed: one interpreter forward + one per-sample
    // gradient per dataset row, chain rule accumulated in row order.
    let serial_loop = || -> BTreeMap<String, f64> {
        let mut grads: BTreeMap<String, f64> =
            param_values.keys().map(|k| (k.clone(), 0.0)).collect();
        for (psi, label) in &data {
            let pred = engine.value_pure(&params, &obs, psi);
            let outer = loss.grad(pred, *label);
            if outer == 0.0 {
                continue;
            }
            let inner = engine.gradient_pure(&params, &obs, psi);
            for (name, g) in inner {
                *grads.get_mut(&name).expect("known parameter") += outer * g;
            }
        }
        grads
    };

    let mut trainer =
        Trainer::new(&program, task::readout_observable(), data.clone()).expect("P1 trains");
    trainer.set_params(&param_values);

    // Same numbers, two engines — sanity-check before timing.
    let serial_grads = serial_loop();
    let batched_grads = trainer.loss_gradient(&loss);
    for (name, v) in &serial_grads {
        assert!(
            (v - batched_grads[name]).abs() < 1e-12,
            "batched gradient diverged on {name}: {v} vs {}",
            batched_grads[name]
        );
    }

    let batch_serial_ns = time_ns(|| {
        std::hint::black_box(serial_loop());
    });
    let batch_fast_ns = time_ns(|| {
        std::hint::black_box(trainer.loss_gradient(&loss));
    });

    // --- 4. Shot-noise estimator: batched engine vs serial per-shot loop. -
    // The P1 gradient workload under Section 7's execution model: every
    // parameter's derivative estimated from sampled trajectories. The
    // serial loop interprets the AST one shot at a time
    // (`estimate_derivative`); the batched engine spends the same budget
    // in `ShotEngine` sweeps (`gradient_pure_shots`).
    let est_shots = 1024usize;
    let est_psi = StateVector::from_bits(&[true, false, true, false]);
    let est_seed = 42u64;

    let serial_shot_loop = || -> BTreeMap<String, f64> {
        engine
            .parameters()
            .enumerate()
            .map(|(j, name)| {
                let diff = engine.differentiated(name).expect("known parameter");
                let mut sampler = ShotSampler::seeded(qdp_sim::derive_seed(est_seed, j as u64));
                (
                    name.to_string(),
                    estimate_derivative(diff, &params, &obs, &est_psi, est_shots, &mut sampler),
                )
            })
            .collect()
    };
    let batched_shot_gradient =
        || engine.gradient_pure_shots(&params, &obs, &est_psi, est_shots, est_seed);

    // Both estimators must sit near the exact gradient before timing
    // (m = 1 per P1 parameter ⇒ standard error 1/√1024 ≈ 0.03).
    let exact_grad = engine.gradient_pure(&params, &obs, &est_psi);
    for (grads, path) in [
        (serial_shot_loop(), "serial"),
        (batched_shot_gradient(), "batched"),
    ] {
        for (name, v) in &grads {
            assert!(
                (v - exact_grad[name]).abs() < 0.2,
                "{path} shot estimate diverged on {name}: {v} vs {}",
                exact_grad[name]
            );
        }
    }

    let shots_serial_ns = time_ns(|| {
        std::hint::black_box(serial_shot_loop());
    });
    let shots_batched_ns = time_ns(|| {
        std::hint::black_box(batched_shot_gradient());
    });

    // --- 5. Branch-weighted exact executor vs per-row branch enumeration. -
    // P2's `case` makes every derivative multiset a branching program: the
    // per-row baseline enumerates both measurement branches row by row,
    // while the batched engine measures the whole 16-row block at once and
    // forks it into weighted outcome sub-batches.
    let p2_program = qdp_vqc::circuits::p2();
    let p2_engine = GradientEngine::new(&p2_program).expect("P2 differentiable");
    let p2_values: BTreeMap<String, f64> = p2_program
        .parameters()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, 0.2 + 0.31 * i as f64))
        .collect();
    let p2_params = Params::from_pairs(p2_values.iter().map(|(k, &v)| (k.clone(), v)));
    let p2_inputs: Vec<StateVector> = data.iter().map(|(psi, _)| psi.clone()).collect();
    let p2_batch = qdp_sim::BatchedStates::from_states(&p2_inputs);
    let branch_params = p2_values.len();

    let branching_per_row = || -> Vec<BTreeMap<String, f64>> {
        p2_inputs
            .iter()
            .map(|psi| p2_engine.gradient_pure(&p2_params, &obs, psi))
            .collect()
    };
    let branching_batched = || p2_engine.gradient_pure_batch(&p2_params, &obs, &p2_batch);

    // Same numbers, two executors — sanity-check before timing.
    for (row, serial) in branching_batched().iter().zip(branching_per_row()) {
        for (name, v) in &serial {
            assert!(
                (v - row[name]).abs() < 1e-12,
                "branch-weighted gradient diverged on {name}: {v} vs {}",
                row[name]
            );
        }
    }

    let branch_serial_ns = time_ns(|| {
        std::hint::black_box(branching_per_row());
    });
    let branch_batched_ns = time_ns(|| {
        std::hint::black_box(branching_batched());
    });

    // --- 6. Block-level measurement: group sweeps vs the per-row path. ----
    // The full branching P2 gradient's sweep work: every parameter's
    // derivative multiset — each compiled program branches at the
    // measurement the gadget controls — evaluated exactly over the
    // 16-sample dataset. The block path measures each group with one
    // probability sweep and one strided collapse pass per outcome; the
    // baseline is the retained per-row measurement path, the pinned
    // branch-enumeration oracle `ResolvedProgram::expectation_pure`.
    let p2_names: Vec<String> = p2_engine.parameters().map(|s| s.to_string()).collect();
    let p2_diffs: Vec<_> = p2_names
        .iter()
        .map(|name| p2_engine.differentiated(name).expect("cached artifact"))
        .collect();
    let p2_skeletons: Vec<_> = p2_diffs.iter().map(|d| d.skeleton()).collect();
    let mut resolved = Vec::new();
    for skeleton in &p2_skeletons {
        let lowered = skeleton.lowered();
        let slots = lowered.slot_values(&p2_params);
        resolved.extend(lowered.programs().iter().map(|p| p.resolve(&slots)));
    }
    let sweep_engines: Vec<qdp_sim::ShotEngine> = resolved
        .iter()
        .map(|p| qdp_sim::ShotEngine::new(p.to_trajectory()))
        .collect();
    let ext_obs = obs.with_ancilla_z();
    let ext_inputs: Vec<StateVector> = p2_inputs
        .iter()
        .map(|psi| StateVector::zero_state(1).tensor(psi))
        .collect();
    let ext_batch = qdp_sim::BatchedStates::from_states(&ext_inputs);

    let meas_block = || -> f64 {
        sweep_engines
            .iter()
            .map(|e| {
                e.expectation_sweep(ext_batch.clone(), &ext_obs)
                    .into_iter()
                    .sum::<f64>()
            })
            .sum()
    };
    let meas_per_row = || -> f64 {
        resolved
            .iter()
            .map(|p| {
                ext_inputs
                    .iter()
                    .map(|psi| p.expectation_pure(psi, &ext_obs))
                    .sum::<f64>()
            })
            .sum()
    };

    // Same numbers, two measurement paths — sanity-check before timing.
    assert!(
        (meas_block() - meas_per_row()).abs() < 1e-9,
        "block measurement sweep diverged: {} vs {}",
        meas_block(),
        meas_per_row()
    );

    let meas_per_row_ns = time_ns(|| {
        std::hint::black_box(meas_per_row());
    });
    let meas_block_ns = time_ns(|| {
        std::hint::black_box(meas_block());
    });

    // One multiset under the shot-noise model: 1024 trajectories, batched
    // block-measurement sweeps vs the serial per-shot AST loop.
    let meas_shots = 1024usize;
    let meas_psi = &p2_inputs[0];
    let meas_diff = p2_diffs[0];
    let sampled_block =
        || estimate_derivative_batched(meas_diff, &p2_params, &obs, meas_psi, meas_shots, 9);
    let sampled_serial = || {
        let mut sampler = ShotSampler::seeded(9);
        estimate_derivative(meas_diff, &p2_params, &obs, meas_psi, meas_shots, &mut sampler)
    };
    let meas_sampled_serial_ns = time_ns(|| {
        std::hint::black_box(sampled_serial());
    });
    let meas_sampled_block_ns = time_ns(|| {
        std::hint::black_box(sampled_block());
    });

    // --- 7. compile_cache: the 36-param P2 gradient, cold vs warm. --------
    // Cold = what every call paid in the per-entry-point world: freshly
    // lowering all 36 gadget multisets on top of the evaluation. Warm =
    // the interned path (`gradient_pure` on the process-wide cache). The
    // shift rule collapses the same gradient onto ONE lowered skeleton
    // evaluated at 72 shifted valuations — its compile count is pinned
    // here, in-process, as the acceptance check of the compile-once path.
    let compile_psi = &p2_inputs[0];
    let lower_36_ns = time_ns(|| {
        for diff in &p2_diffs {
            std::hint::black_box(qdp_ad::LoweredSet::lower(
                diff.compiled(),
                diff.ext_register(),
            ));
        }
    });

    // P2 forward program's process-wide first touch happens right here, on
    // this thread, so the thread-local lowering counter delta is exact.
    let lowers_before_shift = qdp_ad::lower_invocations();
    let shift_grad = p2_engine.gradient_pure_shift(&p2_params, &obs, compile_psi);
    let shift_lowered_programs = qdp_ad::lower_invocations() - lowers_before_shift;
    assert_eq!(
        shift_lowered_programs, 1,
        "the 36-param shift gradient must lower exactly one program skeleton"
    );
    let gadget_grad = p2_engine.gradient_pure(&p2_params, &obs, compile_psi);
    for (name, v) in &shift_grad {
        assert!(
            (v - gadget_grad[name]).abs() < 1e-8,
            "shift-rule gradient diverged on {name}: {v} vs {}",
            gadget_grad[name]
        );
    }

    let grad_warm_ns = time_ns(|| {
        std::hint::black_box(p2_engine.gradient_pure(&p2_params, &obs, compile_psi));
    });
    let grad_shift_ns = time_ns(|| {
        std::hint::black_box(p2_engine.gradient_pure_shift(&p2_params, &obs, compile_psi));
    });
    let grad_cold_ns = grad_warm_ns + lower_36_ns;
    let warm_speedup = grad_cold_ns / grad_warm_ns;
    let shift_speedup = grad_warm_ns / grad_shift_ns;

    // --- 8. service_overload: deterministic shedding + live latency. ------
    // Phase 1 (queue fill): 32 clients race into a tenant whose admission
    // threshold nothing reaches and whose queue holds 8 — whatever the
    // arrival order, exactly 8 enqueue and 24 shed with a typed
    // `Overloaded`, so the shed rate is a deterministic record, not a
    // sample. A flush then serves the 8 survivors in one sweep. Phase 2
    // (live): 4 clients each stream 64 requests through a min_batch=1
    // service, giving a p50/p99 request-latency proxy under concurrent
    // serving.
    let overload_clients = 32usize;
    let overload_bound = 8usize;
    let fill_service = Arc::new(GradientService::with_config(ServiceConfig {
        min_batch: overload_clients * 2,
        max_pending: Some(overload_bound),
        overload: OverloadPolicy::RejectNewest,
    }));
    let fill_handle = fill_service.register(&program).expect("P1 registers");
    let fill_workers: Vec<_> = (0..overload_clients)
        .map(|i| {
            let (service, handle) = (Arc::clone(&fill_service), fill_handle.clone());
            let (params, obs) = (params.clone(), obs.clone());
            let psi = StateVector::from_bits(&[i % 2 == 0, false, true, false]);
            std::thread::spawn(move || {
                service
                    .expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                    .is_ok()
            })
        })
        .collect();
    // Every submit resolves immediately into "queued" or "shed"; flush only
    // once all 32 are accounted for, so no straggler enqueues after the
    // gate opens and hangs below the threshold.
    while fill_service.shed(&fill_handle) + fill_service.pending_depth(&fill_handle)
        < overload_clients
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    fill_service.flush(&fill_handle);
    let fill_ok = fill_workers
        .into_iter()
        .map(|w| w.join().expect("fill client"))
        .filter(|&ok| ok)
        .count();
    let overload_shed = fill_service.shed(&fill_handle);
    let overload_served = fill_service.served(&fill_handle);
    let overload_shed_rate = overload_shed as f64 / overload_clients as f64;

    let live_threads = 4usize;
    let live_per_thread = 64usize;
    let live_service = Arc::new(GradientService::new());
    let live_handle = live_service.register(&program).expect("P1 registers");
    let live_workers: Vec<_> = (0..live_threads)
        .map(|t| {
            let (service, handle) = (Arc::clone(&live_service), live_handle.clone());
            let (params, obs) = (params.clone(), obs.clone());
            let psi = StateVector::from_bits(&[t % 2 == 0, t % 2 == 1, true, false]);
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(live_per_thread);
                for _ in 0..live_per_thread {
                    let t0 = Instant::now();
                    let v = service
                        .expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                        .expect("live request serves");
                    std::hint::black_box(v);
                    lat.push(t0.elapsed().as_nanos() as f64);
                }
                lat
            })
        })
        .collect();
    let mut live_lat: Vec<f64> = live_workers
        .into_iter()
        .flat_map(|w| w.join().expect("live client"))
        .collect();
    live_lat.sort_by(f64::total_cmp);
    let live_total = live_lat.len();
    let live_p50_ns = live_lat[live_total / 2];
    let live_p99_ns = live_lat[(live_total * 99) / 100];

    // --- 9. differentiate: one pass vs the Fig. 4 + Fig. 3 oracle. --------
    let hea14 = qdp_vqc::hamiltonian::hardware_efficient_ansatz(14, 2);
    let hea14_params = hea14.parameters().len();
    let (hea14_new_ns, hea14_oracle_ns) = differentiate_ns(&hea14);
    let (p2_new_ns, p2_oracle_ns) = differentiate_ns(&p2_program);
    let hea14_diff_speedup = hea14_oracle_ns / hea14_new_ns;
    let p2_diff_speedup = p2_oracle_ns / p2_new_ns;

    let gate_speedup = gate_ref_ns / gate_fast_ns;
    let grad_speedup = grad_ref_ns / grad_fast_ns;
    let batch_speedup = batch_serial_ns / batch_fast_ns;
    let shots_speedup = shots_serial_ns / shots_batched_ns;
    let branch_speedup = branch_serial_ns / branch_batched_ns;
    let meas_speedup = meas_per_row_ns / meas_block_ns;
    let meas_sampled_speedup = meas_sampled_serial_ns / meas_sampled_block_ns;

    // The PR-7 headline: combined time over the four dispatch classes (and
    // the two block measurement kernels) vs the PR-6 interleaved-layout
    // record on the identical workload. Per-gate befores are emitted too so
    // the JSON shows where the layout pays (complex/diagonal orbits) and
    // where the store ports cap it (H).
    let gate_total_ns = gate_h_ns + gate_rx_ns + gate_rz_ns + gate_cnot_ns;
    let pr6_gate_total_ns = PR6_GATE_H_NS + PR6_GATE_RX_NS + PR6_GATE_RZ_NS + PR6_GATE_CNOT_NS;
    let gate_apply_speedup = pr6_gate_total_ns / gate_total_ns;
    let pr7_gate_total_ns = PR7_GATE_H_NS + PR7_GATE_RX_NS + PR7_GATE_RZ_NS + PR7_GATE_CNOT_NS;
    let gate_apply_speedup_vs_pr7 = pr7_gate_total_ns / gate_total_ns;
    let meas_micro_total_ns = block_probs_ns + block_collapse_ns;
    let pr6_meas_micro_total_ns = PR6_BLOCK_PROBS_NS + PR6_BLOCK_COLLAPSE_NS;
    let meas_micro_speedup = pr6_meas_micro_total_ns / meas_micro_total_ns;
    let pr7_meas_micro_total_ns = PR7_BLOCK_PROBS_NS + PR7_BLOCK_COLLAPSE_NS;
    let meas_micro_speedup_vs_pr7 = pr7_meas_micro_total_ns / meas_micro_total_ns;

    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"threads\": {},\n  \"gate_apply\": {{\n    \"workload\": \"16x10q batched seam, L2-resident, one gate per dispatch class (H dense-real, RX dense-complex, RZ diagonal, CNOT block-diagonal)\",\n    \"gate_h_ns\": {gate_h_ns:.1},\n    \"gate_rx_ns\": {gate_rx_ns:.1},\n    \"gate_rz_ns\": {gate_rz_ns:.1},\n    \"gate_cnot_ns\": {gate_cnot_ns:.1},\n    \"simd_tier\": \"{simd_tier:?}\",\n    \"gate_h_mask1_ns\": {gate_h_m1_ns:.1},\n    \"gate_rx_mask1_ns\": {gate_rx_m1_ns:.1},\n    \"gate_rz_mask1_ns\": {gate_rz_m1_ns:.1},\n    \"gate_cnot_mask1_ns\": {gate_cnot_m1_ns:.1},\n    \"gate_rxx_ns\": {gate_rxx_ns:.1},\n    \"scalar_gate_rx_ns\": {scalar_rx_ns:.1},\n    \"scalar_gate_rx_mask1_ns\": {scalar_rx_m1_ns:.1},\n    \"scalar_gate_cnot_mask1_ns\": {scalar_cnot_m1_ns:.1},\n    \"scalar_gate_rxx_ns\": {scalar_rxx_ns:.1},\n    \"simd_rx_speedup\": {simd_rx_speedup:.2},\n    \"simd_mask1_speedup\": {simd_mask1_speedup:.2},\n    \"simd_cnot_mask1_speedup\": {simd_cnot_mask1_speedup:.2},\n    \"simd_rxx_speedup\": {simd_rxx_speedup:.2},\n    \"total_ns\": {gate_total_ns:.1},\n    \"pr6_gate_h_ns\": {PR6_GATE_H_NS:.1},\n    \"pr6_gate_rx_ns\": {PR6_GATE_RX_NS:.1},\n    \"pr6_gate_rz_ns\": {PR6_GATE_RZ_NS:.1},\n    \"pr6_gate_cnot_ns\": {PR6_GATE_CNOT_NS:.1},\n    \"pr6_total_ns\": {pr6_gate_total_ns:.1},\n    \"speedup_vs_pr6\": {gate_apply_speedup:.2},\n    \"pr7_gate_h_ns\": {PR7_GATE_H_NS:.1},\n    \"pr7_gate_rx_ns\": {PR7_GATE_RX_NS:.1},\n    \"pr7_gate_rz_ns\": {PR7_GATE_RZ_NS:.1},\n    \"pr7_gate_cnot_ns\": {PR7_GATE_CNOT_NS:.1},\n    \"pr7_total_ns\": {pr7_gate_total_ns:.1},\n    \"speedup_vs_pr7\": {gate_apply_speedup_vs_pr7:.2},\n    \"seam_default_threads_ns\": {seam_default_ns:.1},\n    \"seam_1_thread_ns\": {seam_1t_ns:.1},\n    \"seam_thread_speed_ratio\": {seam_thread_ratio:.2}\n  }},\n  \"gate_apply_10q_density\": {{\n    \"gate\": \"H on row qubit 4\",\n    \"fast_ns\": {gate_fast_ns:.1},\n    \"reference_ns\": {gate_ref_ns:.1},\n    \"speedup\": {gate_speedup:.2}\n  }},\n  \"gradient_p1_24_params\": {{\n    \"workload\": \"GradientEngine::gradient_pure on P1\",\n    \"fast_ns\": {grad_fast_ns:.1},\n    \"reference_ns\": {grad_ref_ns:.1},\n    \"speedup\": {grad_speedup:.2}\n  }},\n  \"gradient_batch_16x\": {{\n    \"workload\": \"Trainer::loss_gradient on P1, {batch_size}-sample batch\",\n    \"batched_ns\": {batch_fast_ns:.1},\n    \"serial_loop_ns\": {batch_serial_ns:.1},\n    \"speedup\": {batch_speedup:.2}\n  }},\n  \"estimator_shots\": {{\n    \"workload\": \"shot-noise P1 gradient, {est_shots} shots x 24 params\",\n    \"batched_ns\": {shots_batched_ns:.1},\n    \"pr6_batched_ns\": {PR6_ESTIMATOR_SHOTS_BATCHED_NS:.1},\n    \"serial_loop_ns\": {shots_serial_ns:.1},\n    \"speedup\": {shots_speedup:.2}\n  }},\n  \"gradient_branching_batch\": {{\n    \"workload\": \"branch-weighted P2 gradient, {batch_size}-sample batch x {branch_params} params\",\n    \"batched_ns\": {branch_batched_ns:.1},\n    \"pr6_batched_ns\": {PR6_BRANCHING_BATCHED_NS:.1},\n    \"per_row_ns\": {branch_serial_ns:.1},\n    \"speedup\": {branch_speedup:.2}\n  }},\n  \"measurement_sweep\": {{\n    \"workload\": \"P2 branching gradient multisets ({branch_params} params, {batch_size}-row exact sweeps) + {meas_shots}-shot estimate, block vs per-row measurement\",\n    \"exact_block_ns\": {meas_block_ns:.1},\n    \"exact_per_row_ns\": {meas_per_row_ns:.1},\n    \"sampled_block_ns\": {meas_sampled_block_ns:.1},\n    \"sampled_serial_ns\": {meas_sampled_serial_ns:.1},\n    \"sampled_speedup\": {meas_sampled_speedup:.2},\n    \"speedup\": {meas_speedup:.2},\n    \"block_probs_ns\": {block_probs_ns:.1},\n    \"block_collapse_ns\": {block_collapse_ns:.1},\n    \"micro_total_ns\": {meas_micro_total_ns:.1},\n    \"pr6_block_probs_ns\": {PR6_BLOCK_PROBS_NS:.1},\n    \"pr6_block_collapse_ns\": {PR6_BLOCK_COLLAPSE_NS:.1},\n    \"pr6_micro_total_ns\": {pr6_meas_micro_total_ns:.1},\n    \"micro_speedup_vs_pr6\": {meas_micro_speedup:.2},\n    \"pr7_block_probs_ns\": {PR7_BLOCK_PROBS_NS:.1},\n    \"pr7_block_collapse_ns\": {PR7_BLOCK_COLLAPSE_NS:.1},\n    \"pr7_micro_total_ns\": {pr7_meas_micro_total_ns:.1},\n    \"micro_speedup_vs_pr7\": {meas_micro_speedup_vs_pr7:.2}\n  }},\n  \"compile_cache\": {{\n    \"workload\": \"36-param P2 gradient, 1 input; fresh 36-multiset lowering vs interned warm path vs single-skeleton shift rule\",\n    \"lower_36_multisets_ns\": {lower_36_ns:.1},\n    \"gradient_cold_ns\": {grad_cold_ns:.1},\n    \"gradient_warm_ns\": {grad_warm_ns:.1},\n    \"warm_speedup_vs_cold\": {warm_speedup:.2},\n    \"gradient_shift_ns\": {grad_shift_ns:.1},\n    \"shift_lowered_programs\": {shift_lowered_programs},\n    \"shift_speedup_vs_warm\": {shift_speedup:.2}\n  }},\n  \"service_overload\": {{\n    \"workload\": \"{overload_clients} clients vs a max_pending={overload_bound} tenant (typed shedding), then {live_threads}x{live_per_thread} live requests at min_batch=1 (latency proxy)\",\n    \"queue_fill_clients\": {overload_clients},\n    \"max_pending\": {overload_bound},\n    \"shed\": {overload_shed},\n    \"served\": {overload_served},\n    \"shed_rate\": {overload_shed_rate:.3},\n    \"live_requests\": {live_total},\n    \"live_p50_ns\": {live_p50_ns:.1},\n    \"live_p99_ns\": {live_p99_ns:.1}\n  }},\n  \"differentiate\": {{\n    \"workload\": \"cold GradientEngine::new (one-pass derivative_programs per parameter) vs the Fig. 4 transform + Fig. 3 compile oracle\",\n    \"hea14_params\": {hea14_params},\n    \"hea14_engine_new_ns\": {hea14_new_ns:.1},\n    \"hea14_oracle_ns\": {hea14_oracle_ns:.1},\n    \"hea14_speedup\": {hea14_diff_speedup:.2},\n    \"p2_engine_new_ns\": {p2_new_ns:.1},\n    \"p2_oracle_ns\": {p2_oracle_ns:.1},\n    \"p2_speedup\": {p2_diff_speedup:.2}\n  }}\n}}\n",
        qdp_par::max_threads(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // Guard against catastrophic regressions only: shared CI runners are
    // noisy and the medians come from five samples, so leave headroom
    // before failing the job.
    assert!(
        hea14_diff_speedup >= 10.0,
        "one-pass differentiation must clearly beat compiling the quadratic \
         Fig. 4 sum on the 14-qubit ansatz (got {hea14_diff_speedup:.2}x)"
    );
    assert!(
        gate_speedup >= 0.8 && grad_speedup >= 0.8,
        "fast paths regressed well below the reference implementation \
         (gate {gate_speedup:.2}x, gradient {grad_speedup:.2}x)"
    );
    assert!(
        batch_speedup >= 1.0,
        "the batched gradient engine must not be slower than the serial \
         per-sample loop (got {batch_speedup:.2}x)"
    );
    assert!(
        shots_speedup >= 1.5,
        "the batched shot-noise estimator must clearly beat the serial \
         per-shot loop (got {shots_speedup:.2}x; the recorded target is 3x)"
    );
    assert!(
        branch_speedup >= 1.5,
        "the branch-weighted executor must clearly beat per-row branch \
         enumeration (got {branch_speedup:.2}x; the recorded target is 2x)"
    );
    assert!(
        meas_speedup >= 1.5,
        "the block measurement sweep must clearly beat the per-row \
         measurement path (got {meas_speedup:.2}x; the recorded target is 2x)"
    );
    assert!(
        gate_apply_speedup >= 1.2,
        "the split-plane gate seam regressed against the PR-6 interleaved \
         record (got {gate_apply_speedup:.2}x; the recorded target is 1.5x)"
    );
    assert!(
        meas_micro_speedup >= 1.4,
        "the split-plane block measurement kernels regressed against the \
         PR-6 interleaved record (got {meas_micro_speedup:.2}x; the \
         recorded target is 1.5x)"
    );
    assert!(
        gate_fast_ns <= PR5_GATE_APPLY_DENSITY_NS * 1.5,
        "the DRAM-bound density gate apply regressed well past the PR-5 \
         record ({gate_fast_ns:.1}ns vs the {PR5_GATE_APPLY_DENSITY_NS:.1}ns \
         floor)"
    );
    assert!(
        warm_speedup >= 1.05,
        "the interned warm gradient must clearly beat cold per-call \
         recompilation (got {warm_speedup:.2}x)"
    );
    // Overload shedding is exact, not statistical: the queue bound admits
    // exactly `overload_bound` of the racing clients and sheds the rest
    // with a typed error, whatever the arrival interleaving.
    assert_eq!(
        overload_shed + overload_served,
        overload_clients,
        "every queue-fill client must resolve as served or shed"
    );
    assert_eq!(
        overload_shed,
        overload_clients - overload_bound,
        "the shed count must equal the overflow past the queue bound exactly"
    );
    assert_eq!(
        fill_ok, overload_bound,
        "exactly the enqueued clients must be served after the flush"
    );
    assert!(
        live_p99_ns >= live_p50_ns && live_p50_ns > 0.0,
        "the live-phase latency proxy must be well-formed \
         (p50 {live_p50_ns:.1}ns, p99 {live_p99_ns:.1}ns)"
    );

    // PR-9 SIMD guards. The in-process scalar-vs-SIMD ratios are the
    // primary oracle — same machine, same run, immune to cross-session
    // drift; the PR-7 constants pin the cross-PR trend and only apply when
    // the wide tier is live (the PR-7 record came from an AVX-512 host).
    if simd_tier != SimdTier::Scalar {
        assert!(
            simd_mask1_speedup >= 1.5,
            "the mask=1 deinterleave kernel must clearly beat the scalar \
             fallback (got {simd_mask1_speedup:.2}x; the recorded target is 3x)"
        );
        let rx_floor = if simd_tier == SimdTier::Avx512 { 1.3 } else { 1.0 };
        assert!(
            simd_rx_speedup >= rx_floor,
            "the dense-complex contiguous-run kernel regressed against the \
             scalar fallback (got {simd_rx_speedup:.2}x, floor {rx_floor}x)"
        );
        assert!(
            simd_cnot_mask1_speedup >= 1.0 && simd_rxx_speedup >= 1.0,
            "a SIMD dispatch class fell behind its scalar fallback \
             (cnot mask1 {simd_cnot_mask1_speedup:.2}x, rxx {simd_rxx_speedup:.2}x)"
        );
    }
    if simd_tier == SimdTier::Avx512 {
        assert!(
            PR7_GATE_RX_NS / gate_rx_ns >= 1.3,
            "the RX dense-complex seam gate regressed against the PR-7 \
             scalar record ({gate_rx_ns:.1}ns vs {PR7_GATE_RX_NS:.1}ns; \
             the floor is 1.3x)"
        );
    }
}
