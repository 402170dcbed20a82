//! Fault-injection property suite for the fault-tolerant execution layer.
//!
//! Drives the deterministic harness in `qdp_sim::fault` against every
//! health policy and both parallel fan-out shapes, and pins the two core
//! contracts:
//!
//! * **Detection & recovery** — an injected NaN/Inf/drifted row is caught
//!   at the next measurement boundary under every policy; recovery
//!   matches the clean-run oracle to 1e-12 (bitwise on the unaffected
//!   rows and on retry paths), and a panicked worker tile is retried or
//!   surfaced as a typed [`QdpError`] instead of aborting the process.
//! * **Healthy-run bitwise identity** — with no fault armed, monitored
//!   engines (any policy) produce bit-for-bit the results of the
//!   unmonitored engine, under forced 1, 2, and 8 threads.
//!
//! Every test takes the file-wide lock: fault plans and the thread-count
//! override are process-global.

use qdp_linalg::Matrix;
use qdp_sim::fault::{fired_count, inject, FaultKind, FaultSite};
use qdp_sim::{
    BatchedStates, HealthConfig, HealthPolicy, Measurement, Observable, ProjectiveObservable,
    QdpError, ShotEngine, ShotSampler, StateVector, TrajProgram, SHOT_TILE,
};
use std::sync::{Mutex, MutexGuard};

/// Serializes the whole file: faults and `set_max_threads` are global.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with panic output suppressed (injected tile panics are
/// expected and would otherwise spam the test log).
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// A 2-qubit branching program: H(q0); case M[q0] {0 → X(q1), 1 → H(q1)};
/// H(q0) — exercises gates before and after a measurement boundary in
/// both sweep modes.
fn branching_program() -> TrajProgram {
    let mut arm0 = TrajProgram::new();
    arm0.push_gate(Matrix::pauli_x(), vec![1]);
    let mut arm1 = TrajProgram::new();
    arm1.push_gate(Matrix::hadamard(), vec![1]);
    let mut p = TrajProgram::new();
    p.push_gate(Matrix::hadamard(), vec![0]);
    p.push_case(Measurement::computational(vec![0]), vec![arm0, arm1]);
    p.push_gate(Matrix::hadamard(), vec![0]);
    p
}

fn engine() -> ShotEngine {
    ShotEngine::new(branching_program())
}

fn with_policy(policy: HealthPolicy) -> ShotEngine {
    engine().with_health(HealthConfig::with_policy(policy))
}

/// Distinct normalised input rows.
fn inputs(rows: usize) -> Vec<StateVector> {
    (0..rows)
        .map(|r| {
            let mut psi = StateVector::basis_state(2, r % 4);
            psi.apply_gate(&Matrix::hadamard(), &[r % 2]);
            psi
        })
        .collect()
}

fn batch(rows: usize) -> BatchedStates {
    BatchedStates::from_states(&inputs(rows))
}

fn samplers(rows: usize, seed: u64) -> Vec<ShotSampler> {
    (0..rows).map(|r| ShotSampler::derived(seed, r as u64)).collect()
}

/// A shot estimate of `readout` from `psi` alone: a batch of one row on
/// stream `seed`.
fn estimate(
    e: &ShotEngine,
    psi: &StateVector,
    readout: &ProjectiveObservable,
    shots: usize,
    seed: u64,
) -> Result<f64, QdpError> {
    e.try_estimate_expectation_batch(std::slice::from_ref(psi), readout, shots, &[seed])
        .map(|estimates| estimates[0])
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
    }
}

const POLICIES: [HealthPolicy; 3] = [
    HealthPolicy::FailFast,
    HealthPolicy::Renormalize,
    HealthPolicy::DegradeToOracle,
];

#[test]
fn healthy_runs_are_bitwise_identical_under_monitoring_and_threads() {
    let _l = lock();
    const ROWS: usize = 20;
    let obs = Observable::pauli_z(2, 1);
    let readout = ProjectiveObservable::new(&obs);

    // Unmonitored single-thread baselines.
    qdp_par::set_max_threads(1);
    let base_exact = engine().expectation_sweep(batch(ROWS), &obs);
    let mut s = samplers(ROWS, 99);
    let base_sampled = engine().sample_sweep(batch(ROWS), &[1; ROWS], &mut s, &readout);
    let base_estimate = estimate(&engine(), &inputs(1)[0], &readout, 3 * SHOT_TILE, 5).unwrap();

    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let engines = std::iter::once(engine()).chain(POLICIES.iter().map(|&p| with_policy(p)));
        for (k, e) in engines.enumerate() {
            let what = format!("threads {threads}, engine {k}");
            assert_bits_eq(
                &e.expectation_sweep(batch(ROWS), &obs),
                &base_exact,
                &format!("exact sweep ({what})"),
            );
            let mut s = samplers(ROWS, 99);
            assert_bits_eq(
                &e.sample_sweep(batch(ROWS), &[1; ROWS], &mut s, &readout),
                &base_sampled,
                &format!("sampled sweep ({what})"),
            );
            let est = estimate(&e, &inputs(1)[0], &readout, 3 * SHOT_TILE, 5).unwrap();
            assert_eq!(est.to_bits(), base_estimate.to_bits(), "estimate ({what})");
        }
    }
    qdp_par::set_max_threads(0);
    assert_eq!(fired_count(), 0, "no fault was armed");
}

#[test]
fn injected_non_finite_amplitudes_fail_fast_with_typed_errors() {
    let _l = lock();
    qdp_par::set_max_threads(1);
    // NaN and Inf are unrepairable: FailFast and Renormalize must both
    // reject the poisoned row with a typed NonFinite naming it.
    for policy in [HealthPolicy::FailFast, HealthPolicy::Renormalize] {
        for kind in [FaultKind::Nan, FaultKind::Inf] {
            let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind });
            let mut s = samplers(6, 7);
            let err = with_policy(policy)
                .try_run(batch(6), &[1; 6], &mut s)
                .expect_err("poisoned row must be detected");
            assert!(
                matches!(err, QdpError::NonFinite { row: 2, .. }),
                "{policy:?}/{kind:?}: unexpected error {err:?}"
            );
            assert_eq!(fired_count(), 1, "{policy:?}/{kind:?}: fault did not fire");
            drop(guard);

            // Same detection on the exact branch-weighted sweep.
            let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind });
            let err = with_policy(policy)
                .try_expectation_sweep(batch(6), &Observable::pauli_z(2, 1))
                .expect_err("poisoned row must be detected");
            assert!(
                matches!(err, QdpError::NonFinite { row: 2, .. }),
                "exact {policy:?}/{kind:?}: unexpected error {err:?}"
            );
            drop(guard);
        }
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn injected_norm_drift_is_detected_and_renormalized() {
    let _l = lock();
    qdp_par::set_max_threads(1);
    let obs = Observable::pauli_z(2, 1);
    let drift = FaultKind::Scale(1.001);

    // FailFast: typed NormDrift naming the row and the observed norm.
    let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind: drift });
    let mut s = samplers(6, 7);
    let err = with_policy(HealthPolicy::FailFast)
        .try_run(batch(6), &[1; 6], &mut s)
        .expect_err("drifted row must be detected");
    match err {
        QdpError::NormDrift { row, expected, actual, .. } => {
            assert_eq!(row, 2);
            assert!(
                (actual / expected - 1.001f64.powi(2)).abs() < 1e-9,
                "observed drift {actual} vs expected norm {expected}"
            );
        }
        other => panic!("unexpected error {other:?}"),
    }
    drop(guard);

    // Renormalize: the run completes and every row matches the clean-run
    // oracle to 1e-12 (the repaired row picks up one rescale of rounding).
    let clean = engine().expectation_sweep(batch(6), &obs);
    let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind: drift });
    let repaired = with_policy(HealthPolicy::Renormalize)
        .try_expectation_sweep(batch(6), &obs)
        .expect("renormalize must repair finite drift");
    assert_eq!(fired_count(), 1);
    drop(guard);
    for (r, (a, b)) in repaired.iter().zip(&clean).enumerate() {
        assert!((a - b).abs() < 1e-12, "row {r}: repaired {a} vs clean {b}");
        if r != 2 {
            assert_eq!(a.to_bits(), b.to_bits(), "healthy row {r} must keep its bits");
        }
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn degrade_to_oracle_recovers_poisoned_rows_and_preserves_healthy_bits() {
    let _l = lock();
    qdp_par::set_max_threads(1);
    let obs = Observable::pauli_z(2, 1);
    let readout = ProjectiveObservable::new(&obs);

    // Sampled trajectories: the defected row is replayed serially from
    // its original input and stream.
    let mut s = samplers(6, 7);
    let clean_rows = engine().run(batch(6), &[1; 6], &mut s);
    let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind: FaultKind::Nan });
    let mut s = samplers(6, 7);
    let recovered = with_policy(HealthPolicy::DegradeToOracle)
        .try_run(batch(6), &[1; 6], &mut s)
        .expect("degraded run must complete");
    assert_eq!(fired_count(), 1);
    drop(guard);
    for (r, (got, want)) in recovered.iter().zip(&clean_rows).enumerate() {
        assert_eq!(got.outcomes, want.outcomes, "row {r}: outcomes diverged");
        let (got, want) = (got.state.as_ref().unwrap(), want.state.as_ref().unwrap());
        let (got, want) = (got.amplitudes(), want.amplitudes());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            let d = (*a - *b).norm_sqr().sqrt();
            assert!(d < 1e-12, "row {r} amp {i}: {a:?} vs {b:?}");
            if r != 2 {
                assert_eq!(a, b, "healthy row {r} must keep its bits");
            }
        }
    }

    // Sampled read-out sweep.
    let mut s = samplers(6, 7);
    let clean = engine().sample_sweep(batch(6), &[1; 6], &mut s, &readout);
    let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind: FaultKind::Inf });
    let mut s = samplers(6, 7);
    let recovered = with_policy(HealthPolicy::DegradeToOracle)
        .try_sample_sweep(batch(6), &[1; 6], &mut s, &readout)
        .expect("degraded sweep must complete");
    drop(guard);
    for (r, (a, b)) in recovered.iter().zip(&clean).enumerate() {
        assert!((a - b).abs() < 1e-12, "sampled row {r}: {a} vs {b}");
        if r != 2 {
            assert_eq!(a.to_bits(), b.to_bits(), "healthy sampled row {r}");
        }
    }

    // Exact branch-weighted sweep: the defected row re-runs on the
    // per-row branch enumerator.
    let clean = engine().expectation_sweep(batch(6), &obs);
    let guard = inject(FaultSite::Kernel { call: 0, row: 2, kind: FaultKind::Nan });
    let recovered = with_policy(HealthPolicy::DegradeToOracle)
        .try_expectation_sweep(batch(6), &obs)
        .expect("degraded exact sweep must complete");
    drop(guard);
    for (r, (a, b)) in recovered.iter().zip(&clean).enumerate() {
        assert!((a - b).abs() < 1e-12, "exact row {r}: {a} vs {b}");
        if r != 2 {
            assert_eq!(a.to_bits(), b.to_bits(), "healthy exact row {r}");
        }
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn faults_on_a_shared_row_reach_every_member() {
    // A shot block of one input runs as one shared state row, so a kernel
    // fault on row 0 poisons every member at once: each policy must act
    // on all of them.
    let _l = lock();
    qdp_par::set_max_threads(1);
    const SHOTS: usize = 6;
    let psi = &inputs(2)[1];
    let shots = || BatchedStates::from_states(std::slice::from_ref(psi));
    let obs = Observable::pauli_z(2, 1);
    let readout = ProjectiveObservable::new(&obs);

    // FailFast names the lowest shot of the poisoned class: shot 0 of the
    // shot block, and shot 1 of inputs `[a, b, c]` with shots `[1, 3, 1]`
    // (whose class row 1 holds the three shots of `b`).
    let guard = inject(FaultSite::Kernel { call: 0, row: 0, kind: FaultKind::Nan });
    let err = with_policy(HealthPolicy::FailFast)
        .try_run(shots(), &[SHOTS], &mut samplers(SHOTS, 7))
        .expect_err("poisoned shared row must be detected");
    assert!(matches!(err, QdpError::NonFinite { row: 0, .. }), "unexpected error {err:?}");
    drop(guard);
    let rows = inputs(3);
    let guard = inject(FaultSite::Kernel { call: 0, row: 1, kind: FaultKind::Nan });
    let err = with_policy(HealthPolicy::FailFast)
        .try_run(BatchedStates::from_states(&rows), &[1, 3, 1], &mut samplers(5, 7))
        .expect_err("poisoned shared row must be detected");
    assert!(matches!(err, QdpError::NonFinite { row: 1, .. }), "unexpected error {err:?}");
    drop(guard);

    let clean = engine().run(shots(), &[SHOTS], &mut samplers(SHOTS, 7));
    let assert_close = |got: &[qdp_sim::TrajectoryRow], what: &str| {
        for (r, (got, want)) in got.iter().zip(&clean).enumerate() {
            assert_eq!(got.outcomes, want.outcomes, "{what}: row {r} outcomes diverged");
            let got = got.state.as_ref().unwrap().amplitudes();
            let want = want.state.as_ref().unwrap().amplitudes();
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                let d = (*a - *b).norm_sqr().sqrt();
                assert!(d < 1e-12, "{what}: row {r} amp {i}: {a:?} vs {b:?}");
            }
        }
    };

    // Renormalize repairs the shared row, and with it every member.
    let guard = inject(FaultSite::Kernel { call: 0, row: 0, kind: FaultKind::Scale(1.001) });
    let repaired = with_policy(HealthPolicy::Renormalize)
        .try_run(shots(), &[SHOTS], &mut samplers(SHOTS, 7))
        .expect("renormalize must repair finite drift");
    assert_eq!(fired_count(), 1);
    drop(guard);
    assert_close(&repaired, "renormalized");

    // DegradeToOracle replays every member from its input and stream.
    let guard = inject(FaultSite::Kernel { call: 0, row: 0, kind: FaultKind::Nan });
    let replayed = with_policy(HealthPolicy::DegradeToOracle)
        .try_run(shots(), &[SHOTS], &mut samplers(SHOTS, 7))
        .expect("degraded run must complete");
    assert_eq!(fired_count(), 1);
    drop(guard);
    assert_close(&replayed, "replayed");

    let clean = engine().sample_sweep(shots(), &[SHOTS], &mut samplers(SHOTS, 7), &readout);
    let guard = inject(FaultSite::Kernel { call: 0, row: 0, kind: FaultKind::Inf });
    let replayed = with_policy(HealthPolicy::DegradeToOracle)
        .try_sample_sweep(shots(), &[SHOTS], &mut samplers(SHOTS, 7), &readout)
        .expect("degraded sweep must complete");
    assert_eq!(fired_count(), 1);
    drop(guard);
    for (r, (a, b)) in replayed.iter().zip(&clean).enumerate() {
        assert!((a - b).abs() < 1e-12, "replayed sample {r}: {a} vs {b}");
    }
    qdp_par::set_max_threads(0);
}

#[test]
fn panicked_tiles_are_retried_bit_identically_or_surface_typed_errors() {
    let _l = lock();
    let obs = Observable::pauli_z(2, 1);
    let readout = ProjectiveObservable::new(&obs);
    let psi = &inputs(1)[0];
    let shots = 3 * SHOT_TILE;

    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let clean = estimate(&engine(), psi, &readout, shots, 5).unwrap();

        with_quiet_panics(|| {
            // Two panics fit the retry budget: the run heals and the
            // result is bit-identical (tiles are pure).
            let guard = inject(FaultSite::Tile { index: 1, panics: 2 });
            let healed = estimate(&engine(), psi, &readout, shots, 5)
                .expect("retries must heal a transient tile fault");
            assert_eq!(healed.to_bits(), clean.to_bits(), "threads {threads}");
            assert_eq!(fired_count(), 2, "threads {threads}: fault fired on retry");
            drop(guard);

            // Three panics exhaust initial + 2 retries: typed error, no
            // process abort.
            let guard = inject(FaultSite::Tile { index: 1, panics: 3 });
            let err = estimate(&engine(), psi, &readout, shots, 5)
                .expect_err("exhausted retries must surface");
            match err {
                QdpError::WorkerPanic { tile, message } => {
                    assert_eq!(tile, 1);
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(fired_count(), 3);
            drop(guard);
        });
    }

    // Exact row-tile fan-out: needs >1 thread and enough rows that the
    // sweep's work (rows × 4 amplitudes × 5 ops) pays for a fork.
    const TILED_ROWS: usize = qdp_par::FORK_MIN_WORK / (4 * 5) + 1;
    qdp_par::set_max_threads(8);
    let clean = engine().expectation_sweep(batch(TILED_ROWS), &obs);
    with_quiet_panics(|| {
        let guard = inject(FaultSite::Tile { index: 2, panics: 1 });
        let healed = engine()
            .try_expectation_sweep(batch(TILED_ROWS), &obs)
            .expect("retry must heal the exact tile");
        assert_bits_eq(&healed, &clean, "exact sweep after tile retry");
        assert_eq!(fired_count(), 1);
        drop(guard);
    });
    qdp_par::set_max_threads(0);
}

#[test]
fn engine_configuration_is_validated_with_typed_errors() {
    let _l = lock();
    for bad in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
        match engine().try_with_mass_budget(bad) {
            Err(QdpError::InvalidMassBudget { epsilon }) => {
                assert_eq!(epsilon.to_bits(), bad.to_bits());
            }
            other => panic!("ε = {bad}: expected InvalidMassBudget, got {other:?}"),
        }
    }
    assert!(engine().try_with_mass_budget(0.0).is_ok());
    assert!(engine().try_with_mass_budget(0.999).is_ok());

    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match qdp_sim::try_chernoff_shots(3, bad) {
            Err(QdpError::InvalidPrecision { what, .. }) => assert_eq!(what, "precision"),
            other => panic!("δ = {bad}: expected InvalidPrecision, got {other:?}"),
        }
    }
    assert_eq!(qdp_sim::try_chernoff_shots(2, 0.5), Ok(16));
}
