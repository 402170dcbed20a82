//! Statistical tests of the batched shot-noise estimator — the
//! `crates/sim/tests/sampler_stats.rs` discipline applied to
//! `qdp_ad::estimator::estimate_derivative_batched`.
//!
//! Everything runs on **seeded** streams, so every assertion is a
//! deterministic regression check rather than a flaky statistical gamble:
//! the empirical errors are fixed numbers for the fixed seed set, and the
//! bounds leave honest statistical headroom.
//!
//! The Chernoff budget of Section 7 prescribes `⌈m²/δ²⌉` shots for
//! additive error `δ` on a sum of `m` program read-outs; the estimator's
//! per-shot values are `m·λ` with `|λ| ≤ 1`, so the standard error of the
//! mean at that budget is at most `m/√shots = δ` (attained at maximal
//! shot variance). The empirical RMS over many seeds must come in at or
//! below that, the mean absolute error below `δ`, and a clear majority of
//! runs within `δ`.

use qdp_ad::estimator::{chernoff_shots, estimate_derivative_batched};
use qdp_ad::{differentiate, Differentiated, GradientEngine};
use qdp_lang::ast::Params;
use qdp_lang::parse_program;
use qdp_sim::{Observable, StateVector};
use std::sync::Mutex;

/// Serializes the thread-override test against every other test in this
/// binary: `set_max_threads` is process-global, so a concurrently running
/// sibling test could reset it mid-run and silently undo the forced
/// configuration.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn check_chernoff_budget(
    diff: &Differentiated,
    params: &Params,
    obs: &Observable,
    psi: &StateVector,
    delta: f64,
    seeds: std::ops::Range<u64>,
) {
    let _guard = serialized();
    let m = diff.compiled().len();
    let shots = chernoff_shots(m, delta);
    let exact = diff.derivative_pure(params, obs, psi);
    let trials = seeds.end - seeds.start;
    assert!(trials >= 20, "the contract spans at least 20 seeds");

    let mut sq_err_sum = 0.0;
    let mut abs_err_sum = 0.0;
    let mut within = 0u64;
    for seed in seeds {
        let err = estimate_derivative_batched(diff, params, obs, psi, shots, seed) - exact;
        sq_err_sum += err * err;
        abs_err_sum += err.abs();
        if err.abs() <= delta {
            within += 1;
        }
    }
    let rms = (sq_err_sum / trials as f64).sqrt();
    let mean_abs = abs_err_sum / trials as f64;
    assert!(
        rms <= 1.25 * delta,
        "m={m}: RMS error {rms} above Chernoff budget δ={delta}"
    );
    assert!(
        mean_abs <= delta,
        "m={m}: mean |error| {mean_abs} above δ={delta}"
    );
    // |error| ≤ δ holds for ~68% of runs in the Gaussian limit even at
    // maximal shot variance; require a clear majority.
    assert!(
        within * 2 > trials,
        "m={m}: only {within}/{trials} runs within δ={delta}"
    );
}

#[test]
fn straight_line_estimator_error_stays_within_chernoff_budget() {
    // Two occurrences of t → m = 2 compiled programs.
    let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
    let diff = differentiate(&p, "t").unwrap();
    let params = Params::from_pairs([("t", 0.8)]);
    let obs = Observable::pauli_z(1, 0);
    let psi = StateVector::zero_state(1);
    check_chernoff_budget(&diff, &params, &obs, &psi, 0.25, 100..124);
}

#[test]
fn branching_estimator_error_stays_within_chernoff_budget() {
    // Measurement control flow: the trajectories themselves are sampled,
    // not just the read-out. m = 3 occurrences of t.
    let p = parse_program(
        "q1 *= RX(t); case M[q1] = 0 -> q1 *= RY(t), 1 -> q1 *= RZ(t) end",
    )
    .unwrap();
    let diff = differentiate(&p, "t").unwrap();
    assert!(diff.compiled().len() >= 2, "multi-program multiset expected");
    let params = Params::from_pairs([("t", 1.1)]);
    let obs = Observable::pauli_z(1, 0);
    let psi = StateVector::zero_state(1);
    check_chernoff_budget(&diff, &params, &obs, &psi, 0.3, 500..521);
}

#[test]
fn bounded_while_estimator_error_stays_within_chernoff_budget() {
    let p = parse_program("q1 *= RY(t); while[2] M[q1] = 1 do q1 *= RY(t) done").unwrap();
    let diff = differentiate(&p, "t").unwrap();
    let params = Params::from_pairs([("t", 0.7)]);
    let obs = Observable::pauli_z(1, 0);
    let psi = StateVector::zero_state(1);
    check_chernoff_budget(&diff, &params, &obs, &psi, 0.35, 40..62);
}

#[test]
fn estimator_error_shrinks_as_the_budget_grows() {
    let _guard = serialized();
    let p = parse_program("q1 *= RX(t); q1 *= RY(t)").unwrap();
    let diff = differentiate(&p, "t").unwrap();
    let params = Params::from_pairs([("t", 0.8)]);
    let obs = Observable::pauli_z(1, 0);
    let psi = StateVector::zero_state(1);
    let exact = diff.derivative_pure(&params, &obs, &psi);
    let rms = |delta: f64| {
        let shots = chernoff_shots(diff.compiled().len(), delta);
        let sum: f64 = (0..16u64)
            .map(|seed| {
                let err = estimate_derivative_batched(&diff, &params, &obs, &psi, shots, seed)
                    - exact;
                err * err
            })
            .sum();
        (sum / 16.0).sqrt()
    };
    // Tightening δ by 3x grows the budget 9x and must shrink the
    // (deterministic, seeded) empirical RMS.
    assert!(rms(0.1) < rms(0.3));
}

#[test]
fn batched_estimator_is_bitwise_deterministic_under_forced_thread_counts() {
    let _guard = serialized();
    let p = parse_program(
        "q1 *= RX(t); case M[q1] = 0 -> q2 *= RY(u), 1 -> q2 := |0> end; \
         while[2] M[q2] = 1 do q2 *= RY(t) done",
    )
    .unwrap();
    let diff = differentiate(&p, "t").unwrap();
    let engine = GradientEngine::new(&p).unwrap();
    let params = Params::from_pairs([("t", 0.9), ("u", 1.7)]);
    let obs = Observable::pauli_z(2, 1);
    let psi = StateVector::zero_state(2);
    // More shots than one SHOT_TILE so the tile fan-out actually splits.
    let shots = qdp_sim::SHOT_TILE * 3 + 17;

    let mut per_config: Vec<(u64, u64, Vec<u64>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let est = estimate_derivative_batched(&diff, &params, &obs, &psi, shots, 99).to_bits();
        let value = engine.value_pure_shots(&params, &obs, &psi, shots, 7).to_bits();
        let grad: Vec<u64> = engine
            .gradient_pure_shots(&params, &obs, &psi, 700, 13)
            .into_values()
            .map(f64::to_bits)
            .collect();
        per_config.push((est, value, grad));
    }
    qdp_par::set_max_threads(0);
    assert_eq!(per_config[0], per_config[1], "1 vs 2 threads");
    assert_eq!(per_config[0], per_config[2], "1 vs 8 threads");
}

#[test]
fn shot_values_of_a_program_with_a_sum_track_its_exact_value() {
    let _guard = serialized();
    // Two compiled programs (m = 2), one with a measurement: each shot
    // runs one of them, drawn from the row's master stream, and reads out
    // `m·λ` with `|λ| ≤ 1`.
    let p = parse_program(
        "q1 *= RY(a); q2 *= RX(b); case M[q1] = 0 -> q2 *= RY(a), 1 -> q2 := |0> end \
         + q1, q2 *= RZZ(b); q1 *= RY(a)",
    )
    .unwrap();
    assert!(!p.is_normal());
    let engine = GradientEngine::new(&p).unwrap();
    let params = Params::from_pairs([("a", 0.7), ("b", 1.3)]);
    let obs = Observable::pauli_z(2, 1);
    let inputs: Vec<StateVector> = (0..4).map(|k| StateVector::basis_state(2, k)).collect();
    let seeds = [11, 12, 13, 14];
    let shots = 20_000;
    let m = 2.0;
    // Hoeffding on values in [-m, m]: |mean − value| ≥ t with probability
    // at most 2·exp(−2·shots·t²/(2m)²); t below holds that at 1e-9.
    let t = 2.0 * m * ((2.0f64 / 1e-9).ln() / (2.0 * shots as f64)).sqrt();
    let exact = engine.value_pure_batch(&params, &obs, &qdp_sim::BatchedStates::from_states(&inputs));

    let mut per_config: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 2, 8] {
        qdp_par::set_max_threads(threads);
        let values = engine.value_pure_shots_batch(&params, &obs, &inputs, shots, &seeds);
        for (r, (v, e)) in values.iter().zip(&exact).enumerate() {
            assert!((v - e).abs() < t, "row {r}: shots {v} vs exact {e} (bound {t})");
        }
        // A row's estimate is the single-input call's.
        let single = engine.value_pure_shots(&params, &obs, &inputs[2], shots, seeds[2]);
        assert_eq!(single.to_bits(), values[2].to_bits());
        per_config.push(values.iter().map(|v| v.to_bits()).collect());
    }
    qdp_par::set_max_threads(0);
    assert_eq!(per_config[0], per_config[1], "1 vs 2 threads");
    assert_eq!(per_config[0], per_config[2], "1 vs 8 threads");
}
