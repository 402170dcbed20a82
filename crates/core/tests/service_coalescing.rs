//! Coalescing-correctness suite of the [`qdp_ad::GradientService`] (PR 8).
//!
//! The service's determinism contract: a client's result is **bit-identical
//! to running its request solo**, no matter which other clients it
//! coalesced with, under any thread count. Here `N` concurrent clients with
//! **distinct seeds** (shot kinds) or distinct inputs (exact kinds) submit
//! against one tenant with `with_admission(N)` — guaranteeing all `N`
//! share exactly **one** batched sweep — and every result is compared
//! bitwise against the direct solo engine call, under a forced
//! 1-/2-/8-thread matrix.
//!
//! `set_max_threads` needs a quiesced process, so the thread-matrix tests
//! in this binary serialize on one mutex (the same idiom as
//! `qdp-sim/tests/layout_differential.rs`).

use qdp_ad::{GradientService, Request, RequestOptions, Response};
use qdp_lang::ast::Params;
use qdp_lang::parse_program;
use qdp_sim::{BatchedStates, Observable, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Submits `request` with default options and unpacks a value answer.
fn submit_value(
    service: &GradientService,
    handle: &qdp_ad::ProgramHandle,
    psi: &StateVector,
    request: Request,
) -> f64 {
    match service.submit(handle, psi, request, &RequestOptions::default()) {
        Ok(Response::Value(v)) => v,
        other => panic!("expected a value, got {other:?}"),
    }
}

/// Submits `request` with default options and unpacks a gradient answer.
fn submit_gradient(
    service: &GradientService,
    handle: &qdp_ad::ProgramHandle,
    psi: &StateVector,
    request: Request,
) -> BTreeMap<String, f64> {
    match service.submit(handle, psi, request, &RequestOptions::default()) {
        Ok(Response::Gradient(g)) => g,
        other => panic!("expected a gradient, got {other:?}"),
    }
}

/// Serializes the thread-override tests in this binary.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

const SRC: &str = "q1 *= RX(sa); q2 *= RY(sb); q1, q2 *= RZZ(sc)";

fn fixed_params() -> Params {
    Params::from_pairs([("sa", 0.3), ("sb", -0.7), ("sc", 1.9)])
}

/// A random normalised pure state on `n` qubits.
fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let dim = 1usize << n;
    let mut amps: Vec<qdp_linalg::C64> = (0..dim)
        .map(|_| qdp_linalg::C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a *= qdp_linalg::C64::real(1.0 / norm);
    }
    StateVector::from_amplitudes(n, amps)
}

#[test]
fn coalesced_shot_values_are_bit_identical_to_solo_under_the_thread_matrix() {
    let _guard = serialized();
    const N: usize = 6;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 0);
    let shots = 64usize;
    let mut rng = StdRng::seed_from_u64(0xC0A1);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();
    let seeds: Vec<u64> = (0..N as u64).map(|i| 0x5EED + 17 * i).collect();

    // Solo baselines: the single-input engine call on each client's own
    // seed (itself pinned thread-count-invariant by PR 3's suites).
    let solo_engine = qdp_ad::GradientEngine::new(&program).unwrap();
    let solo: Vec<f64> = inputs
        .iter()
        .zip(&seeds)
        .map(|(psi, &seed)| solo_engine.value_pure_shots(&params, &obs, psi, shots, seed))
        .collect();

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        let service = Arc::new(GradientService::with_admission(N));
        let handle = service.register(&program).unwrap();
        let workers: Vec<_> = (0..N)
            .map(|i| {
                let service = Arc::clone(&service);
                let handle = handle.clone();
                let params = params.clone();
                let obs = obs.clone();
                let psi = inputs[i].clone();
                let seed = seeds[i];
                std::thread::spawn(move || {
                    let request = Request::ValueShots { params, obs, shots, seed };
                    submit_value(&service, &handle, &psi, request)
                })
            })
            .collect();
        let results: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        qdp_par::set_max_threads(0);

        for (i, (got, want)) in results.iter().zip(&solo).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "threads={threads} client {i}: coalesced {got} vs solo {want}"
            );
        }
        assert_eq!(
            service.sweeps(&handle),
            1,
            "threads={threads}: {N} admitted clients must share one sweep"
        );
        assert_eq!(service.served(&handle), N);
    }
}

#[test]
fn coalesced_shot_gradients_are_bit_identical_to_solo_under_the_thread_matrix() {
    let _guard = serialized();
    const N: usize = 4;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 1);
    let shots = 48usize;
    let mut rng = StdRng::seed_from_u64(0xC0A2);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();
    let seeds: Vec<u64> = (0..N as u64).map(|i| 0xFACE + 31 * i).collect();

    let solo_engine = qdp_ad::GradientEngine::new(&program).unwrap();
    let solo: Vec<_> = inputs
        .iter()
        .zip(&seeds)
        .map(|(psi, &seed)| solo_engine.gradient_pure_shots(&params, &obs, psi, shots, seed))
        .collect();

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        let service = Arc::new(GradientService::with_admission(N));
        let handle = service.register(&program).unwrap();
        let workers: Vec<_> = (0..N)
            .map(|i| {
                let service = Arc::clone(&service);
                let handle = handle.clone();
                let params = params.clone();
                let obs = obs.clone();
                let psi = inputs[i].clone();
                let seed = seeds[i];
                std::thread::spawn(move || {
                    let request =
                        Request::GradientShots { params, obs, shots_per_param: shots, seed };
                    submit_gradient(&service, &handle, &psi, request)
                })
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        qdp_par::set_max_threads(0);

        for (i, (got, want)) in results.iter().zip(&solo).enumerate() {
            for (name, v) in want {
                assert_eq!(
                    got[name].to_bits(),
                    v.to_bits(),
                    "threads={threads} client {i} ∂/∂{name}"
                );
            }
        }
        assert_eq!(service.sweeps(&handle), 1, "threads={threads}");
    }
}

#[test]
fn coalesced_exact_requests_match_batch_of_one_bitwise() {
    let _guard = serialized();
    const N: usize = 5;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 0);
    let mut rng = StdRng::seed_from_u64(0xC0A3);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();

    // Solo baseline: a one-row sweep of each input (the batched entry
    // points' per-row outputs are batch-composition invariant).
    let solo_engine = qdp_ad::GradientEngine::new(&program).unwrap();
    let solo_v: Vec<f64> = inputs
        .iter()
        .map(|psi| solo_engine.value_pure_batch(&params, &obs, &BatchedStates::gather(&[psi]))[0])
        .collect();
    let solo_g: Vec<_> = inputs
        .iter()
        .map(|psi| {
            solo_engine
                .gradient_pure_shift_batch(&params, &obs, &BatchedStates::gather(&[psi]))
                .remove(0)
        })
        .collect();

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        let service = Arc::new(GradientService::with_admission(N));
        let handle = service.register(&program).unwrap();

        let values: Vec<f64> = {
            let workers: Vec<_> = (0..N)
                .map(|i| {
                    let service = Arc::clone(&service);
                    let handle = handle.clone();
                    let params = params.clone();
                    let obs = obs.clone();
                    let psi = inputs[i].clone();
                    std::thread::spawn(move || service.expectation(&handle, &params, &obs, &psi))
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        };
        let grads: Vec<_> = {
            let workers: Vec<_> = (0..N)
                .map(|i| {
                    let service = Arc::clone(&service);
                    let handle = handle.clone();
                    let params = params.clone();
                    let obs = obs.clone();
                    let psi = inputs[i].clone();
                    std::thread::spawn(move || {
                        let request = Request::ShiftGradient { params, obs };
                        submit_gradient(&service, &handle, &psi, request)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        };
        qdp_par::set_max_threads(0);

        for (i, (got, want)) in values.iter().zip(&solo_v).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "threads={threads} value client {i}");
        }
        for (i, (got, want)) in grads.iter().zip(&solo_g).enumerate() {
            for (name, v) in want {
                assert_eq!(
                    got[name].to_bits(),
                    v.to_bits(),
                    "threads={threads} gradient client {i} ∂/∂{name}"
                );
            }
        }
        assert_eq!(
            service.sweeps(&handle),
            2,
            "threads={threads}: one sweep per request kind"
        );
        assert_eq!(service.served(&handle), 2 * N);
    }
}

#[test]
fn incompatible_requests_split_into_separate_sweeps_with_correct_results() {
    // Two valuations interleaved on one tenant: the head-group drain must
    // serve each valuation from its own sweep, and every client still gets
    // its solo bits.
    let program = parse_program(SRC).unwrap();
    let params_a = fixed_params();
    let params_b = Params::from_pairs([("sa", 1.1), ("sb", 0.4), ("sc", -0.6)]);
    let obs = Observable::pauli_z(2, 0);
    let psi = StateVector::zero_state(2);

    let solo_engine = qdp_ad::GradientEngine::new(&program).unwrap();
    let want_a = solo_engine.value_pure_batch(&params_a, &obs, &BatchedStates::gather(&[&psi]))[0];
    let want_b = solo_engine.value_pure_batch(&params_b, &obs, &BatchedStates::gather(&[&psi]))[0];

    let service = Arc::new(GradientService::with_admission(4));
    let handle = service.register(&program).unwrap();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let service = Arc::clone(&service);
            let handle = handle.clone();
            let params = if i % 2 == 0 { params_a.clone() } else { params_b.clone() };
            let obs = obs.clone();
            let psi = psi.clone();
            std::thread::spawn(move || service.expectation(&handle, &params, &obs, &psi))
        })
        .collect();
    let results: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for (i, got) in results.iter().enumerate() {
        let want = if i % 2 == 0 { want_a } else { want_b };
        assert_eq!(got.to_bits(), want.to_bits(), "client {i}");
    }
    assert_eq!(service.served(&handle), 4);
    // One sweep per valuation group; late arrivals may split a group, so
    // bound rather than pin the count.
    let sweeps = service.sweeps(&handle);
    assert!((2..=4).contains(&sweeps), "got {sweeps} sweeps");
}

#[test]
fn signed_zero_requests_never_share_a_sweep_and_each_matches_solo() {
    // The coalescing key compares valuations and observable entries by
    // bits: `-0.0` and `+0.0` are equal under `==` but never share a
    // sweep, so each request's bits equal its own solo run by construction.
    let program = parse_program(SRC).unwrap();
    let psi = StateVector::zero_state(2);
    let solo_engine = qdp_ad::GradientEngine::new(&program).unwrap();
    let solo = |params: &Params, obs: &Observable| {
        solo_engine.value_pure_batch(params, obs, &BatchedStates::gather(&[&psi]))[0]
    };
    let params_at = |sa: f64| Params::from_pairs([("sa", sa), ("sb", -0.7), ("sc", 1.9)]);
    // Z with its off-diagonal zeros negated.
    let z_neg = {
        let z = qdp_linalg::Matrix::pauli_z();
        let neg = qdp_linalg::C64::new(-0.0, -0.0);
        Observable::new(
            2,
            vec![0],
            qdp_linalg::Matrix::from_data(2, 2, vec![z.get(0, 0), neg, neg, z.get(1, 1)]),
        )
    };
    let pairs = [
        (params_at(0.0), params_at(-0.0), Observable::pauli_z(2, 0), Observable::pauli_z(2, 0)),
        (fixed_params(), fixed_params(), Observable::pauli_z(2, 0), z_neg),
    ];
    for (k, (pa, pb, oa, ob)) in pairs.into_iter().enumerate() {
        let (want_a, want_b) = (solo(&pa, &oa), solo(&pb, &ob));
        let service = Arc::new(GradientService::with_admission(4));
        let handle = service.register(&program).unwrap();
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let service = Arc::clone(&service);
                let handle = handle.clone();
                let (params, obs) =
                    if i % 2 == 0 { (pa.clone(), oa.clone()) } else { (pb.clone(), ob.clone()) };
                let psi = psi.clone();
                std::thread::spawn(move || service.expectation(&handle, &params, &obs, &psi))
            })
            .collect();
        let results: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        for (i, got) in results.iter().enumerate() {
            let want = if i % 2 == 0 { want_a } else { want_b };
            assert_eq!(got.to_bits(), want.to_bits(), "case {k} client {i}");
        }
        // All four are queued when the admission gate opens; the head
        // group takes one sign, the admitted rest the other.
        assert_eq!(service.served(&handle), 4, "case {k}");
        assert_eq!(service.sweeps(&handle), 2, "case {k}: signed zeros must not coalesce");
    }
}

#[test]
fn flush_serves_partial_batches_below_the_admission_threshold() {
    let program = parse_program(SRC).unwrap();
    let service = Arc::new(GradientService::with_admission(4));
    let handle = service.register(&program).unwrap();
    let done = Arc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let service = Arc::clone(&service);
            let handle = handle.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let v = service.expectation(
                    &handle,
                    &fixed_params(),
                    &Observable::pauli_z(2, 0),
                    &StateVector::zero_state(2),
                );
                done.fetch_add(1, Ordering::SeqCst);
                v
            })
        })
        .collect();
    // Only 2 of 4 admitted requests will ever arrive: keep flushing until
    // both clients are served (flush is sticky only until the queue
    // drains, and a flush before either enqueues serves nobody).
    while done.load(Ordering::SeqCst) < 2 {
        service.flush(&handle);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let results: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(results[0].to_bits(), results[1].to_bits());
    assert_eq!(service.served(&handle), 2);
}

#[test]
fn mixed_tenants_serve_concurrently_without_cross_talk() {
    let service = Arc::new(GradientService::new());
    let p_a = parse_program("q1 *= RX(ma)").unwrap();
    let p_b = parse_program("q1 *= RY(mb); q2 *= RZ(mc)").unwrap();
    let h_a = service.register(&p_a).unwrap();
    let h_b = service.register(&p_b).unwrap();
    assert_eq!(service.tenant_count(), 2);

    let engine_a = service.engine(&h_a);
    let engine_b = service.engine(&h_b);
    let params_a = Params::from_pairs([("ma", 0.8)]);
    let params_b = Params::from_pairs([("mb", -0.2), ("mc", 2.3)]);
    let obs1 = Observable::pauli_z(1, 0);
    let obs2 = Observable::pauli_z(2, 1);
    let psi1 = StateVector::zero_state(1);
    let psi2 = StateVector::zero_state(2);

    let want_a = engine_a.value_pure_batch(&params_a, &obs1, &BatchedStates::gather(&[&psi1]))[0];
    let want_b = engine_b
        .gradient_pure_batch(&params_b, &obs2, &BatchedStates::gather(&[&psi2]))
        .remove(0);

    let workers: Vec<std::thread::JoinHandle<()>> = (0..6)
        .map(|i| {
            let service = Arc::clone(&service);
            let (h_a, h_b) = (h_a.clone(), h_b.clone());
            let (params_a, params_b) = (params_a.clone(), params_b.clone());
            let (obs1, obs2) = (obs1.clone(), obs2.clone());
            let (psi1, psi2) = (psi1.clone(), psi2.clone());
            let want_b = want_b.clone();
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    let v = service.expectation(&h_a, &params_a, &obs1, &psi1);
                    assert_eq!(v.to_bits(), want_a.to_bits(), "tenant A client {i}");
                } else {
                    let request = Request::Gradient { params: params_b, obs: obs2 };
                    let g = submit_gradient(&service, &h_b, &psi2, request);
                    for (name, v) in &want_b {
                        assert_eq!(g[name].to_bits(), v.to_bits(), "tenant B client {i} ∂/∂{name}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(service.served(&h_a), 3);
    assert_eq!(service.served(&h_b), 3);
}
