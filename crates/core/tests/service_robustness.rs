//! Robustness suite of the [`qdp_ad::GradientService`] and the bounded
//! [`qdp_ad::ProgramCache`] (PR 10).
//!
//! Three failure modes are driven deterministically and must each yield
//! **typed errors with no hangs and no effect on concurrent healthy
//! requests** (whose results stay bit-identical to solo engine calls,
//! under a forced 1-/2-/8-thread matrix):
//!
//! * **deadline expiry while queued** — the expired request alone returns
//!   [`QdpError::DeadlineExceeded`]; followers and the admitted-carryover
//!   gate are untouched;
//! * **overload shedding** — submits past the configured queue bound
//!   return [`QdpError::Overloaded`] without enqueueing; the survivors'
//!   bits are unaffected;
//! * **leader panic mid-sweep** — an injected
//!   [`qdp_sim::fault::FaultSite::Service`] panic is contained by the
//!   leader's `catch_unwind`: within the retry budget a follow-up leader
//!   re-serves the group bit-identically, past the budget every follower
//!   gets [`QdpError::ServicePanic`];
//! * **worker tile panic past its retries** — an injected
//!   [`qdp_sim::fault::FaultSite::Tile`] panic in a coalesced shot-gradient
//!   or shift-rule sweep reaches every client of the group as
//!   [`QdpError::ServicePanic`] naming the tile.
//!
//! The cache tests pin the residency bound (never exceeded under
//! pressure) and the warm-hit/recompile determinism contract: eviction
//! governs residency only, never the bits a skeleton computes.
//!
//! `set_max_threads` needs a quiesced process, so the thread-matrix tests
//! serialize on one mutex (the same idiom as `service_coalescing.rs`);
//! fault-injecting tests additionally serialize on the global injection
//! lock their `FaultGuard` holds. Every test that runs a service sweep
//! takes the mutex, because an armed plan is process-global: a sweep of
//! an unserialized test would fire (and count) another test's fault.

use qdp_ad::{
    GradientEngine, GradientService, OverloadPolicy, ProgramCache, ProgramHandle, RequestOptions,
    ServiceConfig,
};
use qdp_lang::ast::Params;
use qdp_lang::{parse_program, Register};
use qdp_sim::fault::{fired_count, inject, FaultSite};
use qdp_sim::{BatchedStates, Observable, QdpError, StateVector, TILE_RETRIES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// Solo expectation baselines for a set of inputs: the one-row batched
/// engine call each service result must match bit for bit.
fn solo_values(engine: &GradientEngine, params: &Params, obs: &Observable, inputs: &[StateVector]) -> Vec<f64> {
    inputs
        .iter()
        .map(|psi| engine.value_pure_batch(params, obs, &BatchedStates::gather(&[psi]))[0])
        .collect()
}

#[test]
fn deadline_expiry_under_load_leaves_healthy_followers_bitwise_solo() {
    let _guard = serialized();
    const N: usize = 5;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 0);
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();
    let doomed_input = random_state(&mut rng, 2);

    let solo_engine = GradientEngine::new(&program).unwrap();
    let solo = solo_values(&solo_engine, &params, &obs, &inputs);

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        // An admission threshold nothing reaches: only flush opens the gate,
        // so the doomed request deterministically expires while queued.
        let service = Arc::new(GradientService::with_admission(N + 2));
        let handle = service.register(&program).unwrap();

        let doomed = {
            let (service, handle) = (Arc::clone(&service), handle.clone());
            let (params, obs, psi) = (params.clone(), obs.clone(), doomed_input.clone());
            std::thread::spawn(move || {
                service.expectation_with(
                    &handle,
                    &params,
                    &obs,
                    &psi,
                    &RequestOptions::new().with_deadline(Duration::from_millis(40)),
                )
            })
        };
        let healthy: Vec<_> = (0..N)
            .map(|i| {
                let (service, handle) = (Arc::clone(&service), handle.clone());
                let (params, obs, psi) = (params.clone(), obs.clone(), inputs[i].clone());
                std::thread::spawn(move || {
                    service.expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                })
            })
            .collect();

        // The doomed request must expire on its own — exactly one typed
        // error, exactly one removal — while the healthy ones stay queued.
        let err = doomed.join().unwrap().unwrap_err();
        assert_eq!(err, QdpError::DeadlineExceeded { deadline_ms: 40 });
        assert_eq!(service.expired(&handle), 1, "threads={threads}");
        while service.pending_depth(&handle) < N {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Release the followers: one flush, one shared sweep, solo bits.
        service.flush(&handle);
        let results: Vec<f64> = healthy
            .into_iter()
            .map(|w| w.join().unwrap().unwrap())
            .collect();
        qdp_par::set_max_threads(0);

        for (i, (got, want)) in results.iter().zip(&solo).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "threads={threads} client {i}: post-expiry {got} vs solo {want}"
            );
        }
        assert_eq!(service.sweeps(&handle), 1, "threads={threads}");
        assert_eq!(service.served(&handle), N, "threads={threads}");
    }
}

#[test]
fn overload_shedding_bounds_the_queue_and_survivors_keep_solo_bits() {
    let _guard = serialized();
    const TOTAL: usize = 12;
    const BOUND: usize = 4;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 1);
    let mut rng = StdRng::seed_from_u64(0x0E4);
    let inputs: Vec<StateVector> = (0..TOTAL).map(|_| random_state(&mut rng, 2)).collect();

    let solo_engine = GradientEngine::new(&program).unwrap();
    let solo = solo_values(&solo_engine, &params, &obs, &inputs);

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        // Nothing serves until the flush, so the queue fills to its bound
        // and every later submit sheds — deterministically TOTAL − BOUND
        // rejections, whatever the arrival order.
        let service = Arc::new(GradientService::with_config(ServiceConfig {
            min_batch: TOTAL + 1,
            max_pending: Some(BOUND),
            overload: OverloadPolicy::RejectNewest,
        }));
        let handle = service.register(&program).unwrap();

        let workers: Vec<_> = (0..TOTAL)
            .map(|i| {
                let (service, handle) = (Arc::clone(&service), handle.clone());
                let (params, obs, psi) = (params.clone(), obs.clone(), inputs[i].clone());
                std::thread::spawn(move || {
                    service.expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                })
            })
            .collect();

        // Every submit resolves immediately into "queued" or "shed".
        while service.shed(&handle) + service.pending_depth(&handle) < TOTAL {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.shed(&handle), TOTAL - BOUND, "threads={threads}");
        assert_eq!(service.pending_depth(&handle), BOUND, "threads={threads}");

        service.flush(&handle);
        let results: Vec<Result<f64, QdpError>> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();
        qdp_par::set_max_threads(0);

        let mut served = 0;
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(v) => {
                    served += 1;
                    assert_eq!(
                        v.to_bits(),
                        solo[i].to_bits(),
                        "threads={threads} client {i}: sheltered result drifted"
                    );
                }
                Err(e) => assert_eq!(
                    *e,
                    QdpError::Overloaded { pending: BOUND, max_pending: BOUND },
                    "threads={threads} client {i}"
                ),
            }
        }
        assert_eq!(served, BOUND, "threads={threads}");
        assert_eq!(service.served(&handle), BOUND, "threads={threads}");
    }
}

#[test]
fn injected_leader_panic_is_reserved_by_a_follow_up_leader_bitwise() {
    let _guard = serialized();
    const N: usize = 4;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 0);
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();

    let solo_engine = GradientEngine::new(&program).unwrap();
    let solo = solo_values(&solo_engine, &params, &obs, &inputs);

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        let service = Arc::new(GradientService::with_admission(N));
        let handle = service.register(&program).unwrap();

        // The first leader sweep panics; the default retry budget (1)
        // lets a follow-up leader re-serve the whole group.
        let fault = inject(FaultSite::Service { panics: 1 });
        let workers: Vec<_> = (0..N)
            .map(|i| {
                let (service, handle) = (Arc::clone(&service), handle.clone());
                let (params, obs, psi) = (params.clone(), obs.clone(), inputs[i].clone());
                std::thread::spawn(move || {
                    service.expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                })
            })
            .collect();
        let results: Vec<f64> = workers
            .into_iter()
            .map(|w| w.join().unwrap().unwrap())
            .collect();
        assert_eq!(fired_count(), 1, "threads={threads}: the fault must fire once");
        drop(fault);
        qdp_par::set_max_threads(0);

        for (i, (got, want)) in results.iter().zip(&solo).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "threads={threads} client {i}: re-served {got} vs solo {want}"
            );
        }
        assert_eq!(service.leader_failures(&handle), 1, "threads={threads}");
        assert_eq!(service.sweeps(&handle), 1, "threads={threads}");
        assert_eq!(service.served(&handle), N, "threads={threads}");
    }
}

#[test]
fn injected_leader_panics_past_the_retry_budget_fail_typed_without_hanging() {
    let _guard = serialized();
    const N: usize = 3;
    let program = parse_program(SRC).unwrap();
    let params = fixed_params();
    let obs = Observable::pauli_z(2, 1);
    let mut rng = StdRng::seed_from_u64(0xFA18);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();
    let healthy_input = random_state(&mut rng, 2);

    let solo_engine = GradientEngine::new(&program).unwrap();
    let healthy_solo =
        solo_values(&solo_engine, &params, &obs, std::slice::from_ref(&healthy_input))[0];

    for &threads in &THREAD_COUNTS {
        qdp_par::set_max_threads(threads);
        let service = Arc::new(GradientService::with_admission(N));
        let handle = service.register(&program).unwrap();

        // More panics armed than the budget (1 retry = 2 sweep attempts)
        // can absorb: every member must get the typed error, nobody hangs.
        let fault = inject(FaultSite::Service { panics: N + 2 });
        let workers: Vec<_> = (0..N)
            .map(|i| {
                let (service, handle) = (Arc::clone(&service), handle.clone());
                let (params, obs, psi) = (params.clone(), obs.clone(), inputs[i].clone());
                std::thread::spawn(move || {
                    service.expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
                })
            })
            .collect();
        let results: Vec<Result<f64, QdpError>> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(
            fired_count(),
            2,
            "threads={threads}: one original sweep + one retry, then budget exhausted"
        );
        drop(fault);

        for (i, r) in results.iter().enumerate() {
            match r {
                Err(QdpError::ServicePanic { message }) => assert!(
                    message.contains("injected fault"),
                    "threads={threads} client {i}: {message}"
                ),
                other => panic!("threads={threads} client {i}: expected ServicePanic, got {other:?}"),
            }
        }
        assert_eq!(service.leader_failures(&handle), 2, "threads={threads}");
        assert_eq!(service.served(&handle), 0, "threads={threads}");

        // The tenant is not wedged: a fresh healthy request (released by
        // flush below the threshold) still carries solo bits.
        let worker = {
            let (service, handle) = (Arc::clone(&service), handle.clone());
            let (params, obs, psi) = (params.clone(), obs.clone(), healthy_input.clone());
            std::thread::spawn(move || {
                service.expectation_with(&handle, &params, &obs, &psi, &RequestOptions::new())
            })
        };
        while service.served(&handle) < 1 {
            service.flush(&handle);
            std::thread::sleep(Duration::from_millis(1));
        }
        let v = worker.join().unwrap().unwrap();
        qdp_par::set_max_threads(0);
        assert_eq!(
            v.to_bits(),
            healthy_solo.to_bits(),
            "threads={threads}: post-failure healthy request drifted"
        );
    }
}

/// The two request kinds whose sweeps fan out over tile checkpoints.
#[derive(Clone, Copy, Debug)]
enum TiledKind {
    GradientShots,
    ShiftGradient,
}

const TILED_SHOTS: usize = 64;

/// Submits one `kind` request for `psi` (shot requests on stream `seed`).
fn submit_tiled(
    service: &GradientService,
    handle: &ProgramHandle,
    kind: TiledKind,
    psi: &StateVector,
    seed: u64,
    opts: &RequestOptions,
) -> Result<BTreeMap<String, f64>, QdpError> {
    let (params, obs) = (fixed_params(), Observable::pauli_z(2, 1));
    match kind {
        TiledKind::GradientShots => {
            service.gradient_shots_with(handle, &params, &obs, psi, TILED_SHOTS, seed, opts)
        }
        TiledKind::ShiftGradient => service.gradient_shift_with(handle, &params, &obs, psi, opts),
    }
}

#[test]
fn exhausted_tile_retries_fail_every_coalesced_client_typed_without_hanging() {
    let _guard = serialized();
    const N: usize = 3;
    let program = parse_program(SRC).unwrap();
    let (params, obs) = (fixed_params(), Observable::pauli_z(2, 1));
    let mut rng = StdRng::seed_from_u64(0x711E);
    let inputs: Vec<StateVector> = (0..N).map(|_| random_state(&mut rng, 2)).collect();
    let healthy_input = random_state(&mut rng, 2);
    let healthy_seed = 0x5EED;

    let solo_engine = GradientEngine::new(&program).unwrap();
    for kind in [TiledKind::GradientShots, TiledKind::ShiftGradient] {
        let solo = match kind {
            TiledKind::GradientShots => solo_engine.gradient_pure_shots(
                &params,
                &obs,
                &healthy_input,
                TILED_SHOTS,
                healthy_seed,
            ),
            TiledKind::ShiftGradient => {
                solo_engine.gradient_pure_shift(&params, &obs, &healthy_input)
            }
        };
        for &threads in &THREAD_COUNTS {
            qdp_par::set_max_threads(threads);
            let service = Arc::new(GradientService::with_admission(N));
            let handle = service.register(&program).unwrap();

            // Tile 0 of the one coalesced sweep panics on its first try and
            // on every retry; no re-serve, so the group fails once, typed.
            let fault = inject(FaultSite::Tile { index: 0, panics: TILE_RETRIES + 1 });
            let workers: Vec<_> = (0..N)
                .map(|i| {
                    let (service, handle) = (Arc::clone(&service), handle.clone());
                    let psi = inputs[i].clone();
                    std::thread::spawn(move || {
                        let opts = RequestOptions::new().with_max_retries(0);
                        submit_tiled(&service, &handle, kind, &psi, i as u64, &opts)
                    })
                })
                .collect();
            let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            assert_eq!(
                fired_count(),
                TILE_RETRIES + 1,
                "{kind:?} threads={threads}: one try and every retry of tile 0"
            );
            drop(fault);

            for (i, r) in results.iter().enumerate() {
                match r {
                    Err(QdpError::ServicePanic { message }) => assert!(
                        message.contains("worker tile 0 panicked")
                            && message.contains("injected fault"),
                        "{kind:?} threads={threads} client {i}: {message}"
                    ),
                    other => panic!(
                        "{kind:?} threads={threads} client {i}: expected ServicePanic, got {other:?}"
                    ),
                }
            }
            assert_eq!(service.leader_failures(&handle), 1, "{kind:?} threads={threads}");
            assert_eq!(service.served(&handle), 0, "{kind:?} threads={threads}");

            // A later healthy request of the same kind carries solo bits.
            let worker = {
                let (service, handle) = (Arc::clone(&service), handle.clone());
                let psi = healthy_input.clone();
                std::thread::spawn(move || {
                    submit_tiled(&service, &handle, kind, &psi, healthy_seed, &RequestOptions::new())
                })
            };
            while service.served(&handle) < 1 {
                service.flush(&handle);
                std::thread::sleep(Duration::from_millis(1));
            }
            let got = worker.join().unwrap().unwrap();
            qdp_par::set_max_threads(0);
            for (name, v) in &solo {
                assert_eq!(
                    got[name].to_bits(),
                    v.to_bits(),
                    "{kind:?} threads={threads} ∂/∂{name}: post-failure request drifted"
                );
            }
        }
    }
}

#[test]
fn cache_eviction_under_pressure_keeps_every_computed_bit_identical() {
    let srcs = [
        "q1 *= RX(a); q1 *= H",
        "q1 *= RY(a); q1 *= RZ(b)",
        "q1 *= RZ(a)",
        "q1 *= RX(a); q1 *= RY(b); q1 *= H",
    ];
    let programs: Vec<(Vec<qdp_lang::ast::Stmt>, Register)> = srcs
        .iter()
        .map(|s| {
            let p = parse_program(s).unwrap();
            let reg = Register::from_program(&p);
            (vec![p], reg)
        })
        .collect();
    let params = Params::from_pairs([("a", 0.4), ("b", -1.1)]);
    let obs = Observable::pauli_z(1, 0);
    let psi = StateVector::zero_state(1);
    let batch = BatchedStates::gather(&[&psi]);

    // Unbounded baseline: each program's expectation bits, and the weight
    // of the largest skeleton (to size a capacity that forces eviction).
    let baseline_cache = ProgramCache::new();
    let mut baseline = Vec::new();
    for (p, reg) in &programs {
        let skel = baseline_cache.intern(p, reg);
        let values = skel.lowered().slot_values(&params);
        baseline.push(skel.lowered().expectation_batch(&values, &batch, &obs)[0]);
    }
    let total_weight = baseline_cache.counters().weight;

    // A capacity near half the total working set: interning all four
    // programs repeatedly must evict, yet the bound must hold at every
    // step and every result must carry the baseline bits.
    let cache = ProgramCache::with_capacity(total_weight / 2);
    for round in 0..3 {
        for (i, (p, reg)) in programs.iter().enumerate() {
            let skel = cache.intern(p, reg);
            let values = skel.lowered().slot_values(&params);
            let v = skel.lowered().expectation_batch(&values, &batch, &obs)[0];
            assert_eq!(
                v.to_bits(),
                baseline[i].to_bits(),
                "round {round} program {i}: eviction changed computed bits"
            );
            let c = cache.counters();
            assert!(
                c.weight <= total_weight / 2,
                "round {round} program {i}: resident weight {} over bound {}",
                c.weight,
                total_weight / 2
            );
        }
    }
    let c = cache.counters();
    assert!(c.evictions > 0, "pressure loop must actually evict: {c:?}");
    assert!(c.misses > programs.len(), "evicted programs must recompile: {c:?}");

    // Warm hits return the identical skeleton object.
    let first = cache.intern(&programs[0].0, &programs[0].1);
    let second = cache.intern(&programs[0].0, &programs[0].1);
    assert!(Arc::ptr_eq(&first, &second));
}

#[test]
fn stress_tight_deadlines_and_a_small_queue_never_hang_or_panic() {
    let _guard = serialized();
    const WORKERS: usize = 8;
    const REQUESTS: usize = 12;
    let program = parse_program(SRC).unwrap();
    let obs = Observable::pauli_z(2, 0);
    let mut rng = StdRng::seed_from_u64(0x57E5);
    let inputs: Vec<StateVector> = (0..WORKERS).map(|_| random_state(&mut rng, 2)).collect();
    // Two compatibility classes, so head groups split under churn.
    let param_sets = [fixed_params(), Params::from_pairs([("sa", 1.2), ("sb", 0.4), ("sc", -0.9)])];

    let solo_engine = GradientEngine::new(&program).unwrap();
    let solo: Vec<f64> = (0..WORKERS)
        .map(|i| {
            solo_values(&solo_engine, &param_sets[i % 2], &obs, &[inputs[i].clone()])[0]
        })
        .collect();

    let service = Arc::new(GradientService::with_config(ServiceConfig {
        min_batch: 1,
        max_pending: Some(2),
        overload: OverloadPolicy::RejectNewest,
    }));
    let handle = service.register(&program).unwrap();

    let workers: Vec<_> = (0..WORKERS)
        .map(|i| {
            let (service, handle) = (Arc::clone(&service), handle.clone());
            let (params, obs, psi) = (param_sets[i % 2].clone(), obs.clone(), inputs[i].clone());
            let want = solo[i];
            std::thread::spawn(move || {
                let opts = RequestOptions::new().with_deadline(Duration::from_millis(5));
                let mut outcomes = (0usize, 0usize, 0usize); // ok, shed, expired
                for _ in 0..REQUESTS {
                    match service.expectation_with(&handle, &params, &obs, &psi, &opts) {
                        Ok(v) => {
                            outcomes.0 += 1;
                            assert_eq!(
                                v.to_bits(),
                                want.to_bits(),
                                "worker {i}: served result drifted from solo under stress"
                            );
                        }
                        Err(QdpError::Overloaded { .. }) => outcomes.1 += 1,
                        Err(QdpError::DeadlineExceeded { .. }) => outcomes.2 += 1,
                        Err(other) => panic!("unexpected error under stress: {other}"),
                    }
                }
                outcomes
            })
        })
        .collect();

    let mut ok = 0;
    let mut shed = 0;
    let mut expired = 0;
    for w in workers {
        let (o, s, e) = w.join().unwrap();
        ok += o;
        shed += s;
        expired += e;
    }
    assert_eq!(ok + shed + expired, WORKERS * REQUESTS, "every request must resolve");
    assert_eq!(service.served(&handle), ok);
    assert_eq!(service.shed(&handle), shed);
    assert_eq!(service.expired(&handle), expired);
    assert!(ok > 0, "a live service must serve something");

    // Served results carried solo bits: re-check one per worker directly.
    for i in 0..WORKERS {
        let v = service
            .expectation_with(
                &handle,
                &param_sets[i % 2],
                &obs,
                &inputs[i],
                &RequestOptions::new(),
            )
            .unwrap();
        assert_eq!(v.to_bits(), solo[i].to_bits(), "worker {i} input drifted");
    }
}
