//! Cache-correctness suite of the interned-program pipeline (PR 8).
//!
//! * **Memoization differential** — randomized branching programs, the
//!   interned [`qdp_ad::CompiledSkeleton`] against a fresh
//!   [`LoweredSet::lower`] of the same compiled multiset: expectation
//!   sweeps must agree **bitwise**, and the engines
//!   [`LoweredSet::shot_engines`] binds to each valuation's matrix table
//!   must reproduce the freshly-resolved trajectory's sampled runs,
//!   sampled read-outs and exact sweeps bit for bit across successive
//!   valuations of one shared skeleton.
//! * **Collision probes** — near-miss programs (wider register, renamed
//!   parameter, ancilla-extended register, shifted constant angle) must
//!   fingerprint apart and intern as distinct entries; a *forced* key
//!   collision is covered by the in-module cache tests.
//! * **Concurrent first-touch** — 8 threads interning one program through
//!   a fresh cache must share a single compilation.
//! * **Compile-count acceptance** — a 36-parameter `P2`-shaped circuit's
//!   shift-rule gradient lowers exactly **one** program skeleton, the
//!   exact (adjoint) gradient reuses it without lowering anything more,
//!   and the two gradients agree to 1e-8.
//! * **Warm engine calls** — on a primed engine, shot gradients, shot
//!   values and exact gradients only hit the process-wide cache (no
//!   misses, no lowers), and after an eviction the engine's memoised keys
//!   re-intern and the next shot gradient carries the same bits. A warm
//!   exact derivative of a program with `+` compiles nothing either.

use qdp_ad::{
    differentiate, lower_invocations, CacheStats, GradientEngine, LoweredSet, ProgramCache,
};
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_lang::compile::{compile, compile_invocations};
use qdp_lang::{parse_program, program_fingerprint, Register};
use qdp_linalg::{C64, Pauli};
use qdp_sim::{
    BatchedStates, Observable, ProjectiveObservable, ShotEngine, ShotSampler, StateVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

mod support;

/// Serialises the tests that count the process-wide cache's lowers or
/// evict its entries: every test thread of this binary shares it.
static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

fn global_cache_lock() -> MutexGuard<'static, ()> {
    GLOBAL_CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn var(i: usize) -> Var {
    Var::new(format!("q{}", i + 1))
}

/// A random branching program over `n` qubits: rotations, couplings,
/// resets, computational `case`s, and bounded `while` loops.
fn random_branching_program(rng: &mut StdRng, n: usize, params: &[String], len: usize) -> Stmt {
    let axes = [Pauli::X, Pauli::Y, Pauli::Z];
    let mut stmts: Vec<Stmt> = Vec::with_capacity(len + n);
    for q in 0..n {
        stmts.push(Stmt::unitary(Gate::H, [var(q)]));
    }
    for _ in 0..len {
        let param = params[rng.gen_range(0..params.len())].clone();
        let axis = axes[rng.gen_range(0..3usize)];
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..8usize) {
            0 | 1 => stmts.push(Stmt::rot(axis, param, var(q))),
            2 => stmts.push(Stmt::unitary(
                Gate::Rot {
                    axis,
                    angle: Angle {
                        param: Some(param),
                        offset: std::f64::consts::PI / 2.0,
                    },
                },
                [var(q)],
            )),
            3 if n >= 2 => {
                let mut q2 = rng.gen_range(0..n);
                while q2 == q {
                    q2 = rng.gen_range(0..n);
                }
                stmts.push(Stmt::unitary(
                    Gate::Coupling {
                        axis,
                        angle: Angle::param(param),
                    },
                    [var(q), var(q2)],
                ));
            }
            3 => stmts.push(Stmt::unitary(Gate::H, [var(q)])),
            4 => stmts.push(Stmt::init(var(q))),
            5 | 6 => {
                let other = params[rng.gen_range(0..params.len())].clone();
                stmts.push(Stmt::Case {
                    qs: vec![var(q)],
                    arms: vec![
                        Stmt::rot(axis, param, var((q + 1) % n)),
                        Stmt::rot(axes[rng.gen_range(0..3usize)], other, var(q)),
                    ],
                });
            }
            _ => stmts.push(Stmt::while_bounded(
                var(q),
                rng.gen_range(1..3usize) as u32,
                Stmt::rot(axis, param, var(q)),
            )),
        }
    }
    Stmt::seq(stmts)
}

/// A random normalised pure state on `n` qubits.
fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
    let dim = 1usize << n;
    let mut amps: Vec<C64> = (0..dim)
        .map(|_| C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a *= C64::real(1.0 / norm);
    }
    StateVector::from_amplitudes(n, amps)
}

// ---------------------------------------------------------------------------
// Memoization differentials
// ---------------------------------------------------------------------------

#[test]
fn interned_lowering_matches_fresh_lowering_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xCACE);
    for trial in 0..10 {
        let n = 1 + (trial % 4);
        let params: Vec<String> = (0..3).map(|i| format!("mz{i}")).collect();
        let program = random_branching_program(&mut rng, n, &params, 4 + trial % 6);
        let diff = differentiate(&program, &params[0]).unwrap();

        let skeleton = diff.skeleton();
        let fresh = LoweredSet::lower(diff.compiled(), diff.ext_register());
        assert_eq!(skeleton.lowered().param_names(), fresh.param_names());

        let values = Params::from_pairs(
            params
                .iter()
                .map(|p| (p.clone(), rng.gen::<f64>() * std::f64::consts::TAU)),
        );
        let slots = fresh.slot_values(&values);
        let ext_obs = Observable::pauli_z(n, 0).with_ancilla_z();
        let inputs: Vec<StateVector> = (0..5)
            .map(|_| StateVector::zero_state(1).tensor(&random_state(&mut rng, n)))
            .collect();
        let batch = BatchedStates::from_states(&inputs);

        let cached_out = skeleton.lowered().expectation_batch(&slots, &batch, &ext_obs);
        let fresh_out = fresh.expectation_batch(&slots, &batch, &ext_obs);
        for (r, (c, f)) in cached_out.iter().zip(&fresh_out).enumerate() {
            assert_eq!(
                c.to_bits(),
                f.to_bits(),
                "trial {trial} row {r}: cached {c} vs fresh {f}"
            );
        }
    }
}

#[test]
fn table_bound_engines_match_fresh_resolution_bitwise() {
    // Two successive valuations through ONE interned skeleton: binding
    // must leave no residue of the first valuation in the second, and each
    // bound engine must run bit-identically to one on a freshly resolved
    // trajectory.
    let mut rng = StdRng::seed_from_u64(0x7A7A);
    for trial in 0..8 {
        let n = 1 + (trial % 4);
        let params: Vec<String> = (0..3).map(|i| format!("tk{i}")).collect();
        let program = random_branching_program(&mut rng, n, &params, 5);
        let reg = Register::from_program(&program);
        let skeleton = ProgramCache::new().intern(std::slice::from_ref(&program), &reg);
        let fresh = LoweredSet::lower(std::slice::from_ref(&program), &reg);

        for round in 0..2 {
            let values = Params::from_pairs(
                params
                    .iter()
                    .map(|p| (p.clone(), rng.gen::<f64>() * std::f64::consts::TAU)),
            );
            let slots = fresh.slot_values(&values);
            let bound = skeleton.lowered().shot_engines(&slots).next().unwrap();
            let resolved = ShotEngine::new(fresh.programs()[0].resolve(&slots).to_trajectory());

            let inputs: Vec<StateVector> = (0..4).map(|_| random_state(&mut rng, reg.len())).collect();
            let seed = 0xF00 + (trial * 2 + round) as u64;
            let mut samplers_a: Vec<ShotSampler> = (0..inputs.len())
                .map(|r| ShotSampler::derived(seed, r as u64))
                .collect();
            let mut samplers_b: Vec<ShotSampler> = (0..inputs.len())
                .map(|r| ShotSampler::derived(seed, r as u64))
                .collect();
            let shots = vec![1; inputs.len()];
            let out_a = bound.run(BatchedStates::from_states(&inputs), &shots, &mut samplers_a).unwrap();
            let out_b = resolved.run(BatchedStates::from_states(&inputs), &shots, &mut samplers_b).unwrap();
            for (r, (a, b)) in out_a.iter().zip(&out_b).enumerate() {
                assert_eq!(a.outcomes, b.outcomes, "trial {trial} round {round} row {r}");
                match (&a.state, &b.state) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        for (k, (xa, ya)) in x.amplitudes().iter().zip(y.amplitudes()).enumerate() {
                            assert_eq!(
                                xa.re.to_bits(),
                                ya.re.to_bits(),
                                "trial {trial} round {round} row {r} amp {k} re"
                            );
                            assert_eq!(
                                xa.im.to_bits(),
                                ya.im.to_bits(),
                                "trial {trial} round {round} row {r} amp {k} im"
                            );
                        }
                    }
                    _ => panic!("abort status diverged on trial {trial} round {round} row {r}"),
                }
            }

            let obs = Observable::pauli_z(reg.len(), 0);
            let readout = ProjectiveObservable::new(&obs);
            let rows = || BatchedStates::from_states(&inputs);
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let counts = vec![3; inputs.len()];
            let sample = |engine: &ShotEngine| {
                let mut samplers: Vec<ShotSampler> = (0..3 * inputs.len() as u64)
                    .map(|s| ShotSampler::derived(seed, s))
                    .collect();
                let out = engine.sample_sweep(rows(), &counts, &mut samplers, &readout);
                bits(out.unwrap())
            };
            let exact = |engine: &ShotEngine| bits(engine.expectation_sweep(rows(), &obs).unwrap());
            let at = format!("trial {trial} round {round}");
            assert_eq!(sample(&bound), sample(&resolved), "{at}: sample_sweep");
            assert_eq!(exact(&bound), exact(&resolved), "{at}: expectation_sweep");
        }
    }
}

// ---------------------------------------------------------------------------
// Collision probes: near-miss programs must not alias
// ---------------------------------------------------------------------------

#[test]
fn near_miss_programs_fingerprint_and_intern_apart() {
    let base = parse_program("q1 *= RX(np)").unwrap();
    let base_reg = Register::from_program(&base);

    let renamed = parse_program("q1 *= RX(nq)").unwrap();
    let wide_reg = Register::from_vars([Var::new("q1"), Var::new("q2")]);
    let ext_reg = base_reg.with_ancilla_front(Var::new("Anc"));
    let offset = Stmt::unitary(
        Gate::Rot {
            axis: Pauli::X,
            angle: Angle {
                param: Some("np".to_string()),
                offset: 0.25,
            },
        },
        [Var::new("q1")],
    );

    let fp = program_fingerprint(&base, &base_reg);
    assert_ne!(
        fp,
        program_fingerprint(&renamed, &Register::from_program(&renamed)),
        "parameter rename must change the fingerprint"
    );
    assert_ne!(
        fp,
        program_fingerprint(&base, &wide_reg),
        "register width must be part of the key"
    );
    assert_ne!(
        fp,
        program_fingerprint(&base, &ext_reg),
        "ancilla extension must be part of the key"
    );
    assert_ne!(
        fp,
        program_fingerprint(&offset, &base_reg),
        "constant angle offset must change the fingerprint"
    );

    // And a fresh cache keeps all five variants as distinct entries with
    // distinct skeletons.
    let cache = ProgramCache::new();
    let s_base = cache.intern(std::slice::from_ref(&base), &base_reg);
    let s_renamed = cache.intern(std::slice::from_ref(&renamed), &Register::from_program(&renamed));
    let s_wide = cache.intern(std::slice::from_ref(&base), &wide_reg);
    let s_ext = cache.intern(std::slice::from_ref(&base), &ext_reg);
    let s_offset = cache.intern(std::slice::from_ref(&offset), &base_reg);
    assert!(!Arc::ptr_eq(&s_base, &s_renamed));
    assert!(!Arc::ptr_eq(&s_base, &s_wide));
    assert!(!Arc::ptr_eq(&s_base, &s_ext));
    assert!(!Arc::ptr_eq(&s_base, &s_offset));
    assert_eq!(cache.unique_programs(), 5);
    assert_eq!(cache.total_lowers(), 5);
}

// ---------------------------------------------------------------------------
// Concurrent first-touch
// ---------------------------------------------------------------------------

#[test]
fn concurrent_first_touch_compiles_once() {
    let cache = Arc::new(ProgramCache::new());
    let program = vec![parse_program("q1 *= RX(ct); q2 *= RY(ct); q1, q2 *= RZZ(cu)").unwrap()];
    let reg = Register::from_program(&program[0]);
    let barrier = Arc::new(std::sync::Barrier::new(8));

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let program = program.clone();
            let reg = reg.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache.intern(&program, &reg)
            })
        })
        .collect();
    let skeletons: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for s in &skeletons[1..] {
        assert!(Arc::ptr_eq(&skeletons[0], s), "all threads must share one skeleton");
    }
    let stats = cache.stats(&program, &reg).unwrap();
    assert_eq!(stats.lowers, 1, "first touch must compile exactly once");
    assert_eq!(stats.hits, 7, "the other seven interns are hits");
}

// ---------------------------------------------------------------------------
// Compile-count acceptance: 36 parameters, ONE lowered skeleton
// ---------------------------------------------------------------------------

/// The paper's `Q(Γ)` rotation block with parameters `"{prefix}0..11"`
/// over `q1..q4` — rebuilt locally so this binary's copy of the circuit is
/// interned by this test alone (the process-wide cache is shared by every
/// test thread in the binary; a unique program makes the compile-count
/// delta exact).
fn rot_block(prefix: &str) -> Stmt {
    let mut stmts = Vec::with_capacity(12);
    for (stage, axis) in [Pauli::X, Pauli::Y, Pauli::Z].into_iter().enumerate() {
        for q in 0..4 {
            stmts.push(Stmt::rot(
                axis,
                format!("{prefix}{}", stage * 4 + q),
                var(q),
            ));
        }
    }
    Stmt::seq(stmts)
}

/// `P2`-shaped: `Q(Θ); case M[q1] = 0 → Q(Φ), 1 → Q(Ψ) end`, 36 params,
/// named `"{tag}T0..11"`, `"{tag}F0..11"` and `"{tag}S0..11"`.
fn p2_shaped(tag: &str) -> Stmt {
    Stmt::seq([
        rot_block(&format!("{tag}T")),
        Stmt::Case {
            qs: vec![Var::new("q1")],
            arms: vec![rot_block(&format!("{tag}F")), rot_block(&format!("{tag}S"))],
        },
    ])
}

#[test]
fn shift_gradient_of_36_param_circuit_lowers_exactly_one_skeleton() {
    let _global = global_cache_lock();
    let program = p2_shaped("c");
    let engine = GradientEngine::new(&program).unwrap();
    assert_eq!(engine.parameters().count(), 36);
    assert!(engine.shift_rule_eligible(), "each of the 36 params occurs once per path");
    // The gadget path compiles one multiset per parameter; the shift path
    // evaluates ONE shared skeleton at 72 shifted valuations instead.
    assert_eq!(engine.total_programs(), 36);

    let params = Params::from_pairs(
        engine
            .parameters()
            .enumerate()
            .map(|(i, name)| (name.to_string(), 0.2 + 0.31 * i as f64)),
    );
    let obs = Observable::pauli_z(4, 0);
    let psi = StateVector::zero_state(4);

    // Lowering happens on the interning thread (inside the entry's
    // `get_or_init`), and this binary interns this circuit nowhere else,
    // so the thread-local invocation counter delta is exact.
    let before = lower_invocations();
    let shift = engine.gradient_pure_shift(&params, &obs, &psi);
    let after_shift = lower_invocations();
    assert_eq!(
        after_shift - before,
        1,
        "a 36-param shift gradient must lower exactly one program skeleton"
    );
    assert_eq!(shift.len(), 36);

    // Warm repeat: zero additional compilations, bit-identical results.
    let warm = engine.gradient_pure_shift(&params, &obs, &psi);
    assert_eq!(lower_invocations(), after_shift, "warm calls must not re-lower");
    for (name, v) in &shift {
        assert_eq!(v.to_bits(), warm[name].to_bits(), "∂/∂{name} drifted across cache states");
    }

    // The exact gradient sweeps the same forward skeleton backward (the
    // adjoint method), so it lowers nothing more; the two gradients agree
    // to 1e-8.
    let before_adjoint = lower_invocations();
    let gadget = engine.gradient_pure(&params, &obs, &psi);
    assert_eq!(
        lower_invocations() - before_adjoint,
        0,
        "the exact gradient reuses the forward skeleton"
    );
    for (name, v) in &gadget {
        assert!(
            (shift[name] - v).abs() < 1e-8,
            "∂/∂{name}: shift {} vs gadget {v}",
            shift[name]
        );
    }
}

#[test]
fn shift_rule_matches_gadget_gradient_on_branching_programs() {
    let sources = [
        "q1 *= RX(ga); q2 *= RY(gb); q1, q2 *= RZZ(gc); q2 *= RZ(gd)",
        "q1 *= RX(ga); case M[q1] = 0 -> q2 *= RY(gb), 1 -> q2 *= RZ(gc) end; q2 *= RX(gd)",
        "q1 *= H; q1 *= RY(ga); case M[q1] = 0 -> q2 *= RX(gb), 1 -> q2 := |0> end",
    ];
    let mut rng = StdRng::seed_from_u64(0x51F7);
    for (i, src) in sources.iter().enumerate() {
        let program = parse_program(src).unwrap();
        let engine = GradientEngine::new(&program).unwrap();
        assert!(engine.shift_rule_eligible(), "program {i}");
        let n = engine.register().len();
        let params = Params::from_pairs(
            engine
                .parameters()
                .map(|name| (name.to_string(), rng.gen::<f64>() * std::f64::consts::TAU)),
        );
        let obs = Observable::pauli_z(n, n - 1);
        for _ in 0..3 {
            let psi = random_state(&mut rng, n);
            let shift = engine.gradient_pure_shift(&params, &obs, &psi);
            let gadget = engine.gradient_pure(&params, &obs, &psi);
            let diffs: BTreeMap<&String, f64> = shift
                .iter()
                .map(|(name, v)| (name, (v - gadget[name]).abs()))
                .collect();
            assert!(
                diffs.values().all(|&d| d < 1e-8),
                "program {i}: shift vs gadget diverged: {diffs:?}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "occur exactly once")]
fn shift_rule_rejects_parameters_that_repeat_along_a_path() {
    let program = parse_program("q1 *= RX(rp); q1 *= RY(rp)").unwrap();
    let engine = GradientEngine::new(&program).unwrap();
    assert!(!engine.shift_rule_eligible());
    let _ = engine.gradient_pure_shift(
        &Params::from_pairs([("rp", 0.4)]),
        &Observable::pauli_z(1, 0),
        &StateVector::zero_state(1),
    );
}

// ---------------------------------------------------------------------------
// Warm engine calls: memoised keys, pointer-identity hits
// ---------------------------------------------------------------------------

/// The valuation `θ_i = 0.2 + 0.31 i` over an engine's parameters.
fn engine_params(engine: &GradientEngine) -> Params {
    Params::from_pairs(
        engine
            .parameters()
            .enumerate()
            .map(|(i, name)| (name.to_string(), 0.2 + 0.31 * i as f64)),
    )
}

/// The engine's interned multisets: its forward program first, then each
/// parameter's derivative multiset in name order.
fn engine_multisets(engine: &GradientEngine) -> Vec<(Vec<Stmt>, Register)> {
    std::iter::once((vec![engine.program().clone()], engine.register().clone()))
        .chain(engine.parameters().map(|name| {
            let diff = engine.differentiated(name).unwrap();
            (diff.compiled().to_vec(), diff.ext_register().clone())
        }))
        .collect()
}

/// Each multiset's global-cache counters, `None` when it is not resident.
fn global_stats(multisets: &[(Vec<Stmt>, Register)]) -> Vec<Option<CacheStats>> {
    multisets
        .iter()
        .map(|(compiled, reg)| ProgramCache::global().stats(compiled, reg))
        .collect()
}

fn gradient_bits(rows: &[BTreeMap<String, f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.values().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn warm_engine_calls_only_hit_the_cache() {
    let _global = global_cache_lock();
    let engine = GradientEngine::new(&p2_shaped("w")).unwrap();
    let params = engine_params(&engine);
    let obs = Observable::pauli_z(4, 0);
    let mut rng = StdRng::seed_from_u64(0x3A7E);
    let inputs: Vec<StateVector> = (0..3).map(|_| random_state(&mut rng, 4)).collect();
    let batch = BatchedStates::from_states(&inputs);
    let seeds = [11, 12, 13];
    let calls = || {
        (
            engine.gradient_pure_shots_batch(&params, &obs, &inputs, 16, &seeds),
            engine.value_pure_shots_batch(&params, &obs, &inputs, 16, &seeds),
            engine.gradient_pure_batch(&params, &obs, &batch),
        )
    };
    let primed = calls();
    let multisets = engine_multisets(&engine);
    let before = global_stats(&multisets);
    let lowers = lower_invocations();
    let warm = calls();
    assert_eq!(lower_invocations(), lowers, "warm calls must not lower");
    // Every entry is the one the primed calls built (an entry rebuilt by a
    // miss would count its hits from zero): the forward program hit once
    // by the shot value and once by the exact gradient, each derivative
    // multiset once by the shot gradient.
    for (k, (b, a)) in before.iter().zip(global_stats(&multisets)).enumerate() {
        let (b, a) = (b.unwrap(), a.unwrap());
        assert_eq!((b.lowers, a.lowers), (1, 1), "multiset {k} lowered again");
        let hits = if k == 0 { 2 } else { 1 };
        assert_eq!(a.hits, b.hits + hits, "multiset {k}: warm calls must hit");
    }
    assert_eq!(gradient_bits(&warm.0), gradient_bits(&primed.0));
    let value_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(value_bits(&warm.1), value_bits(&primed.1));
    assert_eq!(gradient_bits(&warm.2), gradient_bits(&primed.2));
}

#[test]
fn evicted_multisets_reintern_under_memoised_keys_with_the_same_shot_bits() {
    let _global = global_cache_lock();
    let engine = GradientEngine::new(&p2_shaped("e")).unwrap();
    let params = engine_params(&engine);
    let obs = Observable::pauli_z(4, 0);
    let mut rng = StdRng::seed_from_u64(0xE71C);
    let inputs: Vec<StateVector> = (0..2).map(|_| random_state(&mut rng, 4)).collect();
    let seeds = [5, 6];
    let shots = || engine.gradient_pure_shots_batch(&params, &obs, &inputs, 16, &seeds);
    let before = shots();
    let derivatives = &engine_multisets(&engine)[1..];
    assert!(global_stats(derivatives).iter().all(Option::is_some));

    let cache = ProgramCache::global();
    let capacity = cache.counters().capacity;
    cache.set_capacity(Some(0));
    assert!(
        global_stats(derivatives).iter().all(Option::is_none),
        "all evicted"
    );
    cache.set_capacity(capacity);

    // The memoised keys route the next lookups to fresh entries, which a
    // structural-fingerprint lookup finds: each multiset lowers once more.
    let lowers = lower_invocations();
    let after = shots();
    assert_eq!(
        lower_invocations() - lowers,
        36,
        "each multiset re-lowers once"
    );
    for (k, stats) in global_stats(derivatives).into_iter().enumerate() {
        assert_eq!(
            stats,
            Some(CacheStats { lowers: 1, hits: 0 }),
            "multiset {k}"
        );
    }
    assert_eq!(
        gradient_bits(&after),
        gradient_bits(&before),
        "eviction moved shot bits"
    );
}

#[test]
fn warm_derivative_of_a_program_with_a_sum_compiles_nothing() {
    let _global = global_cache_lock();
    // The first generated program with `+` that has a parameter.
    let mut rng = StdRng::seed_from_u64(0x5A11);
    let program = loop {
        let p = support::stmt(&mut rng, 3);
        if !p.is_normal() && !p.parameters().is_empty() {
            break p;
        }
    };
    let param = program.parameters().into_iter().next().unwrap();
    let diff = differentiate(&program, &param).unwrap();
    let reg = Register::from_program(&program);
    let params = Params::from_pairs(program.parameters().into_iter().map(|p| (p, 0.7)));
    let obs = Observable::pauli_z(reg.len(), 0);
    let inputs: Vec<StateVector> = (0..3).map(|_| random_state(&mut rng, reg.len())).collect();
    let batch = BatchedStates::from_states(&inputs);
    let primed = diff.derivative_pure_batch(&params, &obs, &batch);
    let multiset = compile(&program);
    let before = ProgramCache::global().stats(&multiset, &reg).unwrap();
    let counts = || (compile_invocations(), lower_invocations());
    let cold = counts();
    let warm = diff.derivative_pure_batch(&params, &obs, &batch);
    assert_eq!(counts(), cold, "a warm derivative compiled or lowered");
    let hit = CacheStats {
        lowers: 1,
        hits: before.hits + 1,
    };
    assert_eq!(
        ProgramCache::global().stats(&multiset, &reg),
        Some(hit),
        "a warm derivative only hits its entry"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&warm), bits(&primed));
}
