//! Differential tests of the batched [`qdp_sim::ShotEngine`] against the
//! serial trajectory sampler `qdp_ad::estimator::sample_trajectory` — the
//! oracle of branch-grouped batching.
//!
//! Randomized *branching* programs (computational `case`s, `q := |0⟩`
//! resets, bounded `while` loops, aborts; up to 8 qubits) are run on random
//! input batches with a **shared per-row seed stream**: batch row `r` and
//! the serial run of row `r` both draw from `ShotSampler::derived(seed, r)`.
//! For every row the two paths must produce
//!
//! * the identical measurement-outcome history, and
//! * the **bitwise** identical collapsed final state (or both abort),
//!
//! across batch sizes 1, 2, 16, and 33 (the off-by-one-past-a-power-of-two
//! size exercises the batch's power-of-two block decomposition *and* the
//! regrouped sub-batches' decompositions), and across batches with
//! duplicate rows — all equal, and interleaved like `[a, b, a, a, c, b]` —
//! where bitwise-equal trajectories share one amplitude row in the sweep.

use qdp_ad::estimator::sample_trajectory_traced;
use qdp_ad::LoweredSet;
use qdp_lang::ast::{Angle, Gate, Params, Stmt, Var};
use qdp_lang::Register;
use qdp_linalg::{C64, Pauli};
use qdp_sim::{BatchedStates, ShotSampler, ShotStream, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BATCH_SIZES: [usize; 4] = [1, 2, 16, 33];

fn var(i: usize) -> Var {
    Var::new(format!("q{}", i + 1))
}

/// A random normal program over `n` qubits mixing straight-line rotations
/// with the constructs that force measurement-time branching: `case`s,
/// resets, bounded `while` loops, and (rarely) an aborting arm.
fn random_branching_program(rng: &mut StdRng, n: usize, params: &[String], len: usize) -> Stmt {
    let axes = [Pauli::X, Pauli::Y, Pauli::Z];
    let mut stmts: Vec<Stmt> = Vec::with_capacity(len + n);
    // Touch every qubit once so the register spans all n qubits.
    for q in 0..n {
        stmts.push(Stmt::unitary(Gate::H, [var(q)]));
    }
    for _ in 0..len {
        let param = params[rng.gen_range(0..params.len())].clone();
        let axis = axes[rng.gen_range(0..3usize)];
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..10usize) {
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
            4 | 5 => stmts.push(Stmt::init(var(q))),
            6 | 7 => {
                let other = params[rng.gen_range(0..params.len())].clone();
                let arm1 = if rng.gen_range(0..8usize) == 0 {
                    // A rare aborting arm: aborted rows must be reported
                    // identically by both paths.
                    Stmt::seq(vec![
                        Stmt::rot(axes[rng.gen_range(0..3usize)], other, var(q)),
                        Stmt::Abort { qs: vec![var(q)] },
                    ])
                } else {
                    Stmt::rot(axes[rng.gen_range(0..3usize)], other, var(q))
                };
                stmts.push(Stmt::Case {
                    qs: vec![var(q)],
                    arms: vec![Stmt::rot(axis, param, var((q + 1) % n)), arm1],
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

/// The input batches every program runs on: distinct random rows at each
/// of [`BATCH_SIZES`], 16 copies of one state (a shot block), and the
/// interleaved-duplicate layout `[a, b, a, a, c, b]`.
fn input_batches(rng: &mut StdRng, n: usize) -> Vec<Vec<StateVector>> {
    let mut batches: Vec<Vec<StateVector>> = BATCH_SIZES
        .iter()
        .map(|&rows| (0..rows).map(|_| random_state(rng, n)).collect())
        .collect();
    batches.push(vec![random_state(rng, n); 16]);
    let (a, b, c) = (random_state(rng, n), random_state(rng, n), random_state(rng, n));
    batches.push(vec![a.clone(), b.clone(), a.clone(), a, c, b]);
    batches
}

/// Runs one program through both paths on shared per-row streams and
/// asserts bitwise agreement.
fn check_program(program: &Stmt, params: &Params, rng: &mut StdRng, seed: u64) {
    let reg = Register::from_program(program);
    let set = LoweredSet::lower(std::slice::from_ref(program), &reg);
    let values = set.slot_values(params);
    let engine = set.shot_engines(&values).next().expect("one program");

    for inputs in input_batches(rng, reg.len()) {
        let batch_size = inputs.len();
        let streams: Vec<ShotStream> = (0..batch_size as u64)
            .map(|index| ShotStream { seed, index })
            .collect();
        let shots = vec![1; batch_size];
        let batched = engine.run(BatchedStates::from_states(&inputs), &shots, &streams).unwrap();

        for (r, input) in inputs.iter().enumerate() {
            let mut serial_sampler = ShotSampler::derived(seed, r as u64);
            let mut serial_outcomes = Vec::new();
            let serial = sample_trajectory_traced(
                program,
                &reg,
                params,
                input,
                &mut serial_sampler,
                &mut serial_outcomes,
            );
            assert_eq!(
                serial_outcomes, batched[r].outcomes,
                "outcome history diverged on row {r} of batch {batch_size}"
            );
            match (&serial, &batched[r].state) {
                (None, None) => {}
                (Some(s), Some(b)) => {
                    let sa = s.amplitudes();
                    let ba = b.amplitudes();
                    assert_eq!(sa.len(), ba.len());
                    for (k, (x, y)) in sa.iter().zip(ba).enumerate() {
                        assert_eq!(
                            x.re.to_bits(),
                            y.re.to_bits(),
                            "row {r} amp {k} re: serial {x:?} vs batched {y:?}"
                        );
                        assert_eq!(
                            x.im.to_bits(),
                            y.im.to_bits(),
                            "row {r} amp {k} im: serial {x:?} vs batched {y:?}"
                        );
                    }
                }
                (s, b) => panic!(
                    "abort status diverged on row {r}: serial {:?} vs batched {:?}",
                    s.is_some(),
                    b.is_some()
                ),
            }
        }
    }
}

#[test]
fn batched_trajectories_match_serial_sampler_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for trial in 0..14 {
        let n = 1 + (trial % 5);
        let params: Vec<String> = (0..3).map(|i| format!("p{i}")).collect();
        let program = random_branching_program(&mut rng, n, &params, 4 + trial % 8);
        let values = Params::from_pairs(
            params
                .iter()
                .map(|p| (p.clone(), rng.gen::<f64>() * std::f64::consts::TAU)),
        );
        check_program(&program, &values, &mut rng, 0xBEEF + trial as u64);
    }
}

#[test]
fn batched_trajectories_match_serial_sampler_on_wide_registers() {
    // The n = 8 ceiling of the differential contract, with deeper
    // branching (every while unroll measures again).
    let mut rng = StdRng::seed_from_u64(0x8888);
    for trial in 0..3 {
        let params: Vec<String> = (0..4).map(|i| format!("w{i}")).collect();
        let program = random_branching_program(&mut rng, 8, &params, 10);
        let values = Params::from_pairs(
            params
                .iter()
                .map(|p| (p.clone(), rng.gen::<f64>() * std::f64::consts::TAU)),
        );
        check_program(&program, &values, &mut rng, 0xACE + trial as u64);
    }
}

#[test]
fn batched_trajectories_of_derivative_multisets_match_serial() {
    // The estimator's actual workload: the *compiled derivative* programs
    // of a branching source program, each run through both paths on the
    // ancilla-extended input.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let src = "q1 *= RX(t); case M[q1] = 0 -> q2 *= RY(t), 1 -> q2 := |0> end; \
               while[2] M[q2] = 1 do q2 *= RY(t) done";
    let program = qdp_lang::parse_program(src).unwrap();
    let diff = qdp_ad::differentiate(&program, "t").unwrap();
    let params = Params::from_pairs([("t", 1.234)]);
    let skeleton = diff.skeleton();
    let values = skeleton.lowered().slot_values(&params);
    for (i, (compiled, engine)) in diff
        .compiled()
        .iter()
        .zip(skeleton.lowered().shot_engines(&values))
        .enumerate()
    {
        let ext_reg = diff.ext_register();
        let ext_input = |rng: &mut StdRng| {
            StateVector::zero_state(1).tensor(&random_state(rng, ext_reg.len() - 1))
        };
        // Distinct rows of one shot each, then a shot block: the
        // estimator runs every program on many shots of one extended
        // input.
        let batches: [(Vec<StateVector>, Vec<usize>); 3] = [
            ((0..2).map(|_| ext_input(&mut rng)).collect(), vec![1; 2]),
            ((0..9).map(|_| ext_input(&mut rng)).collect(), vec![1; 9]),
            (vec![ext_input(&mut rng)], vec![9]),
        ];
        for (rows, shots) in batches {
            let inputs: Vec<&StateVector> = rows
                .iter()
                .zip(&shots)
                .flat_map(|(input, &k)| std::iter::repeat_n(input, k))
                .collect();
            let batch_size = inputs.len();
            let seed = 0x1000 + i as u64;
            let streams: Vec<ShotStream> = (0..batch_size as u64)
                .map(|index| ShotStream { seed, index })
                .collect();
            let batched = engine.run(BatchedStates::from_states(&rows), &shots, &streams).unwrap();
            for (r, &input) in inputs.iter().enumerate() {
                let mut sampler = ShotSampler::derived(seed, r as u64);
                let mut outcomes = Vec::new();
                let serial = sample_trajectory_traced(
                    compiled, ext_reg, &params, input, &mut sampler, &mut outcomes,
                );
                assert_eq!(outcomes, batched[r].outcomes, "program {i} row {r}");
                match (&serial, &batched[r].state) {
                    (None, None) => {}
                    (Some(s), Some(b)) => {
                        for (x, y) in s.amplitudes().iter().zip(b.amplitudes()) {
                            assert_eq!(x.re.to_bits(), y.re.to_bits(), "program {i} row {r}");
                            assert_eq!(x.im.to_bits(), y.im.to_bits(), "program {i} row {r}");
                        }
                    }
                    _ => panic!("abort status diverged on program {i} row {r}"),
                }
            }
        }
    }
}
