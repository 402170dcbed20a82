//! Property tests of branch-grouped batching: regrouping rows into
//! outcome-homogeneous sub-batches, and sharing one amplitude row among
//! bitwise-equal trajectories, are *optimisations*, never semantic
//! changes. Every row of a batched [`ShotEngine`] sweep must carry the
//! same outcome history and bitwise the same final amplitudes (and
//! read-out samples) as the per-row fallback — the same engine run on a
//! batch of one with the same stream.
//!
//! Programs are generated randomly over gates, resets, nested `case`s and
//! aborts, so the regrouping recursion is exercised at every depth. Shots
//! come in three layouts: distinct inputs of one shot each, one input for
//! every shot (a shot block), and runs of shots that follow the inputs
//! `[a, b, a, a, c, b]`, repeated. At scale, classes of more than a
//! thousand shots fork at two- and three-qubit measurements (4 and 8
//! outcomes), some of probability zero, through nested `case`s whose arms
//! abort.

use qdp_linalg::{C64, Matrix};
use qdp_sim::{
    BatchedStates, Measurement, ProjectiveObservable, Observable, ShotEngine, ShotStream,
    StateVector, TrajProgram,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random single-qubit unitary drawn from rotations and fixed gates.
fn random_1q_gate(rng: &mut StdRng) -> Matrix {
    match rng.gen_range(0..5usize) {
        0 => Matrix::hadamard(),
        1 => Matrix::pauli_x(),
        2 => Matrix::rotation_from_involution(&Matrix::pauli_x(), rng.gen::<f64>() * 6.0),
        3 => Matrix::rotation_from_involution(&Matrix::pauli_y(), rng.gen::<f64>() * 6.0),
        _ => Matrix::rotation_from_involution(&Matrix::pauli_z(), rng.gen::<f64>() * 6.0),
    }
}

/// A random trajectory program over `n` qubits with branching depth
/// `depth`: gates, resets, and (for positive depth) measurement cases with
/// randomly generated arms, one of which may abort.
fn random_program(rng: &mut StdRng, n: usize, len: usize, depth: usize) -> TrajProgram {
    let mut p = TrajProgram::new();
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..8usize) {
            0..=3 => p.push_gate(random_1q_gate(rng), vec![q]),
            4 if n >= 2 => {
                let mut q2 = rng.gen_range(0..n);
                while q2 == q {
                    q2 = rng.gen_range(0..n);
                }
                p.push_gate(Matrix::cnot(), vec![q, q2]);
            }
            4 => p.push_gate(random_1q_gate(rng), vec![q]),
            5 => p.push_init(q),
            _ if depth > 0 => {
                let mut arms: Vec<TrajProgram> = (0..2)
                    .map(|_| random_program(rng, n, len / 2 + 1, depth - 1))
                    .collect();
                if rng.gen_range(0..6usize) == 0 {
                    arms[1].push_abort();
                }
                p.push_case(Measurement::computational(vec![q]), arms);
            }
            _ => p.push_gate(random_1q_gate(rng), vec![q]),
        }
    }
    p
}

/// `shots` shots on `n` qubits in each tested layout, as input rows and
/// each row's shot count: distinct inputs, one input, and the runs of
/// shots whose inputs follow `[a, b, a, a, c, b]`.
fn layouts(rng: &mut StdRng, n: usize, shots: usize) -> [(Vec<StateVector>, Vec<usize>); 3] {
    let distinct = ((0..shots).map(|_| random_state(rng, n)).collect(), vec![1; shots]);
    let equal = (vec![random_state(rng, n)], vec![shots]);
    let abc = [random_state(rng, n), random_state(rng, n), random_state(rng, n)];
    let (mut rows, mut counts) = (Vec::new(), Vec::<usize>::new());
    let mut last = usize::MAX;
    for r in 0..shots {
        let k = [0, 1, 0, 0, 2, 1][r % 6];
        if k == last {
            *counts.last_mut().unwrap() += 1;
        } else {
            rows.push(abc[k].clone());
            counts.push(1);
            last = k;
        }
    }
    [distinct, equal, (rows, counts)]
}

/// Every shot's input, in shot order.
fn shot_inputs<'a>(rows: &'a [StateVector], counts: &[usize]) -> Vec<&'a StateVector> {
    rows.iter()
        .zip(counts)
        .flat_map(|(input, &k)| std::iter::repeat_n(input, k))
        .collect()
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

#[test]
fn regrouped_rows_match_per_row_fallback() {
    let mut rng = StdRng::seed_from_u64(0x9e0b);
    for trial in 0..20 {
        let n = 1 + trial % 4;
        let program = random_program(&mut rng, n, 5 + trial % 6, 2);
        let engine = ShotEngine::new(program);
        let batch_size = [1usize, 2, 7, 16, 33][trial % 5];
        let seed = 0xF00 + trial as u64;
        for (layout, (rows, counts)) in layouts(&mut rng, n, batch_size).iter().enumerate() {
            let streams: Vec<ShotStream> = (0..batch_size as u64)
                .map(|index| ShotStream { seed, index })
                .collect();
            let grouped = engine.run(BatchedStates::from_states(rows), counts, &streams).unwrap();

            for (r, &input) in shot_inputs(rows, counts).iter().enumerate() {
                // Per-row fallback: the same row alone, same stream — no
                // regrouping or sharing can ever happen in a batch of one.
                let solo_stream = [streams[r]];
                let solo = engine
                    .run(
                        BatchedStates::from_states(std::slice::from_ref(input)),
                        &[1],
                        &solo_stream,
                    )
                    .unwrap()
                    .remove(0);

                assert_eq!(
                    solo.outcomes, grouped[r].outcomes,
                    "trial {trial} layout {layout}: outcome history of row {r} changed"
                );
                match (&solo.state, &grouped[r].state) {
                    (None, None) => {}
                    (Some(s), Some(g)) => {
                        for (k, (a, b)) in s.amplitudes().iter().zip(g.amplitudes()).enumerate() {
                            assert!(
                                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                                "trial {trial} layout {layout} row {r} amp {k}: solo {a:?} vs grouped {b:?}"
                            );
                        }
                    }
                    _ => panic!("trial {trial} layout {layout} row {r}: abort status changed"),
                }
            }
        }
    }
}

#[test]
fn regrouped_readout_samples_match_per_row_fallback() {
    // The full estimator path: trajectories plus one projective read-out
    // per surviving row, batched vs per-row, bit for bit.
    let mut rng = StdRng::seed_from_u64(0x51de);
    for trial in 0..10 {
        let n = 1 + trial % 3;
        let program = random_program(&mut rng, n, 6, 2);
        let engine = ShotEngine::new(program);
        let obs = Observable::pauli_z(n, rng.gen_range(0..n));
        let readout = ProjectiveObservable::new(&obs);
        let batch_size = 19;
        let seed = 0xABC + trial as u64;
        for (layout, (rows, counts)) in layouts(&mut rng, n, batch_size).iter().enumerate() {
            let streams: Vec<ShotStream> = (0..batch_size as u64)
                .map(|index| ShotStream { seed, index })
                .collect();
            let grouped = engine
                .sample_sweep(BatchedStates::from_states(rows), counts, &streams, &readout)
                .unwrap();

            for (r, &input) in shot_inputs(rows, counts).iter().enumerate() {
                let solo_stream = [streams[r]];
                let solo = engine
                    .sample_sweep(
                        BatchedStates::from_states(std::slice::from_ref(input)),
                        &[1],
                        &solo_stream,
                        &readout,
                    )
                    .unwrap()[0];
                assert_eq!(
                    solo.to_bits(),
                    grouped[r].to_bits(),
                    "trial {trial} layout {layout} row {r}: read-out sample changed"
                );
            }
        }
    }
}

#[test]
fn regrouping_is_insensitive_to_row_order() {
    // Permuting the input rows (with their streams) permutes the results —
    // each row's trajectory depends only on its own state and stream.
    let mut rng = StdRng::seed_from_u64(0x707);
    let n = 3;
    let program = random_program(&mut rng, n, 8, 2);
    let engine = ShotEngine::new(program);
    let batch_size = 11;
    let inputs: Vec<StateVector> = (0..batch_size).map(|_| random_state(&mut rng, n)).collect();

    let streams: Vec<ShotStream> = (0..batch_size as u64)
        .map(|index| ShotStream { seed: 1, index })
        .collect();
    let forward = engine.run(BatchedStates::from_states(&inputs), &[1; 11], &streams).unwrap();

    let rev_inputs: Vec<StateVector> = inputs.iter().rev().cloned().collect();
    let rev_streams: Vec<ShotStream> = (0..batch_size as u64)
        .rev()
        .map(|index| ShotStream { seed: 1, index })
        .collect();
    let reversed = engine
        .run(BatchedStates::from_states(&rev_inputs), &[1; 11], &rev_streams)
        .unwrap();

    for r in 0..batch_size {
        let a = &forward[r];
        let b = &reversed[batch_size - 1 - r];
        assert_eq!(a.outcomes, b.outcomes, "row {r}");
        match (&a.state, &b.state) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                for (p, q) in x.amplitudes().iter().zip(y.amplitudes()) {
                    assert_eq!(p.re.to_bits(), q.re.to_bits());
                    assert_eq!(p.im.to_bits(), q.im.to_bits());
                }
            }
            _ => panic!("row {r} abort status diverged under permutation"),
        }
    }
}

/// `psi` with every amplitude whose `qubit` reads 1 set to zero and the
/// rest renormalised: every measurement outcome with that qubit at 1 has
/// probability exactly zero.
fn pin_to_zero(psi: &StateVector, qubit: usize) -> StateVector {
    let n = psi.num_qubits();
    let mask = 1usize << (n - 1 - qubit);
    let mut amps = psi.amplitudes().to_vec();
    for (i, a) in amps.iter_mut().enumerate() {
        if i & mask != 0 {
            *a = C64::ZERO;
        }
    }
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a *= C64::real(1.0 / norm);
    }
    StateVector::from_amplitudes(n, amps)
}

/// A 4-qubit program forking at a two-qubit measurement (4 outcomes) into
/// arms that nest a three-qubit measurement (8 outcomes) with aborting
/// arms, abort outright, or measure again after a gate.
fn scale_program(rng: &mut StdRng) -> TrajProgram {
    let mut inner: Vec<TrajProgram> = (0..8)
        .map(|k| {
            let mut arm = TrajProgram::new();
            arm.push_gate(random_1q_gate(rng), vec![k % 4]);
            if k % 3 == 2 {
                arm.push_abort();
            }
            arm
        })
        .collect();
    inner[0].push_init(1);
    let mut arms: Vec<TrajProgram> = (0..4).map(|_| TrajProgram::new()).collect();
    arms[0].push_gate(Matrix::cnot(), vec![2, 0]);
    arms[0].push_case(Measurement::computational(vec![0, 2, 3]), inner);
    arms[1].push_abort();
    arms[2].push_gate(random_1q_gate(rng), vec![2]);
    arms[2].push_case(
        Measurement::computational(vec![2]),
        vec![TrajProgram::new(), random_program(rng, 4, 3, 0)],
    );
    let mut p = TrajProgram::new();
    p.push_gate(random_1q_gate(rng), vec![0]);
    p.push_gate(Matrix::cnot(), vec![0, 1]);
    p.push_case(Measurement::computational(vec![1, 3]), arms);
    p.push_gate(random_1q_gate(rng), vec![3]);
    p
}

#[test]
fn regrouped_classes_at_scale_match_per_row_fallback() {
    // Two classes of more than a thousand shots — one with its last qubit
    // pinned to |0⟩, so half the outcomes of every measurement reading it
    // have probability zero — and a class of one shot, through wide and
    // nested forks. Every shot's trajectory and read-out must be the one it
    // draws alone on its stream.
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    let n = 4;
    for trial in 0..2 {
        let engine = ShotEngine::new(scale_program(&mut rng));
        let rows = [
            random_state(&mut rng, n),
            pin_to_zero(&random_state(&mut rng, n), 3),
            random_state(&mut rng, n),
        ];
        let counts = [1024, 1100, 1];
        let shots: usize = counts.iter().sum();
        let readout = ProjectiveObservable::new(&Observable::pauli_z(n, 2));
        let seed = 0x5EED + trial;
        let streams: Vec<ShotStream> =
            (0..shots as u64).map(|index| ShotStream { seed, index }).collect();
        let grouped = engine
            .run(BatchedStates::from_states(&rows), &counts, &streams)
            .unwrap();
        let samples = engine
            .sample_sweep(BatchedStates::from_states(&rows), &counts, &streams, &readout)
            .unwrap();
        let mut outcome_counts = [0usize; 4];
        let mut aborted = 0;
        for (r, &input) in shot_inputs(&rows, &counts).iter().enumerate() {
            let solo_stream = [streams[r]];
            let solo_input = || BatchedStates::from_states(std::slice::from_ref(input));
            let solo = engine.run(solo_input(), &[1], &solo_stream).unwrap().remove(0);
            assert_eq!(solo.outcomes, grouped[r].outcomes, "trial {trial} shot {r}: outcomes");
            outcome_counts[solo.outcomes[0]] += 1;
            match (&solo.state, &grouped[r].state) {
                (None, None) => aborted += 1,
                (Some(a), Some(b)) => {
                    for (k, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
                        assert!(
                            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                            "trial {trial} shot {r} amp {k}: solo {x:?} vs grouped {y:?}"
                        );
                    }
                }
                _ => panic!("trial {trial} shot {r}: abort status changed"),
            }
            let solo_sample = engine
                .sample_sweep(solo_input(), &[1], &solo_stream, &readout)
                .unwrap()[0];
            assert_eq!(
                solo_sample.to_bits(),
                samples[r].to_bits(),
                "trial {trial} shot {r}: read-out sample"
            );
        }
        // The forks were real: every first outcome occurred, and some shots
        // aborted while others finished.
        assert!(outcome_counts.iter().all(|&k| k > 0), "trial {trial}: {outcome_counts:?}");
        assert!(aborted > 0 && aborted < shots, "trial {trial}: {aborted} aborted");
    }
}

