//! Split-plane (SoA) vs interleaved (AoS) layout differential suite — the
//! re-pinned determinism contract of the PR-7 layout change.
//!
//! Every test builds the **same arithmetic twice**: once through the
//! split-plane production paths (`StateVector` / `BatchedStates` planes,
//! the block measurement and read-out forms — a single row is a block of
//! one — and the batched `ShotEngine` executors) and once on interleaved
//! `Vec<C64>` amplitudes, then compares **f64 bit patterns**, not
//! approximate values. The AoS side uses the library's remaining AoS
//! oracles (`kernels::apply_matrix_reference` — the single kernel oracle —
//! and `Observable::expectation_amps`) and transcribes the rest in this
//! file: the computational bucket walk, the masked-copy collapse, the
//! general measurement path (copy, then `apply_matrix_reference`), and
//! the diagonal read-out walk with its selection loop. The one
//! relaxation: the reference scan accumulates every amplitude from
//! `+0.0`, so a collapse under a general measurement operator with a zero
//! row comes out `+0.0` where the plane kernels keep `-0.0`; that single
//! assertion compares after mapping `-0.0` to `+0.0` (see `canon_zero`).
//! Every pin between production paths — SIMD vs scalar, batched vs
//! per-row, masked collapse vs planes, thread counts — stays sign-exact.
//! Randomized branching programs (n ≤ 8, `case` forks, `q := |0⟩` resets —
//! the shapes derivative lowering emits as outcome multisets) run over
//! batches of 1 / 2 / 16 / 33 rows under forced 1 / 2 / 8 worker threads.
//!
//! The AoS replays here deliberately re-transcribe the lane-split
//! reduction contract (`crates/sim/src/lanes.rs`), the measurement and
//! read-out primitives and the serial collapse primitive
//! (`collapse_with_draw`) from scratch instead of calling them, so a
//! regression in either the plane paths *or* the shared primitives shows
//! up as a bit mismatch against an independent implementation.

use qdp_linalg::{C64, Matrix};
use qdp_sim::kernels::apply_matrix_reference;
use qdp_sim::{
    BatchedStates, Measurement, Observable, ProjectiveObservable, ShotEngine, ShotSampler,
    ShotStream,
    StateVector, TrajProgram, BRANCH_PRUNE,
};
use std::sync::Mutex;

/// Serializes the thread-override tests in this binary: `set_max_threads`
/// requires a quiesced process (see `block_measurement_differential.rs`).
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    THREAD_OVERRIDE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const BATCH_SIZES: [usize; 4] = [1, 2, 16, 33];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

// ---------------------------------------------------------------------------
// Deterministic randomness (qdp-sim has no dev-dependency on `rand`).
// ---------------------------------------------------------------------------

/// Knuth MMIX LCG — the same generator the `lanes` unit tests use.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// Uniform in `[0, 1)` from the top 53 bits.
fn uniform(state: &mut u64) -> f64 {
    (lcg(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform in `[-1, 1)`.
fn signed_unit(state: &mut u64) -> f64 {
    2.0 * uniform(state) - 1.0
}

/// A random normalized `n`-qubit state.
fn random_state(n: usize, rng: &mut u64) -> Vec<C64> {
    let mut amps: Vec<C64> = (0..1usize << n)
        .map(|_| C64::new(signed_unit(rng), signed_unit(rng)))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = C64::new(a.re / norm, a.im / norm);
    }
    amps
}

// ---------------------------------------------------------------------------
// Bit-pattern views.
// ---------------------------------------------------------------------------

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn amp_bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
}

fn plane_bits(re: &[f64], im: &[f64]) -> Vec<(u64, u64)> {
    re.iter().zip(im).map(|(r, i)| (r.to_bits(), i.to_bits())).collect()
}

/// Amplitude bits with `-0.0` mapped to `+0.0` (`x + 0.0`) and every other
/// value unchanged.
fn canon_zero(bits: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let canon = |b: u64| (f64::from_bits(b) + 0.0).to_bits();
    bits.into_iter().map(|(r, i)| (canon(r), canon(i))).collect()
}

/// Whether `meas` applies general operators (anything but the
/// computational-basis projectors in outcome order).
fn is_general(meas: &Measurement) -> bool {
    let dim = 1usize << meas.targets().len();
    meas.operators()
        .iter()
        .enumerate()
        .any(|(k, op)| *op != Matrix::basis_projector(dim, k))
}

// ---------------------------------------------------------------------------
// Independent AoS transcriptions of the shared primitives.
// ---------------------------------------------------------------------------

/// The lane-split norm reduction (`lanes::sum_norm_sqr`) re-transcribed on
/// interleaved amplitudes: lane `i % 4`, per-element fold, combine
/// `(p0 + p1) + (p2 + p3)`.
fn norm_sqr_aos(amps: &[C64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for (i, a) in amps.iter().enumerate() {
        acc[i % 4] += a.re * a.re + a.im * a.im;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `StateVector::scale` on interleaved amplitudes — the full complex
/// multiply per element, as the plane path transcribes it.
fn scale_aos(amps: &mut [C64], s: C64) {
    for a in amps.iter_mut() {
        *a *= s;
    }
}

/// The local index of full index `i` under the target `masks`, `masks[0]`
/// the most significant bit (`kernels::local_index`).
fn local_index(i: usize, masks: &[usize]) -> usize {
    let k = masks.len();
    let mut local = 0usize;
    for (j, &mask) in masks.iter().enumerate() {
        if i & mask != 0 {
            local |= 1 << (k - 1 - j);
        }
    }
    local
}

/// The full-index bit of each target on an `n`-qubit register (qubit 0 is
/// the most significant bit).
fn target_masks(n: usize, targets: &[usize]) -> Vec<usize> {
    targets.iter().map(|&t| 1usize << (n - 1 - t)).collect()
}

/// Whether `meas` takes the masked-copy path: computational-basis
/// projectors on at most two targets. Everything else applies operators.
fn masked_path(meas: &Measurement) -> bool {
    !is_general(meas) && meas.targets().len() <= 2
}

/// The branch probabilities of one interleaved row: the computational
/// bucket walk (lane `i % 4` partials per outcome, combined as in
/// [`norm_sqr_aos`]) on the masked path, otherwise each operator applied
/// to a copy through the reference scan, then [`norm_sqr_aos`].
fn branch_probabilities_aos(n: usize, amps: &[C64], meas: &Measurement) -> Vec<f64> {
    if !masked_path(meas) {
        return meas
            .operators()
            .iter()
            .map(|op| {
                let mut scratch = amps.to_vec();
                apply_matrix_reference(&mut scratch, n, op, meas.targets());
                norm_sqr_aos(&scratch)
            })
            .collect();
    }
    let masks = target_masks(n, meas.targets());
    let mut acc = vec![[0.0f64; 4]; meas.num_outcomes()];
    for (i, a) in amps.iter().enumerate() {
        acc[local_index(i, &masks)][i % 4] += a.re * a.re + a.im * a.im;
    }
    acc.iter().map(|p| (p[0] + p[1]) + (p[2] + p[3])).collect()
}

/// One interleaved row's unnormalised branch `Mm|ψ⟩`: on the masked path
/// members are copied and non-members multiplied component-wise by `0.0`
/// (keeping the projector kernel's signed zeros), otherwise the operator
/// is applied to a copy through the reference scan.
fn collapse_aos(n: usize, amps: &[C64], meas: &Measurement, outcome: usize) -> Vec<C64> {
    if !masked_path(meas) {
        let mut out = amps.to_vec();
        apply_matrix_reference(&mut out, n, &meas.operators()[outcome], meas.targets());
        return out;
    }
    let masks = target_masks(n, meas.targets());
    amps.iter()
        .enumerate()
        .map(|(i, a)| {
            if local_index(i, &masks) == outcome {
                *a
            } else {
                C64::new(a.re * 0.0, a.im * 0.0)
            }
        })
        .collect()
}

/// A diagonal read-out's pair probabilities on one interleaved row — the
/// serial bucket walk in index order, each basis state added to the pair
/// whose projector holds it — or `None` when the read-out is not on its
/// diagonal path.
fn readout_probabilities_aos(readout: &ProjectiveObservable, amps: &[C64]) -> Option<Vec<f64>> {
    if !readout.is_diagonal() {
        return None;
    }
    let first = &readout.pairs()[0].1;
    let masks = target_masks(first.num_qubits(), first.targets());
    let pair_of_local: Vec<usize> = (0..1usize << masks.len())
        .map(|b| {
            readout
                .pairs()
                .iter()
                .position(|(_, projector)| projector.matrix().get(b, b).re > 0.5)
                .expect("a diagonal read-out's projectors partition the basis")
        })
        .collect();
    let mut probs = vec![0.0; readout.pairs().len()];
    for (i, a) in amps.iter().enumerate() {
        probs[pair_of_local[local_index(i, &masks)]] += a.re * a.re + a.im * a.im;
    }
    Some(probs)
}

/// One projective sample on an interleaved row: the cumulative Born-rule
/// walk over the pairs, reading [`readout_probabilities_aos`] on the
/// diagonal path and each projector's `expectation_amps` otherwise.
fn sample_with_draw_aos(readout: &ProjectiveObservable, u: f64, total: f64, amps: &[C64]) -> f64 {
    let probs = readout_probabilities_aos(readout, amps);
    let mut r = u * total;
    for (k, (eigenvalue, projector)) in readout.pairs().iter().enumerate() {
        r -= match &probs {
            Some(p) => p[k],
            None => projector.expectation_amps(amps),
        };
        if r <= 0.0 {
            return *eigenvalue;
        }
    }
    readout.pairs().last().map(|(l, _)| *l).unwrap_or(0.0)
}

/// `collapse_with_draw` re-transcribed on interleaved amplitudes through
/// the AoS transcriptions above: identical selection walk, identical
/// rescale and renormalization arithmetic, identical slack fallback.
fn collapse_with_draw_aos(
    u: f64,
    n: usize,
    amps: &[C64],
    meas: &Measurement,
) -> (usize, Vec<C64>) {
    let total = norm_sqr_aos(amps);
    assert!(total > 1e-300, "cannot measure a zero-norm state");
    let probs = branch_probabilities_aos(n, amps, meas);
    let mut r: f64 = u * total;
    for (outcome, &p) in probs.iter().enumerate() {
        r -= p;
        if r <= 0.0 {
            let mut out = collapse_aos(n, amps, meas, outcome);
            if p > 0.0 {
                scale_aos(&mut out, C64::real((total / p).sqrt().min(1e150)));
                let norm = norm_sqr_aos(&out).sqrt();
                if norm > 0.0 {
                    scale_aos(&mut out, C64::real(total.sqrt() / norm));
                }
            }
            return (outcome, out);
        }
    }
    let outcome = (0..probs.len())
        .rev()
        .find(|&m| probs[m] > 0.0)
        .expect("no branch has support");
    let mut out = collapse_aos(n, amps, meas, outcome);
    let norm = norm_sqr_aos(&out).sqrt();
    if norm > 0.0 {
        scale_aos(&mut out, C64::real(total.sqrt() / norm));
    }
    (outcome, out)
}

// ---------------------------------------------------------------------------
// Random branching programs with an AoS mirror for independent replay.
// ---------------------------------------------------------------------------

/// One gate of a mirror program.
#[derive(Clone)]
struct MirrorGate {
    matrix: Matrix,
    targets: Vec<usize>,
}

/// The mirror of a `TrajProgram`: the same ops, held where the test can
/// walk them (arm bodies are flat gate lists, so replay needs no
/// continuation stack).
enum MirrorOp {
    Gate(MirrorGate),
    /// `q := |0⟩`: measure computationally, flip with `X` on outcome 1.
    Init(usize),
    Case {
        meas: Measurement,
        arms: Vec<Vec<MirrorGate>>,
    },
}

fn random_gate(n: usize, rng: &mut u64) -> MirrorGate {
    let q = (lcg(rng) as usize) % n;
    let theta = std::f64::consts::PI * signed_unit(rng);
    match lcg(rng) % 6 {
        0 => MirrorGate { matrix: Matrix::hadamard(), targets: vec![q] },
        1 => MirrorGate { matrix: Matrix::rotation_x(theta), targets: vec![q] },
        2 => MirrorGate { matrix: Matrix::rotation_y(theta), targets: vec![q] },
        3 => MirrorGate { matrix: Matrix::rotation_z(theta), targets: vec![q] },
        4 if n >= 2 => {
            let mut c = (lcg(rng) as usize) % n;
            if c == q {
                c = (c + 1) % n;
            }
            MirrorGate { matrix: Matrix::cnot(), targets: vec![c, q] }
        }
        _ => MirrorGate { matrix: Matrix::pauli_x(), targets: vec![q] },
    }
}

/// A random 1-qubit measurement: computational, or a rotated two-outcome
/// general measurement `Mk = Pk · R†` (complete: `Σ Mk†Mk = R·I·R† = I`),
/// which forces the general operator-application probability path.
fn random_meas(n: usize, rng: &mut u64) -> Measurement {
    let q = (lcg(rng) as usize) % n;
    if lcg(rng).is_multiple_of(2) {
        Measurement::computational(vec![q])
    } else {
        let r = Matrix::rotation_y(std::f64::consts::PI * signed_unit(rng));
        let rd = r.dagger();
        let m0 = Matrix::basis_projector(2, 0).mul(&rd);
        let m1 = Matrix::basis_projector(2, 1).mul(&rd);
        Measurement::two_outcome(m0, m1, vec![q])
    }
}

/// Builds a random branching program and its mirror: gates, `case` forks
/// with per-arm gate bodies, and `q := |0⟩` resets — the outcome-multiset
/// shapes the derivative lowering produces.
fn random_program(n: usize, len: usize, rng: &mut u64) -> (TrajProgram, Vec<MirrorOp>) {
    let mut prog = TrajProgram::new();
    let mut mirror = Vec::new();
    for _ in 0..len {
        match lcg(rng) % 8 {
            0..=4 => {
                let g = random_gate(n, rng);
                prog.push_gate(g.matrix.clone(), g.targets.clone());
                mirror.push(MirrorOp::Gate(g));
            }
            5 => {
                let q = (lcg(rng) as usize) % n;
                prog.push_init(q);
                mirror.push(MirrorOp::Init(q));
            }
            _ => {
                let meas = random_meas(n, rng);
                let arms: Vec<Vec<MirrorGate>> = (0..meas.num_outcomes())
                    .map(|_| {
                        (0..lcg(rng) % 3).map(|_| random_gate(n, rng)).collect()
                    })
                    .collect();
                let traj_arms: Vec<TrajProgram> = arms
                    .iter()
                    .map(|body| {
                        let mut arm = TrajProgram::new();
                        for g in body {
                            arm.push_gate(g.matrix.clone(), g.targets.clone());
                        }
                        arm
                    })
                    .collect();
                prog.push_case(meas.clone(), traj_arms);
                mirror.push(MirrorOp::Case { meas, arms });
            }
        }
    }
    (prog, mirror)
}

/// Serial AoS replay of one sampled trajectory: the reference scan
/// for every gate, [`collapse_with_draw_aos`] for every measurement,
/// drawing from the same per-row stream the engine uses.
fn replay_sampled_aos(
    n: usize,
    input: &[C64],
    mirror: &[MirrorOp],
    sampler: &mut ShotSampler,
) -> (Vec<C64>, Vec<usize>) {
    let mut amps = input.to_vec();
    let mut outcomes = Vec::new();
    for op in mirror {
        match op {
            MirrorOp::Gate(g) => apply_matrix_reference(&mut amps, n, &g.matrix, &g.targets),
            MirrorOp::Init(q) => {
                let meas = Measurement::computational(vec![*q]);
                let (outcome, collapsed) =
                    collapse_with_draw_aos(sampler.next_uniform(), n, &amps, &meas);
                amps = collapsed;
                outcomes.push(outcome);
                if outcome == 1 {
                    apply_matrix_reference(&mut amps, n, &Matrix::pauli_x(), &[*q]);
                }
            }
            MirrorOp::Case { meas, arms } => {
                let (outcome, collapsed) =
                    collapse_with_draw_aos(sampler.next_uniform(), n, &amps, meas);
                amps = collapsed;
                outcomes.push(outcome);
                for g in &arms[outcome] {
                    apply_matrix_reference(&mut amps, n, &g.matrix, &g.targets);
                }
            }
        }
    }
    (amps, outcomes)
}

/// Serial AoS branch enumeration of the **exact** weighted sweep: every
/// measurement forks into all outcomes with the weights riding in the
/// (un-rescaled) collapsed amplitudes, branches at weight ≤
/// [`BRANCH_PRUNE`] are dropped, and each surviving leaf contributes
/// `⟨ψleaf|O|ψleaf⟩` through the AoS expectation oracle.
fn enumerate_exact_aos(n: usize, amps: &[C64], mirror: &[MirrorOp], obs: &Observable) -> f64 {
    fn walk(n: usize, amps: Vec<C64>, ops: &[MirrorOp], obs: &Observable) -> f64 {
        match ops.first() {
            None => obs.expectation_amps(&amps),
            Some(MirrorOp::Gate(g)) => {
                let mut amps = amps;
                apply_matrix_reference(&mut amps, n, &g.matrix, &g.targets);
                walk(n, amps, &ops[1..], obs)
            }
            Some(MirrorOp::Init(q)) => {
                let meas = Measurement::computational(vec![*q]);
                let mut sum = 0.0;
                for outcome in 0..meas.num_outcomes() {
                    let mut branch = collapse_aos(n, &amps, &meas, outcome);
                    if norm_sqr_aos(&branch) <= BRANCH_PRUNE {
                        continue;
                    }
                    if outcome == 1 {
                        apply_matrix_reference(&mut branch, n, &Matrix::pauli_x(), &[*q]);
                    }
                    sum += walk(n, branch, &ops[1..], obs);
                }
                sum
            }
            Some(MirrorOp::Case { meas, arms }) => {
                let mut sum = 0.0;
                for (outcome, arm) in arms.iter().enumerate() {
                    let mut branch = collapse_aos(n, &amps, meas, outcome);
                    if norm_sqr_aos(&branch) <= BRANCH_PRUNE {
                        continue;
                    }
                    for g in arm {
                        apply_matrix_reference(&mut branch, n, &g.matrix, &g.targets);
                    }
                    sum += walk(n, branch, &ops[1..], obs);
                }
                sum
            }
        }
    }
    walk(n, amps.to_vec(), mirror, obs)
}

// ---------------------------------------------------------------------------
// 1. Per-row measurement paths: single-row forms (blocks of one) vs the
//    AoS transcriptions, bitwise.
// ---------------------------------------------------------------------------

#[test]
fn per_row_measurement_paths_match_aos_oracle_bitwise() {
    let mut rng = 0x1517_u64;
    for n in [1usize, 2, 4, 5, 8] {
        for case in 0..4 {
            let amps = random_state(n, &mut rng);
            let psi = StateVector::from_amplitudes(n, amps.clone());

            let mut measurements = vec![Measurement::computational(vec![
                (lcg(&mut rng) as usize) % n,
            ])];
            if n >= 2 {
                let q0 = (lcg(&mut rng) as usize) % n;
                let q1 = (q0 + 1 + (lcg(&mut rng) as usize) % (n - 1)) % n;
                measurements.push(Measurement::computational(vec![q0, q1]));
            }
            measurements.push(random_meas(n, &mut rng));

            for meas in &measurements {
                // Probabilities: the single-row form (the block form on a
                // block of one) vs the AoS transcription. Row independence
                // of multi-row blocks is pinned in
                // `block_measurement_differential.rs`.
                let p_aos = branch_probabilities_aos(n, &amps, meas);
                let p_pure = meas.branch_probabilities_pure(&psi);
                assert_eq!(bits(&p_pure), bits(&p_aos), "n={n} case={case}");

                // Collapse: the single-row form vs the AoS transcription. A general operator reaches it through the
                // reference scan, whose `+0.0`-seeded accumulation turns
                // the plane kernels' `-0.0` into `+0.0` where `Mk` has a
                // zero row (the `P0·R†` shape): those collapses compare up
                // to the sign of zero. Computational collapses (a masked
                // copy on both sides) stay sign-exact.
                let oracle_view = |bits: Vec<(u64, u64)>| {
                    if is_general(meas) {
                        canon_zero(bits)
                    } else {
                        bits
                    }
                };
                for outcome in 0..meas.num_outcomes() {
                    let aos = collapse_aos(n, &amps, meas, outcome);
                    let collapsed = meas.collapse_pure(&psi, outcome);
                    let (cre, cim) = collapsed.planes();
                    assert_eq!(
                        oracle_view(plane_bits(cre, cim)),
                        oracle_view(amp_bits(&aos)),
                        "collapse n={n} case={case} outcome={outcome}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Expectations: plane form vs AoS oracle form, bitwise.
// ---------------------------------------------------------------------------

#[test]
fn expectation_planes_matches_aos_oracle_bitwise() {
    let mut rng = 0x2329_u64;
    for n in [1usize, 2, 4, 5, 8] {
        let q = (lcg(&mut rng) as usize) % n;
        let r = Matrix::rotation_y(std::f64::consts::PI * signed_unit(&mut rng));
        let rotated_z = r.mul(&Matrix::pauli_z()).mul(&r.dagger());
        let observables = [
            Observable::pauli_z(n, q),
            Observable::projector_one(n, q),
            Observable::new(n, vec![q], rotated_z),
        ];
        for case in 0..4 {
            let amps = random_state(n, &mut rng);
            let psi = StateVector::from_amplitudes(n, amps.clone());
            let (re, im) = psi.planes();
            for obs in &observables {
                let via_pure = obs.expectation_pure(&psi);
                let via_planes = obs.expectation_planes(re, im);
                let via_amps = obs.expectation_amps(&amps);
                assert_eq!(via_pure.to_bits(), via_amps.to_bits(), "n={n} case={case}");
                assert_eq!(via_planes.to_bits(), via_amps.to_bits(), "n={n} case={case}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Projective read-out: block probabilities and single-row draws vs the
//    AoS transcriptions, bitwise.
// ---------------------------------------------------------------------------

#[test]
fn readout_probabilities_and_draws_match_aos_bitwise() {
    let mut rng = 0x3147_u64;
    for n in [2usize, 3, 4, 8] {
        let q = (lcg(&mut rng) as usize) % n;
        // `Z ⊗ |1⟩⟨1|` on the ancilla and one target: two targets, three
        // pairs, so the walk maps several local indices to one pair.
        let observables = [
            Observable::pauli_z(n, q),
            Observable::projector_one(n, q),
            Observable::projector_one(n - 1, q % (n - 1)).with_ancilla_z(),
        ];
        for (obs, case) in observables.iter().flat_map(|o| (0..4).map(move |c| (o, c))) {
            // `new` takes the diagonal fast path; `general` the reference
            // expectation path — both must agree across layouts.
            for readout in [ProjectiveObservable::new(obs), ProjectiveObservable::general(obs)] {
                let amps = random_state(n, &mut rng);
                let psi = StateVector::from_amplitudes(n, amps.clone());
                let (re, im) = psi.planes();

                let mut p_planes = Vec::new();
                let diagonal = readout.row_probabilities_block(re, im, 1, &mut p_planes);
                match readout_probabilities_aos(&readout, &amps) {
                    Some(p_aos) => {
                        assert!(diagonal, "n={n} q={q} case={case}");
                        assert_eq!(bits(&p_planes), bits(&p_aos), "n={n} q={q} case={case}");
                    }
                    None => assert!(!diagonal, "n={n} q={q} case={case}"),
                }

                let total = norm_sqr_aos(&amps);
                assert_eq!(total.to_bits(), psi.norm_sqr().to_bits(), "n={n} q={q} case={case}");
                for step in 0..=20 {
                    let u = step as f64 / 20.0;
                    let via_aos = sample_with_draw_aos(&readout, u, total, &amps);
                    let via_planes = readout.sample_with_draw_planes(u, total, re, im);
                    assert_eq!(
                        via_planes.to_bits(),
                        via_aos.to_bits(),
                        "n={n} q={q} case={case} u={u}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Exact weighted sweep: thread-count and batch-composition invariance
//    (bitwise), and agreement with independent per-row AoS enumeration.
// ---------------------------------------------------------------------------

#[test]
fn exact_sweep_invariant_across_threads_and_batches_and_matches_aos_enumeration() {
    let _guard = serialized();
    let mut rng = 0x4717_u64;
    // The 10-qubit case's largest batches pass `qdp_par::FORK_MIN_WORK`
    // (33 rows × 2^10 amplitudes × ≥ 8 ops), so its 2- and 8-thread legs
    // run the row-tiled fan-out.
    for (n, len) in [(2usize, 6usize), (4, 8), (5, 8), (8, 6), (10, 8)] {
        let (prog, mirror) = random_program(n, len, &mut rng);
        let engine = ShotEngine::new(prog);
        let obs = Observable::pauli_z(n, (lcg(&mut rng) as usize) % n);

        let rows: Vec<Vec<C64>> = (0..*BATCH_SIZES.iter().max().expect("non-empty"))
            .map(|_| random_state(n, &mut rng))
            .collect();

        // Pin from the largest batch so every smaller batch is a prefix.
        let mut pinned: Option<Vec<u64>> = None;
        for &batch in BATCH_SIZES.iter().rev() {
            let states: Vec<StateVector> = rows[..batch]
                .iter()
                .map(|amps| StateVector::from_amplitudes(n, amps.clone()))
                .collect();
            for &threads in &THREAD_COUNTS {
                qdp_par::set_max_threads(threads);
                let out = engine.expectation_sweep(BatchedStates::from_states(&states), &obs).unwrap();
                qdp_par::set_max_threads(0);
                assert_eq!(out.len(), batch);
                // Row r's bits must not depend on thread count or on which
                // batch it rides in.
                let out_bits = bits(&out);
                match &pinned {
                    Some(first) => assert_eq!(
                        out_bits,
                        first[..batch],
                        "n={n} batch={batch} threads={threads}"
                    ),
                    None => pinned = Some(out_bits.clone()),
                }
            }
        }

        // Independent per-row AoS enumeration agrees to well below 1e-12
        // (the sweep fuses 1q gates, which only moves rounding).
        let pinned = pinned.expect("at least one batch ran");
        for (r, amps) in rows.iter().enumerate() {
            let reference = enumerate_exact_aos(n, amps, &mirror, &obs);
            let got = f64::from_bits(pinned[r]);
            assert!(
                (got - reference).abs() <= 1e-12,
                "n={n} row={r}: sweep {got} vs AoS enumeration {reference}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Sampled batched executor vs fully serial AoS replay, bitwise.
// ---------------------------------------------------------------------------

#[test]
fn sampled_run_matches_serial_aos_replay_bitwise() {
    let _guard = serialized();
    let mut rng = 0x5923_u64;
    for (n, len, seed) in [(2usize, 6usize, 11u64), (4, 8, 13), (5, 8, 17), (8, 6, 19)] {
        let (prog, mirror) = random_program(n, len, &mut rng);
        let engine = ShotEngine::new(prog);

        let rows: Vec<Vec<C64>> = (0..*BATCH_SIZES.iter().max().expect("non-empty"))
            .map(|_| random_state(n, &mut rng))
            .collect();

        for &batch in &BATCH_SIZES {
            let states: Vec<StateVector> = rows[..batch]
                .iter()
                .map(|amps| StateVector::from_amplitudes(n, amps.clone()))
                .collect();
            for &threads in &THREAD_COUNTS {
                qdp_par::set_max_threads(threads);
                let streams: Vec<ShotStream> =
                    (0..batch as u64).map(|index| ShotStream { seed, index }).collect();
                let out = engine
                    .run(BatchedStates::from_states(&states), &vec![1; batch], &streams)
                    .unwrap();
                qdp_par::set_max_threads(0);
                assert_eq!(out.len(), batch);

                for (r, row) in out.iter().enumerate() {
                    let mut replay_sampler = ShotSampler::derived(seed, r as u64);
                    let (want_amps, want_outcomes) =
                        replay_sampled_aos(n, &rows[r], &mirror, &mut replay_sampler);
                    assert_eq!(
                        row.outcomes, want_outcomes,
                        "n={n} batch={batch} threads={threads} row={r}"
                    );
                    let state = row
                        .state
                        .as_ref()
                        .expect("no aborts in generated programs");
                    let (sre, sim) = state.planes();
                    assert_eq!(
                        plane_bits(sre, sim),
                        amp_bits(&want_amps),
                        "n={n} batch={batch} threads={threads} row={r}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 6. Signed zeros: the projector collapse writes `re·0.0` / `im·0.0` into
//    non-members, so negative components leave −0.0 — identical bits in
//    both layouts.
// ---------------------------------------------------------------------------

#[test]
fn collapse_preserves_signed_zero_bits_across_layouts() {
    let n = 2;
    let amps = vec![
        C64::new(-0.5, 0.5),
        C64::new(0.5, -0.5),
        C64::new(-0.5, -0.5),
        C64::new(0.5, 0.5),
    ];
    let psi = StateVector::from_amplitudes(n, amps.clone());
    let meas = Measurement::computational(vec![0]);

    for outcome in 0..2 {
        let collapsed = meas.collapse_pure(&psi, outcome);
        let aos = collapse_aos(n, &amps, &meas, outcome);

        let (cre, cim) = collapsed.planes();
        assert_eq!(plane_bits(cre, cim), amp_bits(&aos), "outcome={outcome}");

        // Each outcome zeroes two amplitudes with a negative component:
        // the planes must carry actual −0.0 bits, not +0.0.
        let neg_zeros = cre
            .iter()
            .chain(cim.iter())
            .filter(|x| **x == 0.0 && x.is_sign_negative())
            .count();
        assert!(
            neg_zeros >= 2,
            "outcome={outcome}: expected −0.0 non-members, planes {cre:?} / {cim:?}"
        );

        // And a full draw-collapse round-trip (rescale included) keeps the
        // layouts bit-identical on this signed-zero-heavy state.
        let (sel_plane, state) = qdp_sim::collapse_with_draw(0.3, &psi, &meas);
        let (sel_aos, replay) = collapse_with_draw_aos(0.3, n, &amps, &meas);
        assert_eq!(sel_plane, sel_aos);
        let (rre, rim) = state.planes();
        assert_eq!(plane_bits(rre, rim), amp_bits(&replay));
    }
}

// ---------------------------------------------------------------------------
// 7. Explicit SIMD tiers (`qdp_sim::simd`) vs the scalar plane kernels vs
//    the reference scan — bitwise, across every dispatch class (dense 1q,
//    diagonal, block-diagonal, 2q/kq dense), every orbit shape (the short
//    orbits `mask = 1 … 16` at both widths, top-bit split, interior strides,
//    scalar short-run cases), and forced 1 / 2 / 8 worker threads.
// ---------------------------------------------------------------------------

use qdp_sim::simd::{self, SimdTier};

/// Runs `f` with the SIMD tier capped at `cap`, restoring the previous cap
/// afterwards. Callers hold the [`serialized`] guard: the cap is process
/// state, like the thread override.
fn with_tier_cap<T>(cap: SimdTier, f: impl FnOnce() -> T) -> T {
    let prev = simd::tier_cap();
    simd::set_tier_cap(cap);
    let out = f();
    simd::set_tier_cap(prev);
    out
}

/// The vector tiers this machine can actually run. May be empty on hosts
/// without AVX2+FMA — the suite then degenerates to pinning the scalar
/// plane kernels against the reference scan, which still exercises the
/// dispatch plumbing end to end (that is exactly the CI baseline leg).
fn vector_tiers() -> Vec<SimdTier> {
    [SimdTier::Avx2, SimdTier::Avx512]
        .into_iter()
        .filter(|&t| t <= simd::detected_tier())
        .collect()
}

/// `[[a, 0], [0, b]]` — the block-diagonal 4×4 (`a` where the first
/// target is clear, `b` where it is set).
fn block_diag(a: &Matrix, b: &Matrix) -> Matrix {
    let mut m = Matrix::zeros(4, 4);
    for r in 0..2 {
        for c in 0..2 {
            m.set(r, c, a.get(r, c));
            m.set(2 + r, 2 + c, b.get(r, c));
        }
    }
    m
}

/// `[[I, 0], [0, u]]` — the block-diagonal (controlled-`u`) 4×4.
fn controlled(u: &Matrix) -> Matrix {
    block_diag(&Matrix::identity(2), u)
}

const TH: f64 = 0.7368;

/// Dense 2×2 with all eight components nonzero — the Full chain.
fn dense_full() -> Matrix {
    Matrix::rotation_z(1.1).mul(&Matrix::rotation_x(TH))
}

/// Every 1q dispatch class and chain on target `t`: dense Real, Cross and
/// Full, and the diagonal branches (complex, real, identity-kept phase,
/// real-and-complex mixed).
fn one_q_cases(t: usize) -> Vec<(&'static str, Matrix, Vec<usize>)> {
    vec![
        ("dense-real-h", Matrix::hadamard(), vec![t]),
        ("dense-cross-rx", Matrix::rotation_x(TH), vec![t]),
        ("dense-full", dense_full(), vec![t]),
        ("diag-complex-rz", Matrix::rotation_z(TH), vec![t]),
        ("diag-real", Matrix::diagonal(&[C64::real(0.6), C64::real(-0.8)]), vec![t]),
        ("diag-phase", Matrix::diagonal(&[C64::ONE, C64::new(TH.cos(), TH.sin())]), vec![t]),
        ("diag-mixed", Matrix::diagonal(&[C64::real(-0.8), C64::new(TH.cos(), TH.sin())]), vec![t]),
    ]
}

/// Block-diagonal and diagonal 2q gates with both masks short at every
/// tier (the lowest three qubits, both target orders): CNOT (Full chain,
/// identity block kept), controlled RX (Cross), controlled dense (Full),
/// two RX blocks (Cross, no identity block), CZ and a complex diagonal.
fn short_pair_cases(n: usize) -> Vec<(&'static str, Matrix, Vec<usize>)> {
    let rx2 = block_diag(&Matrix::rotation_x(0.3), &Matrix::rotation_x(TH));
    let cz = Matrix::diagonal(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE]);
    let phases: Vec<C64> = (0..4)
        .map(|k| C64::new((0.4 * k as f64).cos(), (0.4 * k as f64 + 0.1).sin()))
        .collect();
    let mut cases = Vec::new();
    for pair in [[n - 2, n - 1], [n - 1, n - 2], [n - 3, n - 1], [n - 1, n - 3]] {
        cases.push(("cnot-short", Matrix::cnot(), pair.to_vec()));
        cases.push(("ctrl-rx-short", controlled(&Matrix::rotation_x(TH)), pair.to_vec()));
        cases.push(("ctrl-full-short", controlled(&dense_full()), pair.to_vec()));
        cases.push(("blocks-rx-short", rx2.clone(), pair.to_vec()));
        cases.push(("diag2-cz-short", cz.clone(), pair.to_vec()));
        cases.push(("diag2-complex-short", Matrix::diagonal(&phases), pair.to_vec()));
    }
    cases
}

/// Gate × target cases covering every SIMD dispatch class and chain
/// variant on an `n`-qubit register: every 1q class on the short orbits
/// (targets `n-1 … n-5`, masks 1–16: short at AVX-512 up to 8, at AVX2 up
/// to 4), an interior and the top qubit, short-mask 2q pairs, long-control
/// and interior controlled gates, and the deliberately-scalar shapes
/// (short 2q/kq runs) so the dispatch boundaries themselves are pinned.
fn simd_gate_cases(n: usize) -> Vec<(&'static str, Matrix, Vec<usize>)> {
    let mut cases: Vec<(&'static str, Matrix, Vec<usize>)> = Vec::new();
    for t in [n - 1, n - 2, n - 3, n - 4, n - 5, n / 2, 0] {
        cases.extend(one_q_cases(t));
    }
    cases.extend(short_pair_cases(n));
    // Block-diagonal: short target under a long control (segment sweep),
    // cmask < tmask and cmask > tmask general shapes, real (CNOT) and
    // complex chains.
    cases.push(("cnot-tmask1", Matrix::cnot(), vec![0, n - 1]));
    cases.push(("cnot-tmask4", Matrix::cnot(), vec![1, n - 3]));
    cases.push(("cnot-cmask-lt-tmask", Matrix::cnot(), vec![n - 1, 0]));
    cases.push(("cnot-interior", Matrix::cnot(), vec![3, 7]));
    cases.push(("ctrl-rx-tmask1", controlled(&Matrix::rotation_x(TH)), vec![2, n - 1]));
    cases.push(("ctrl-full-interior", controlled(&dense_full()), vec![2, 8]));
    // Dense 2q: contiguous-run kernel (b_lo ≥ 2) and the short-run
    // scalar shape (b_lo < 2).
    cases.push((
        "2q-dense-rxx",
        Matrix::coupling_rotation(qdp_linalg::Pauli::X, TH),
        vec![3, 7],
    ));
    cases.push((
        "2q-dense-short-run",
        Matrix::coupling_rotation(qdp_linalg::Pauli::Y, TH),
        vec![n - 2, n - 1],
    ));
    // Dense k = 3: chunked-run kernel (bits[0] ≥ 2) and the short-run
    // scalar shape.
    let dense_3q = dense_full().kron(&Matrix::hadamard()).kron(&Matrix::rotation_x(0.3));
    cases.push(("3q-dense-runs", dense_3q.clone(), vec![2, 5, 9]));
    cases.push(("3q-dense-short-run", dense_3q, vec![2, 5, n - 1]));
    cases
}

/// Salts amplitudes with negative zeros in both components: the kernels'
/// leading `0.0 +` flush, the blends and the untouched-segment copies
/// must produce the same bits in every tier.
fn salt_signed_zeros(amps: &mut [C64]) {
    for i in (0..amps.len()).step_by(3) {
        amps[i] = C64::new(-0.0, amps[i].im);
    }
    for i in (1..amps.len()).step_by(5) {
        amps[i] = C64::new(amps[i].re, -0.0);
    }
    for i in (2..amps.len()).step_by(7) {
        amps[i] = C64::new(-0.0, -0.0);
    }
}

#[test]
fn simd_tiers_match_scalar_planes_and_aos_oracle_bitwise() {
    let _guard = serialized();
    // One qubit above the fork threshold, so the 2- and 8-thread legs run
    // the parallel splits.
    const N: usize = qdp_par::FORK_MIN_WORK.ilog2() as usize + 1;
    const { assert!(1 << N > qdp_par::FORK_MIN_WORK) };
    let n = N;
    let mut rng = 0x6121_u64;
    let amps = random_state(n, &mut rng);

    for (label, m, targets) in simd_gate_cases(n) {
        // Independent oracle: the reference scan. These operators on a
        // random state (no zero amplitudes) leave no zero outputs, so the
        // scan's `+0.0` seeding cannot show and the pin is exact.
        let mut oracle = amps.clone();
        apply_matrix_reference(&mut oracle, n, &m, &targets);
        let want = amp_bits(&oracle);

        // Scalar plane baseline (cap forces the portable fallback even
        // though this host may support wider tiers).
        let scalar_bits = with_tier_cap(SimdTier::Scalar, || {
            let mut psi = StateVector::from_amplitudes(n, amps.clone());
            psi.apply_gate(&m, &targets);
            let (re, im) = psi.planes();
            plane_bits(re, im)
        });
        assert_eq!(scalar_bits, want, "{label} {targets:?}: scalar planes vs reference scan");

        for tier in vector_tiers() {
            for &threads in &THREAD_COUNTS {
                qdp_par::set_max_threads(threads);
                let got = with_tier_cap(tier, || {
                    let mut psi = StateVector::from_amplitudes(n, amps.clone());
                    psi.apply_gate(&m, &targets);
                    let (re, im) = psi.planes();
                    plane_bits(re, im)
                });
                qdp_par::set_max_threads(0);
                assert_eq!(
                    got, scalar_bits,
                    "{label} {targets:?}: {tier:?} threads={threads} vs scalar planes"
                );
            }
        }
    }
}

/// `m` on `targets` of every row, through the batched planes at the
/// current tier cap.
fn batched_bits(states: &[StateVector], m: &Matrix, targets: &[usize]) -> Vec<(u64, u64)> {
    let mut batch = BatchedStates::from_states(states);
    batch.apply_gate(m, targets);
    let (re, im) = batch.planes();
    plane_bits(re, im)
}

/// The batched seam on P2's shapes — 16 rows of 4 and of 5 qubits, where
/// every gate lands on a short orbit — and on 10-qubit rows, with
/// signed-zero salting: every vector tier and thread count against the
/// scalar planes, and the scalar planes against each row's reference scan
/// (up to the sign of zero, which the scan's `+0.0` seeding drops).
#[test]
fn simd_tiers_match_scalar_on_batched_rows_bitwise() {
    let _guard = serialized();
    for n in [4usize, 5, 10] {
        let mut rng = 0x6367_u64 + n as u64;
        let rows: Vec<Vec<C64>> = (0..16)
            .map(|_| {
                let mut amps = random_state(n, &mut rng);
                salt_signed_zeros(&mut amps);
                amps
            })
            .collect();
        let states: Vec<StateVector> = rows
            .iter()
            .map(|amps| StateVector::from_amplitudes(n, amps.clone()))
            .collect();

        let gates: Vec<(&str, Matrix, Vec<usize>)> = if n < 10 {
            let mut gates: Vec<_> = (0..n).flat_map(one_q_cases).collect();
            gates.extend(short_pair_cases(n));
            gates
        } else {
            vec![
                ("h-mask1", Matrix::hadamard(), vec![n - 1]),
                ("rx-mid", Matrix::rotation_x(0.9), vec![4]),
                ("cnot", Matrix::cnot(), vec![1, n - 1]),
                ("rxx", Matrix::coupling_rotation(qdp_linalg::Pauli::X, 0.9), vec![2, 5]),
            ]
        };
        for (label, m, targets) in gates {
            let scalar_bits =
                with_tier_cap(SimdTier::Scalar, || batched_bits(&states, &m, &targets));
            let mut oracle = Vec::new();
            for amps in &rows {
                let mut row = amps.clone();
                apply_matrix_reference(&mut row, n, &m, &targets);
                oracle.extend(amp_bits(&row));
            }
            assert_eq!(
                canon_zero(scalar_bits.clone()),
                canon_zero(oracle),
                "{label} {targets:?} n={n}: scalar planes vs reference scan"
            );
            for tier in vector_tiers() {
                for &threads in &THREAD_COUNTS {
                    qdp_par::set_max_threads(threads);
                    let got = with_tier_cap(tier, || batched_bits(&states, &m, &targets));
                    qdp_par::set_max_threads(0);
                    let what = format!("{label} {targets:?} n={n}: {tier:?} threads={threads}");
                    assert_eq!(got, scalar_bits, "{what}");
                }
            }
        }
    }
}

/// The extent of the Cross caveat (see `qdp_sim::simd`): on rows salted
/// with NaN and ±inf, every short-orbit Cross kernel (RX on each low
/// qubit, controlled RX and two RX blocks on short pairs) may differ from
/// the scalar planes only in rows that hold a non-finite amplitude; every
/// finite row stays bitwise equal.
#[test]
fn simd_cross_divergence_stays_in_non_finite_rows() {
    let _guard = serialized();
    let n = 5;
    let dim = 1usize << n;
    let mut rng = 0x6A11_u64;
    let poisoned = [2usize, 9, 14];
    let states: Vec<StateVector> = (0..16)
        .map(|r| {
            let mut amps = random_state(n, &mut rng);
            if poisoned.contains(&r) {
                amps[r % dim] = C64::new(f64::NAN, amps[r % dim].im);
                amps[(r * 7 + 3) % dim] = C64::new(amps[0].re, f64::INFINITY);
                amps[(r * 5 + 1) % dim] = C64::new(f64::NEG_INFINITY, 0.25);
            }
            StateVector::from_amplitudes(n, amps)
        })
        .collect();
    let mut gates: Vec<(&str, Matrix, Vec<usize>)> =
        (0..n).map(|t| ("rx", Matrix::rotation_x(TH), vec![t])).collect();
    gates.extend(
        short_pair_cases(n)
            .into_iter()
            .filter(|(label, _, _)| *label == "ctrl-rx-short" || *label == "blocks-rx-short"),
    );
    let mut diverged = 0usize;
    for (label, m, targets) in gates {
        let scalar_bits = with_tier_cap(SimdTier::Scalar, || batched_bits(&states, &m, &targets));
        for tier in vector_tiers() {
            let got = with_tier_cap(tier, || batched_bits(&states, &m, &targets));
            for (r, (want, got)) in scalar_bits.chunks(dim).zip(got.chunks(dim)).enumerate() {
                if poisoned.contains(&r) {
                    diverged += usize::from(want != got);
                } else {
                    assert_eq!(got, want, "{label} {targets:?}: {tier:?} finite row {r} diverged");
                }
            }
        }
    }
    if !vector_tiers().is_empty() {
        // Guard the guard: the salting does reach the reduced chain.
        assert!(diverged > 0, "expected the Cross chain to differ on a poisoned row");
    }
}

#[test]
fn simd_kernels_preserve_signed_zero_bits() {
    let _guard = serialized();
    let n = 10;
    let mut rng = 0x6521_u64;
    let mut amps = random_state(n, &mut rng);
    salt_signed_zeros(&mut amps);

    let th = TH;
    let cases: [(&str, Matrix, Vec<usize>); 5] = [
        ("dense-full-mask1", Matrix::rotation_z(1.1).mul(&Matrix::rotation_x(th)), vec![n - 1]),
        ("dense-cross-mask1", Matrix::rotation_x(th), vec![n - 1]),
        ("dense-real-mid", Matrix::hadamard(), vec![4]),
        // CNOT: the control-clear half is never touched — its −0.0 bits
        // must ride through the masked copy unchanged.
        ("cnot-tmask1", Matrix::cnot(), vec![0, n - 1]),
        ("ctrl-rx-interior", controlled(&Matrix::rotation_x(th)), vec![1, 5]),
    ];
    for (label, m, targets) in cases {
        let scalar_bits = with_tier_cap(SimdTier::Scalar, || {
            let mut psi = StateVector::from_amplitudes(n, amps.clone());
            psi.apply_gate(&m, &targets);
            let (re, im) = psi.planes();
            plane_bits(re, im)
        });
        for tier in vector_tiers() {
            let got = with_tier_cap(tier, || {
                let mut psi = StateVector::from_amplitudes(n, amps.clone());
                psi.apply_gate(&m, &targets);
                let (re, im) = psi.planes();
                plane_bits(re, im)
            });
            assert_eq!(got, scalar_bits, "{label}: {tier:?} vs scalar, signed-zero state");
        }
        if label == "cnot-tmask1" {
            // Guard the guard: the untouched half really does carry −0.0.
            let kept = scalar_bits
                .iter()
                .filter(|(r, i)| *r == (-0.0f64).to_bits() || *i == (-0.0f64).to_bits())
                .count();
            assert!(kept > 0, "expected surviving −0.0 bits in the untouched half");
        }
    }
}

#[test]
fn simd_lane_reductions_match_scalar_bitwise() {
    let _guard = serialized();
    let n = 14; // long enough for the vector accumulator threshold
    let mut rng = 0x6733_u64;
    let amps = random_state(n, &mut rng);
    let psi = StateVector::from_amplitudes(n, amps);
    let (re, im) = psi.planes();

    let measurements = [
        Measurement::computational(vec![3]),
        Measurement::computational(vec![0, 7]),
        Measurement::computational(vec![n - 1]),
    ];
    let obs = Observable::pauli_z(n, 5);

    let scalar = with_tier_cap(SimdTier::Scalar, || {
        let mut probs = Vec::new();
        let mut all = vec![psi.norm_sqr(), obs.expectation_planes(re, im)];
        for meas in &measurements {
            let mut p = Vec::new();
            meas.branch_probabilities_block(n, re, im, &mut p);
            probs.append(&mut p);
        }
        all.append(&mut probs);
        bits(&all)
    });
    for tier in vector_tiers() {
        for &threads in &THREAD_COUNTS {
            qdp_par::set_max_threads(threads);
            let got = with_tier_cap(tier, || {
                let mut probs = Vec::new();
                let mut all = vec![psi.norm_sqr(), obs.expectation_planes(re, im)];
                for meas in &measurements {
                    let mut p = Vec::new();
                    meas.branch_probabilities_block(n, re, im, &mut p);
                    probs.append(&mut p);
                }
                all.append(&mut probs);
                bits(&all)
            });
            qdp_par::set_max_threads(0);
            assert_eq!(got, scalar, "lane reductions: {tier:?} threads={threads}");
        }
    }
}

#[test]
fn tier_capping_controls_active_dispatch() {
    let _guard = serialized();
    let prev = simd::tier_cap();
    simd::set_tier_cap(SimdTier::Scalar);
    assert_eq!(simd::active_tier(), SimdTier::Scalar, "scalar cap must mask all tiers");
    simd::set_tier_cap(SimdTier::Avx2);
    assert!(simd::active_tier() <= SimdTier::Avx2, "cap bounds the active tier");
    simd::set_tier_cap(SimdTier::Avx512);
    assert_eq!(
        simd::active_tier(),
        simd::detected_tier(),
        "an uncapping cap restores full detection"
    );
    simd::set_tier_cap(prev);
}
