//! Shot-based sampling of measurements and observables.
//!
//! Section 7 of the paper analyses the *execution* of the differentiation
//! procedure: expectations `tr(Oρ)` are estimated by repeated projective
//! measurement, with `O(1/δ²)` repetitions for additive error `δ` (Chernoff
//! bound). This module provides that statistical layer over the exact
//! simulator.
//!
//! The randomness is organised around two primitives shared by every shot
//! path in the workspace:
//!
//! * [`collapse_with_draw`] — the Born-rule branch selection and collapse
//!   for one pre-drawn uniform variate. [`ShotSampler::measure`] and the
//!   batched [`crate::ShotEngine`] both call it, so a batched sweep and a
//!   serial per-shot loop driven by the same stream produce **bit-identical**
//!   outcomes and collapsed states.
//! * [`derive_seed`] — the stream-derivation contract: shot `s` of a run
//!   seeded with `seed` draws from `ShotSampler::derived(seed, s)`. Because
//!   each shot owns an independent stream, work can be tiled across threads
//!   in any way without changing a single drawn value.

use crate::measurement::Measurement;
use crate::observable::Observable;
use crate::state::StateVector;
use qdp_linalg::C64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shot budget the paper's Chernoff analysis prescribes for estimating a
/// sum of `m` bounded (`-I ⊑ O ⊑ I`) program read-outs to additive
/// precision `delta` — Section 7's `O(m²/δ²)`, with the constant pinned to
/// `⌈m²/δ²⌉` (one shot estimates a single read-out to `δ = 1`).
///
/// This is the **single** definition in the workspace;
/// `qdp_ad::estimator::chernoff_shots` re-exports it.
///
/// # Panics
///
/// Panics when `delta` is not finite and positive — the panicking wrapper
/// of [`try_chernoff_shots`].
pub fn chernoff_shots(m: usize, delta: f64) -> usize {
    match try_chernoff_shots(m, delta) {
        Ok(shots) => shots,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`chernoff_shots`]: rejects a precision `delta` that is
/// not finite and positive (a non-finite δ would silently yield a zero or
/// nonsensical shot budget), **or so small that the budget `⌈(m/δ)²⌉` has
/// no `usize` representation**, with a typed
/// [`QdpError::InvalidPrecision`](crate::error::QdpError::InvalidPrecision).
pub fn try_chernoff_shots(m: usize, delta: f64) -> Result<usize, crate::error::QdpError> {
    if !delta.is_finite() || delta <= 0.0 {
        return Err(crate::error::QdpError::InvalidPrecision {
            value: delta,
            what: "precision",
        });
    }
    let m = m.max(1) as f64;
    let budget = ((m * m) / (delta * delta)).ceil();
    // An `as usize` cast of an oversized float silently saturates: a δ of,
    // say, 1e-200 would quietly clamp the budget to usize::MAX instead of
    // reporting that the requested precision is unsatisfiable. `>=` also
    // rejects the infinite budget a subnormal δ produces when δ²
    // underflows to zero (budget is never NaN: m ≥ 1 and δ is finite
    // positive, so the quotient is positive or +∞).
    if budget >= usize::MAX as f64 {
        return Err(crate::error::QdpError::InvalidPrecision {
            value: delta,
            what: "precision",
        });
    }
    Ok(budget as usize)
}

/// Derives the seed of stream `stream` of a run seeded with `seed` — a
/// SplitMix64 finalizer over `seed + (stream+1)·γ`, the standard recipe for
/// decorrelating enumerated substreams of one master seed.
///
/// This is the workspace-wide determinism contract for parallel shot
/// execution: shot `s` always draws from `ShotSampler::derived(seed, s)`,
/// no matter which thread or tile runs it.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Performs one Born-rule shot of `measurement` on a normalised pure state
/// for a **pre-drawn** uniform variate `u ∈ [0, 1)`: returns the sampled
/// outcome and the collapsed, renormalised state.
///
/// This is the deterministic core of [`ShotSampler::measure`], factored out
/// so batched executors that manage their own per-row streams perform the
/// *identical* floating-point selection and collapse arithmetic.
///
/// # Selected-branch collapse
///
/// Branch **probabilities are computed first**
/// ([`Measurement::branch_probabilities_pure`] — for computational
/// measurements one bucketed `|amp|²` pass, no operator applications) and
/// only the drawn outcome is materialised
/// ([`Measurement::collapse_pure`]), instead of building every branch via
/// `branches_pure` and discarding all but one. The probabilities and the
/// selected state carry the identical bits the `branches_pure` path
/// produces (signed zeros of the projector kernel included), so the
/// selection walk, the rescaling, and therefore every drawn trajectory in
/// the workspace are unchanged bit for bit — `branches_pure` stays as the
/// reference oracle the equivalence tests pin this against.
///
/// # Panics
///
/// Panics if the state has (numerically) zero norm.
pub fn collapse_with_draw(
    u: f64,
    psi: &StateVector,
    measurement: &Measurement,
) -> (usize, StateVector) {
    let total = psi.norm_sqr();
    assert!(total > 1e-300, "cannot measure a zero-norm state");
    let probs = measurement.branch_probabilities_pure(psi);
    let mut r: f64 = u * total;
    for (outcome, &p) in probs.iter().enumerate() {
        r -= p;
        if r <= 0.0 {
            let mut state = measurement.collapse_pure(psi, outcome);
            if p > 0.0 {
                state.scale(C64::real((total / p).sqrt().min(1e150)));
                // Renormalise to the parent state's norm.
                let norm = state.norm_sqr().sqrt();
                if norm > 0.0 {
                    state.scale(C64::real(total.sqrt() / norm));
                }
            }
            return (outcome, state);
        }
    }
    // Floating-point slack: fall back to the last branch with support.
    // Infallible: the walk only falls through when `total > 0`, so at
    // least one branch probability is positive.
    #[allow(clippy::expect_used)]
    let outcome = (0..probs.len())
        .rev()
        .find(|&m| probs[m] > 0.0)
        .expect("no branch has support");
    let mut state = measurement.collapse_pure(psi, outcome);
    let norm = state.norm_sqr().sqrt();
    if norm > 0.0 {
        state.scale(C64::real(total.sqrt() / norm));
    }
    (outcome, state)
}

/// The precomputed layout of a **diagonal** observable's read-out: which
/// spectral pair each computational-basis state belongs to, plus the
/// full-index target masks — everything one bucketed `|amp|²` pass needs.
#[derive(Clone, Debug)]
struct DiagonalReadout {
    /// Full-index bit of each target, in target order (first target most
    /// significant in the local index).
    masks: Vec<usize>,
    /// `pair_of_local[b]` = index into `pairs` of the projector containing
    /// local basis state `b`.
    pair_of_local: Vec<usize>,
}

/// An observable's spectral measurement `{(λm, Pm)}` hoisted for repeated
/// sampling: the eigendecomposition runs **once** and each projector is
/// wrapped as an [`Observable`] whose expectation fast path can be replayed
/// against arbitrarily many states (or batch rows) with zero per-shot
/// allocation.
///
/// **Diagonal fast path.** When the observable is diagonal in the
/// computational basis (`Z`-basis read-outs — `Z`, `|1⟩⟨1|`, every
/// `ZA ⊗ O` extension of a diagonal `O`: the common case of the paper's
/// pipeline), its projectors partition the basis states, so *all* pair
/// probabilities of a state come from **one bucketed `|amp|²` pass**
/// instead of one expectation pass per projector. Detection happens once at
/// construction; every sampling path (serial [`ShotSampler`] and the
/// batched `ShotEngine` read-out) routes through the same block sweep,
/// [`row_probabilities_block`](Self::row_probabilities_block) (a single
/// row is a block of one), so serial and batched draws can never drift
/// apart. [`ProjectiveObservable::general`] builds the same decomposition
/// with the fast path disabled — the reference the equivalence tests
/// compare against.
///
/// [`ShotSampler::sample_observable`] builds one per call; batched sweeps
/// build one per estimator invocation and share it across all shots.
#[derive(Clone, Debug)]
pub struct ProjectiveObservable {
    pairs: Vec<(f64, Observable)>,
    /// `Some` when the observable is diagonal and every projector cleanly
    /// partitions the basis states (see [`DiagonalReadout`]).
    diagonal: Option<DiagonalReadout>,
}

impl ProjectiveObservable {
    /// Decomposes `obs` into its `(eigenvalue, projector)` read-out pairs,
    /// detecting the diagonal fast path.
    pub fn new(obs: &Observable) -> Self {
        let mut out = ProjectiveObservable::general(obs);
        out.diagonal = out.detect_diagonal(obs);
        out
    }

    /// The same spectral decomposition with the diagonal fast path
    /// **disabled**: every probability goes through the per-projector
    /// expectation pass. This is the reference implementation the diagonal
    /// path is differentially tested against; production callers should use
    /// [`new`](Self::new).
    pub fn general(obs: &Observable) -> Self {
        ProjectiveObservable {
            pairs: obs
                .to_projective()
                .into_iter()
                .map(|(eigenvalue, projector)| {
                    (
                        eigenvalue,
                        Observable::new(obs.num_qubits(), obs.targets().to_vec(), projector),
                    )
                })
                .collect(),
            diagonal: None,
        }
    }

    /// Builds the [`DiagonalReadout`] when `obs` is diagonal in the
    /// computational basis and the spectral projectors partition the local
    /// basis states into clean 0/1 diagonal blocks; `None` otherwise.
    fn detect_diagonal(&self, obs: &Observable) -> Option<DiagonalReadout> {
        let m = obs.matrix();
        let dim = m.rows();
        for a in 0..dim {
            for b in 0..dim {
                if a != b && m.get(a, b) != C64::ZERO {
                    return None;
                }
            }
        }
        // Map each local basis state to the (single) projector containing
        // it. The projectors of a diagonal matrix are themselves diagonal
        // 0/1 matrices up to eigensolver round-off; anything murkier than a
        // clear 0-or-1 diagonal entry falls back to the general path.
        let mut pair_of_local = vec![usize::MAX; dim];
        for (k, (_, projector)) in self.pairs.iter().enumerate() {
            let p = projector.matrix();
            for (a, slot) in pair_of_local.iter_mut().enumerate() {
                for b in 0..dim {
                    let entry = p.get(a, b);
                    if a != b {
                        if entry.norm_sqr() > 1e-18 {
                            return None;
                        }
                        continue;
                    }
                    if entry.im.abs() > 1e-9 {
                        return None;
                    }
                    if entry.re > 0.5 {
                        if (entry.re - 1.0).abs() > 1e-9 || *slot != usize::MAX {
                            return None;
                        }
                        *slot = k;
                    } else if entry.re.abs() > 1e-9 {
                        return None;
                    }
                }
            }
        }
        if pair_of_local.contains(&usize::MAX) {
            return None;
        }
        let n = obs.num_qubits();
        Some(DiagonalReadout {
            masks: obs
                .targets()
                .iter()
                .map(|&t| 1usize << crate::kernels::qubit_bit(n, t))
                .collect(),
            pair_of_local,
        })
    }

    /// The `(eigenvalue, projector-observable)` pairs in eigenvalue order.
    pub fn pairs(&self) -> &[(f64, Observable)] {
        &self.pairs
    }

    /// Whether the diagonal fast path is engaged.
    pub fn is_diagonal(&self) -> bool {
        self.diagonal.is_some()
    }

    /// All pair probabilities of **every row** of a contiguous
    /// `rows × 2ⁿ` pair of split amplitude planes from **one bucketed
    /// `|amp|²` sweep**, or `false` (table untouched) when the observable
    /// is not diagonal: `table` is cleared and refilled with
    /// `rows × pairs` entries, row `r`'s probabilities at
    /// `table[r·pairs .. (r+1)·pairs]`.
    ///
    /// Each row's buckets accumulate serially in index order (unlike the
    /// measurement sweeps, no lane split: the `pair_of_local` indirection
    /// maps basis states to buckets arbitrarily, so there are no
    /// constant-outcome runs to exploit). A row's entries depend on that
    /// row alone, so batched and single-row read-outs select from
    /// bit-identical probabilities.
    ///
    /// # Panics
    ///
    /// Panics when the planes are not `rows` whole rows.
    pub fn row_probabilities_block(
        &self,
        re: &[f64],
        im: &[f64],
        rows: usize,
        table: &mut Vec<f64>,
    ) -> bool {
        let Some(d) = self.diagonal.as_ref() else {
            return false;
        };
        let dim = 1usize << self.pairs[0].1.num_qubits();
        assert!(
            re.len() == rows * dim && im.len() == rows * dim,
            "block must hold {rows} whole {dim}-amplitude rows"
        );
        let pairs = self.pairs.len();
        table.clear();
        table.resize(rows * pairs, 0.0);
        for ((row_re, row_im), buckets) in re
            .chunks_exact(dim)
            .zip(im.chunks_exact(dim))
            .zip(table.chunks_exact_mut(pairs))
        {
            for i in 0..dim {
                let local = crate::kernels::local_index(i, &d.masks);
                buckets[d.pair_of_local[local]] += row_re[i] * row_re[i] + row_im[i] * row_im[i];
            }
        }
        true
    }

    /// The full `rows × pairs` read-out probability table of a batch —
    /// the block form every group read-out goes through: **one** bucketed
    /// sweep over the whole block for diagonal observables, one batched
    /// expectation pass per projector otherwise (never one pass per row).
    /// Each row's entries equal
    /// [`sample_with_draw_planes`](Self::sample_with_draw_planes)'s
    /// probabilities on that row alone bit for bit, so serial and batched
    /// draws can never drift apart.
    ///
    /// # Panics
    ///
    /// Panics when register sizes differ.
    pub fn pair_probabilities_batch(
        &self,
        states: &crate::batch::BatchedStates,
        table: &mut Vec<f64>,
    ) {
        let (re, im) = states.planes();
        if self.row_probabilities_block(re, im, states.len(), table) {
            return;
        }
        let pairs = self.pairs.len();
        table.clear();
        table.resize(states.len() * pairs, 0.0);
        let mut column = Vec::new();
        for (k, (_, projector)) in self.pairs.iter().enumerate() {
            projector.expectation_batch_into(states, &mut column);
            for (r, &v) in column.iter().enumerate() {
                table[r * pairs + k] = v;
            }
        }
    }

    /// One projective sample for a pre-drawn uniform `u ∈ [0, 1)` against
    /// one row's split `re`/`im` planes whose squared norm is `total` (pass
    /// `psi.norm_sqr()`; callers must handle `total ≈ 0` themselves — see
    /// [`ShotSampler::sample_observable`]).
    ///
    /// Diagonal observables draw from
    /// [`row_probabilities_block`](Self::row_probabilities_block) on a
    /// block of one row; the rest evaluate one projector expectation per
    /// pair.
    pub fn sample_with_draw_planes(&self, u: f64, total: f64, re: &[f64], im: &[f64]) -> f64 {
        let mut probs = Vec::new();
        self.row_probabilities(re, im, &mut probs);
        self.select_with(u, total, &probs)
    }

    /// One row's pair probabilities into `probs`: the diagonal block sweep
    /// on a block of one row, or one projector expectation per pair.
    fn row_probabilities(&self, re: &[f64], im: &[f64], probs: &mut Vec<f64>) {
        if !self.row_probabilities_block(re, im, 1, probs) {
            probs.clear();
            probs.extend(self.pairs.iter().map(|(_, p)| p.expectation_planes(re, im)));
        }
    }

    /// The cumulative Born-rule selection shared by every sampling path:
    /// subtracts the pair probabilities `probs` in order from `u · total`
    /// and returns the eigenvalue of the first pair driving the rest
    /// non-positive — the last eigenvalue under floating-point slack. The
    /// chain runs over every pair and the pair is counted, not branched
    /// to, so a random draw costs no mispredicted branch.
    ///
    /// [`sample_with_draw_planes`](Self::sample_with_draw_planes) and the
    /// batched read-out of `ShotEngine::sample_sweep` both go through this
    /// one loop, so their selection arithmetic can never drift apart.
    #[inline]
    pub(crate) fn select_with(&self, u: f64, total: f64, probs: &[f64]) -> f64 {
        let mut r = u * total;
        let mut stopped = false;
        let mut first = 0;
        for &p in probs {
            r -= p;
            stopped |= r <= 0.0;
            first += usize::from(!stopped);
        }
        // Past the last pair (slack) reads the last eigenvalue.
        self.pairs
            .get(first.min(self.pairs.len().saturating_sub(1)))
            .map_or(0.0, |(l, _)| *l)
    }
}

/// A seeded sampler producing measurement shots from simulated states.
///
/// # Examples
///
/// ```
/// use qdp_linalg::Matrix;
/// use qdp_sim::{Observable, ShotSampler, StateVector};
///
/// let mut psi = StateVector::zero_state(1);
/// psi.apply_gate(&Matrix::hadamard(), &[0]);
/// let z = Observable::pauli_z(1, 0);
/// let mut sampler = ShotSampler::seeded(7);
/// let estimate = sampler.estimate_observable(&psi, &z, 4096);
/// assert!(estimate.abs() < 0.1); // true value is 0
/// ```
#[derive(Clone, Debug)]
pub struct ShotSampler {
    rng: StdRng,
}

impl ShotSampler {
    /// Creates a sampler with a fixed seed (reproducible runs).
    pub fn seeded(seed: u64) -> Self {
        ShotSampler {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The sampler of stream `stream` of a run seeded with `seed` — see
    /// [`derive_seed`] for the contract.
    pub fn derived(seed: u64, stream: u64) -> Self {
        ShotSampler::seeded(derive_seed(seed, stream))
    }

    /// Creates a sampler from operating-system entropy.
    pub fn from_entropy() -> Self {
        ShotSampler {
            rng: StdRng::from_entropy(),
        }
    }

    /// Draws one uniform variate in `[0, 1)` — the raw fuel of
    /// [`collapse_with_draw`] and
    /// [`ProjectiveObservable::sample_with_draw_planes`].
    pub fn next_uniform(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Draws a uniform index in `0..n`.
    pub fn uniform_index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Performs one shot of `measurement` on a normalised pure state;
    /// returns the sampled outcome and the collapsed, renormalised state.
    ///
    /// # Panics
    ///
    /// Panics if the state has (numerically) zero norm.
    pub fn measure(
        &mut self,
        psi: &StateVector,
        measurement: &Measurement,
    ) -> (usize, StateVector) {
        let u = self.next_uniform();
        collapse_with_draw(u, psi, measurement)
    }

    /// One shot of an observable: projectively measures in the observable's
    /// eigenbasis and returns the sampled eigenvalue.
    pub fn sample_observable(&mut self, psi: &StateVector, obs: &Observable) -> f64 {
        let total = psi.norm_sqr();
        if total <= 1e-300 {
            return 0.0;
        }
        let projective = ProjectiveObservable::new(obs);
        let u = self.next_uniform();
        let (re, im) = psi.planes();
        projective.sample_with_draw_planes(u, total, re, im)
    }

    /// Monte-Carlo estimate of `⟨O⟩` from `shots` projective samples.
    ///
    /// The state is fixed, so its read-out probabilities are computed once
    /// per call, not once per shot: one bucketed pass for a diagonal
    /// observable, and otherwise one expectation per projector. Every shot
    /// then selects against the same numbers
    /// [`ProjectiveObservable::sample_with_draw_planes`] computes, so the
    /// estimate carries the bits of that per-shot loop.
    pub fn estimate_observable(
        &mut self,
        psi: &StateVector,
        obs: &Observable,
        shots: usize,
    ) -> f64 {
        assert!(shots > 0, "need at least one shot");
        let total = psi.norm_sqr();
        if total <= 1e-300 {
            return 0.0;
        }
        let projective = ProjectiveObservable::new(obs);
        let (re, im) = psi.planes();
        let mut probs = Vec::new();
        projective.row_probabilities(re, im, &mut probs);
        let mut acc = 0.0;
        for _ in 0..shots {
            let u = self.next_uniform();
            acc += projective.select_with(u, total, &probs);
        }
        acc / shots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_linalg::Matrix;

    #[test]
    fn estimate_observable_carries_the_per_shot_loops_bits() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::rotation_y(0.9), &[0]);
        psi.apply_gate(&Matrix::rotation_x(-1.7), &[1]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let diagonal = Observable::pauli_z(2, 1);
        let rotated = Observable::new(2, vec![0, 1], Matrix::pauli_x().kron(&Matrix::pauli_y()));
        assert!(ProjectiveObservable::new(&diagonal).is_diagonal());
        assert!(!ProjectiveObservable::new(&rotated).is_diagonal());
        for obs in [&diagonal, &rotated] {
            let shots = 777;
            let estimate = ShotSampler::seeded(31).estimate_observable(&psi, obs, shots);
            let projective = ProjectiveObservable::new(obs);
            let (re, im) = psi.planes();
            let total = psi.norm_sqr();
            let mut sampler = ShotSampler::seeded(31);
            let mut acc = 0.0;
            for _ in 0..shots {
                let u = sampler.next_uniform();
                acc += projective.sample_with_draw_planes(u, total, re, im);
            }
            assert_eq!(estimate.to_bits(), (acc / shots as f64).to_bits());
        }
    }

    #[test]
    fn measurement_statistics_approach_born_rule() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let m = Measurement::computational(vec![0]);
        let mut sampler = ShotSampler::seeded(42);
        let shots = 20_000;
        let mut ones = 0usize;
        for _ in 0..shots {
            let (outcome, _) = sampler.measure(&psi, &m);
            ones += outcome;
        }
        let freq = ones as f64 / shots as f64;
        assert!((freq - 0.5).abs() < 0.02, "frequency {freq} too far from 0.5");
    }

    #[test]
    fn collapsed_state_is_consistent() {
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let m = Measurement::computational(vec![0]);
        let mut sampler = ShotSampler::seeded(1);
        for _ in 0..20 {
            let (outcome, collapsed) = sampler.measure(&psi, &m);
            assert_eq!(collapsed.classical_bit(0), Some(outcome == 1));
            assert_eq!(collapsed.classical_bit(1), Some(outcome == 1));
            assert!((collapsed.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn measure_equals_collapse_with_same_draw() {
        // `measure` must be exactly "draw one uniform, collapse": the
        // batched engine relies on this split to match the serial path
        // bit for bit.
        let mut psi = StateVector::zero_state(2);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        psi.apply_gate(&Matrix::cnot(), &[0, 1]);
        let m = Measurement::computational(vec![0]);
        let mut a = ShotSampler::seeded(31);
        let mut b = ShotSampler::seeded(31);
        for _ in 0..16 {
            let (o1, s1) = a.measure(&psi, &m);
            let u = b.next_uniform();
            let (o2, s2) = collapse_with_draw(u, &psi, &m);
            assert_eq!(o1, o2);
            assert_eq!(s1.amplitudes(), s2.amplitudes());
        }
    }

    #[test]
    fn observable_estimate_converges() {
        let psi = StateVector::zero_state(1); // ⟨Z⟩ = 1 exactly
        let z = Observable::pauli_z(1, 0);
        let mut sampler = ShotSampler::seeded(3);
        let est = sampler.estimate_observable(&psi, &z, 100);
        assert!((est - 1.0).abs() < 1e-12);
    }

    #[test]
    fn observable_estimate_on_superposition() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(
            &Matrix::rotation_from_involution(&Matrix::pauli_y(), 1.0),
            &[0],
        );
        let z = Observable::pauli_z(1, 0);
        let exact = z.expectation_pure(&psi);
        let mut sampler = ShotSampler::seeded(1234);
        let est = sampler.estimate_observable(&psi, &z, 40_000);
        assert!((est - exact).abs() < 0.02, "estimate {est} vs exact {exact}");
    }

    #[test]
    fn chernoff_shot_count_scales_quadratically() {
        assert_eq!(chernoff_shots(1, 0.1), 100);
        assert_eq!(chernoff_shots(2, 0.1), 400);
        assert_eq!(chernoff_shots(4, 0.1), 1600);
    }

    #[test]
    fn chernoff_budget_formula_is_pinned() {
        // The budget is exactly ⌈m²/δ²⌉ (m clamped to ≥ 1) — the single
        // definition `qdp_ad::estimator` re-exports.
        assert_eq!(chernoff_shots(3, 0.05), 3600);
        assert_eq!(chernoff_shots(0, 0.5), 4);
        assert_eq!(chernoff_shots(5, 0.3), (25.0f64 / 0.09).ceil() as usize);
        assert_eq!(chernoff_shots(1, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn chernoff_rejects_nonpositive_delta() {
        let _ = chernoff_shots(2, 0.0);
    }

    #[test]
    fn chernoff_rejects_unrepresentable_budgets_at_extreme_delta() {
        // Pre-fix, ⌈(m/δ)²⌉ went through a bare `as usize` cast, which
        // silently saturates to usize::MAX for tiny δ — including the
        // subnormal range where δ² underflows to 0 and the budget is ∞.
        for bad in [1e-12, 1e-200, f64::MIN_POSITIVE] {
            match try_chernoff_shots(3, bad) {
                Err(crate::error::QdpError::InvalidPrecision { value, what }) => {
                    assert_eq!(value.to_bits(), bad.to_bits());
                    assert_eq!(what, "precision");
                }
                other => panic!("δ = {bad}: expected InvalidPrecision, got {other:?}"),
            }
            // The message must name the real failure — the budget has no
            // usize representation — not claim δ wasn't positive.
            let msg = try_chernoff_shots(3, bad).unwrap_err().to_string();
            assert!(msg.contains("overflows"), "{msg}");
        }
        // Just inside the cliff: ~1e18 shots is a representable (if
        // absurd) budget and must still be accepted.
        let huge = try_chernoff_shots(1, 1e-9).unwrap();
        assert!(huge > 0 && huge < usize::MAX, "budget {huge}");
    }

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let draws = |seed: u64, stream: u64| -> Vec<u64> {
            let mut s = ShotSampler::derived(seed, stream);
            (0..8).map(|_| (s.next_uniform() * 1e15) as u64).collect()
        };
        assert_eq!(draws(9, 0), draws(9, 0));
        assert_ne!(draws(9, 0), draws(9, 1));
        assert_ne!(draws(9, 0), draws(10, 0));
        // Adjacent streams of adjacent seeds must not collide either.
        assert_ne!(derive_seed(9, 1), derive_seed(10, 0));
    }

    /// The pre-selected-branch-collapse algorithm, kept verbatim as the
    /// `branches_pure`-based oracle the production path is pinned against.
    fn collapse_with_draw_oracle(
        u: f64,
        psi: &StateVector,
        measurement: &Measurement,
    ) -> (usize, StateVector) {
        let total = psi.norm_sqr();
        assert!(total > 1e-300, "cannot measure a zero-norm state");
        let branches = measurement.branches_pure(psi);
        let mut r: f64 = u * total;
        for b in &branches {
            r -= b.probability;
            if r <= 0.0 {
                let mut state = b.state.clone();
                if b.probability > 0.0 {
                    state.scale(C64::real((total / b.probability).sqrt().min(1e150)));
                    let norm = state.norm_sqr().sqrt();
                    if norm > 0.0 {
                        state.scale(C64::real(total.sqrt() / norm));
                    }
                }
                return (b.outcome, state);
            }
        }
        let last = branches
            .into_iter()
            .rev()
            .find(|b| b.probability > 0.0)
            .expect("no branch has support");
        let mut state = last.state.clone();
        let norm = state.norm_sqr().sqrt();
        if norm > 0.0 {
            state.scale(C64::real(total.sqrt() / norm));
        }
        (last.outcome, state)
    }

    use crate::test_support::{awkward_state, crafted_rows, draws};

    #[test]
    fn selected_branch_collapse_matches_branches_pure_oracle_bitwise() {
        // Computational measurements (the fast path) and a rotated general
        // measurement, over states with zero/negative components and the
        // whole [0, 1) draw range — outcomes and collapsed amplitudes must
        // carry identical bits to the all-branches oracle.
        let h = Matrix::hadamard();
        let x_basis = Measurement::two_outcome(
            h.mul(&Matrix::basis_projector(2, 0)).mul(&h),
            h.mul(&Matrix::basis_projector(2, 1)).mul(&h),
            vec![1],
        );
        let measurements = [
            Measurement::computational(vec![0]),
            Measurement::computational(vec![2]),
            Measurement::computational(vec![1, 3]),
            x_basis,
        ];
        for (mi, m) in measurements.iter().enumerate() {
            for seed in 0..6u64 {
                let psi = awkward_state(4, 1000 * (mi as u64 + 1) + seed);
                for step in 0..16 {
                    let u = step as f64 / 16.0;
                    let (o_fast, s_fast) = collapse_with_draw(u, &psi, m);
                    let (o_ref, s_ref) = collapse_with_draw_oracle(u, &psi, m);
                    assert_eq!(o_fast, o_ref, "measurement {mi} seed {seed} u {u}");
                    let fast_bits: Vec<(u64, u64)> = s_fast
                        .amplitudes()
                        .iter()
                        .map(|a| (a.re.to_bits(), a.im.to_bits()))
                        .collect();
                    let ref_bits: Vec<(u64, u64)> = s_ref
                        .amplitudes()
                        .iter()
                        .map(|a| (a.re.to_bits(), a.im.to_bits()))
                        .collect();
                    assert_eq!(fast_bits, ref_bits, "measurement {mi} seed {seed} u {u}");
                }
            }
        }
    }

    #[test]
    fn diagonal_readout_is_detected_for_z_basis_observables() {
        assert!(ProjectiveObservable::new(&Observable::pauli_z(2, 1)).is_diagonal());
        assert!(ProjectiveObservable::new(&Observable::projector_one(3, 0)).is_diagonal());
        // The paper's extended read-out Z ⊗ |1⟩⟨1| is diagonal too.
        assert!(
            ProjectiveObservable::new(&Observable::projector_one(2, 1).with_ancilla_z())
                .is_diagonal()
        );
        // X is not.
        let x = Observable::new(1, vec![0], Matrix::pauli_x());
        assert!(!ProjectiveObservable::new(&x).is_diagonal());
        // `general` always disables the fast path.
        assert!(!ProjectiveObservable::general(&Observable::pauli_z(1, 0)).is_diagonal());
    }

    #[test]
    fn diagonal_readout_samples_match_general_path() {
        // Same decomposition, fast vs general probability evaluation: the
        // selected eigenvalue must agree on every draw and the bucketed
        // probabilities must match the per-projector passes to 1e-12.
        let observables = [
            Observable::pauli_z(3, 1),
            Observable::projector_one(3, 2),
            Observable::projector_one(2, 1).with_ancilla_z(),
        ];
        for (oi, obs) in observables.iter().enumerate() {
            let fast = ProjectiveObservable::new(obs);
            let general = ProjectiveObservable::general(obs);
            assert!(fast.is_diagonal(), "observable {oi}");
            for seed in 0..8u64 {
                let psi = awkward_state(obs.num_qubits(), 77 + seed);
                let total = psi.norm_sqr();
                let amps = psi.amplitudes();
                let (re, im) = psi.planes();
                let mut probs = Vec::new();
                assert!(fast.row_probabilities_block(re, im, 1, &mut probs));
                for (k, (_, projector)) in general.pairs().iter().enumerate() {
                    let reference = projector.expectation_amps(&amps);
                    assert!(
                        (probs[k] - reference).abs() < 1e-12,
                        "observable {oi} pair {k}: {} vs {reference}",
                        probs[k]
                    );
                }
                for step in 0..32 {
                    let u = (step as f64 + 0.5) / 32.0;
                    let a = fast.sample_with_draw_planes(u, total, re, im);
                    let b = general.sample_with_draw_planes(u, total, re, im);
                    assert_eq!(a.to_bits(), b.to_bits(), "observable {oi} u {u}");
                }
            }
        }
    }

    #[test]
    fn pair_probability_table_selects_like_single_row_draws_bitwise() {
        // Every sampled leaf group reads out through the block table; each
        // row's draws from it must equal single-row draws on that row.
        let n = 4;
        let rows: Vec<StateVector> = (0..5u64)
            .map(|r| {
                let mut psi = awkward_state(n, 300 + r);
                // Rows 0, 1, 3, 4 normalised; row 2 keeps a norm² of 0.3.
                let target = if r == 2 { 0.3 } else { 1.0 };
                psi.scale(C64::real((target / psi.norm_sqr()).sqrt()));
                psi
            })
            .collect();
        let batch = crate::batch::BatchedStates::from_states(&rows);
        let r = Matrix::rotation_y(0.83);
        let observables = [
            Observable::pauli_z(n, 1),
            Observable::projector_one(n, 2),
            Observable::projector_one(n - 1, 0).with_ancilla_z(),
            Observable::new(n, vec![3], r.mul(&Matrix::pauli_z()).mul(&r.dagger())),
        ];
        for (oi, obs) in observables.iter().enumerate() {
            let general = ProjectiveObservable::general(obs);
            let mut general_table = Vec::new();
            general.pair_probabilities_batch(&batch, &mut general_table);
            for readout in [ProjectiveObservable::new(obs), general.clone()] {
                let pairs = readout.pairs().len();
                let mut table = vec![-1.0]; // must be cleared, not appended
                readout.pair_probabilities_batch(&batch, &mut table);
                assert_eq!(table.len(), rows.len() * pairs, "observable {oi}");
                if readout.is_diagonal() {
                    for (k, (a, b)) in table.iter().zip(&general_table).enumerate() {
                        assert!((a - b).abs() < 1e-12, "observable {oi} entry {k}: {a} vs {b}");
                    }
                }
                for (ri, psi) in rows.iter().enumerate() {
                    let total = psi.norm_sqr();
                    let (re, im) = psi.planes();
                    for step in 0..=24 {
                        let u = step as f64 / 24.0;
                        let from_table =
                            readout.select_with(u, total, &table[ri * pairs..(ri + 1) * pairs]);
                        let single = readout.sample_with_draw_planes(u, total, re, im);
                        assert_eq!(
                            from_table.to_bits(),
                            single.to_bits(),
                            "observable {oi} diagonal {} row {ri} u {u}",
                            readout.is_diagonal()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn branch_free_readout_selection_matches_the_early_exit_walk() {
        // The early-exit walk `select_with` ran before it became
        // branch-free, on rows whose pair `k` has eigenvalue `k`.
        let early_exit = |u: f64, total: f64, probs: &[f64]| -> f64 {
            let mut r = u * total;
            for (k, &p) in probs.iter().enumerate() {
                r -= p;
                if r <= 0.0 {
                    return k as f64;
                }
            }
            probs.len().saturating_sub(1) as f64
        };
        for (total, probs) in crafted_rows() {
            let readout = ProjectiveObservable {
                pairs: (0..probs.len()).map(|k| (k as f64, Observable::pauli_z(1, 0))).collect(),
                diagonal: None,
            };
            for u in draws(total, &probs) {
                assert_eq!(
                    readout.select_with(u, total, &probs).to_bits(),
                    early_exit(u, total, &probs).to_bits(),
                    "u {u} total {total} probs {probs:?}"
                );
            }
        }
        let nan = ProjectiveObservable {
            pairs: vec![(-1.0, Observable::pauli_z(1, 0)), (1.0, Observable::pauli_z(1, 0))],
            diagonal: None,
        };
        assert_eq!(nan.select_with(0.5, 1.0, &[f64::NAN, f64::NAN]), 1.0);
        let empty = ProjectiveObservable { pairs: Vec::new(), diagonal: None };
        assert_eq!(empty.select_with(0.5, 1.0, &[]), 0.0);
    }

    #[test]
    fn seeded_samplers_are_reproducible() {
        let mut psi = StateVector::zero_state(1);
        psi.apply_gate(&Matrix::hadamard(), &[0]);
        let m = Measurement::computational(vec![0]);
        let run = |seed: u64| -> Vec<usize> {
            let mut s = ShotSampler::seeded(seed);
            (0..32).map(|_| s.measure(&psi, &m).0).collect()
        };
        assert_eq!(run(9), run(9));
    }
}
