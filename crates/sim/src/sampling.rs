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
/// no matter which thread or tile runs it, and its `k`-th draw is that
/// stream's `k`-th uniform. The streams are keyed by `(seed, s)` alone, so
/// a sampled sweep seeds all of them in one vector pass and reads draw `k`
/// of every shot off one plane ([`ShotVariates`]).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    finalize(seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
}

/// The SplitMix64 increment.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output finalizer.
#[inline(always)]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream of one shot: the shot draws from
/// `ShotSampler::derived(seed, index)`, its `k`-th draw being that
/// stream's `k`-th uniform. The sampled entry points of
/// [`crate::ShotEngine`] take one per shot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShotStream {
    /// The seed of the shot's row.
    pub seed: u64,
    /// The shot's stream index under that seed.
    pub index: u64,
}

/// The variates of one sampled sweep, one plane per draw depth: plane `k`
/// holds every shot's `k`-th uniform, bit for bit what
/// `ShotSampler::derived(seed, index)`'s `k`-th
/// [`next_uniform`](ShotSampler::next_uniform) returns.
///
/// Every shot's xoshiro256++ state is kept structure-of-arrays. The first
/// plane seeds them all in one vector pass ([`derive_seed`], then the
/// SplitMix64 expansion) and each later plane steps them all in one more;
/// a plane is filled the first time [`uniforms`](Self::uniforms) asks for
/// it, so a sweep fills exactly as many planes as its deepest draw. The
/// passes run at the active [`SimdTier`](crate::simd::SimdTier): an
/// AVX-512F+DQ body, or the portable loop, which the workspace's
/// `x86-64-v3` pin compiles to AVX2. They are integer
/// operations and one exact 53-bit conversion, so every tier fills the
/// same bits.
#[derive(Debug)]
pub struct ShotVariates<'s> {
    streams: &'s [ShotStream],
    /// The four xoshiro256++ words of every shot, word-major.
    state: Vec<u64>,
    /// Plane `k` at `planes[k·shots..(k+1)·shots]`.
    planes: Vec<f64>,
    /// The planes filled so far.
    depth: usize,
}

impl<'s> ShotVariates<'s> {
    /// The plane set of `streams`, one shot each, before any draw.
    pub fn new(streams: &'s [ShotStream]) -> Self {
        ShotVariates::with_buffers(streams, Vec::new(), Vec::new())
    }

    /// [`new`](Self::new) on recycled buffers (their contents are ignored),
    /// so a caller running one sweep after another allocates once.
    pub fn with_buffers(
        streams: &'s [ShotStream],
        mut state: Vec<u64>,
        mut planes: Vec<f64>,
    ) -> Self {
        state.clear();
        planes.clear();
        ShotVariates { streams, state, planes, depth: 0 }
    }

    /// The buffers, for the next sweep's [`with_buffers`](Self::with_buffers).
    pub fn into_buffers(self) -> (Vec<u64>, Vec<f64>) {
        (self.state, self.planes)
    }

    /// The planes filled so far: one more than the deepest draw read.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Every shot's `k`-th uniform, in shot order, filling the planes up
    /// to `k` first.
    pub fn uniforms(&mut self, k: usize) -> &[f64] {
        let tier = crate::simd::active_tier();
        while self.depth <= k {
            self.fill_next(tier);
        }
        let n = self.streams.len();
        &self.planes[k * n..(k + 1) * n]
    }

    /// Fills the next plane at `tier`: seeds every state on the first.
    pub(crate) fn fill_next(&mut self, tier: crate::simd::SimdTier) {
        let n = self.streams.len();
        let depth = self.depth;
        self.depth += 1;
        self.planes.resize((depth + 1) * n, 0.0);
        let plane = &mut self.planes[depth * n..];
        let seeds = (depth == 0).then(|| {
            self.state.resize(4 * n, 0);
            self.streams
        });
        variate_kernels::fill(tier, seeds, &mut self.state, plane);
    }
}

/// The seeding and stepping passes of [`ShotVariates`], one body each,
/// compiled once per tier.
mod variate_kernels {
    use super::{finalize, ShotStream, GOLDEN_GAMMA};
    use crate::simd::SimdTier;

    /// `(x >> 11) · 2⁻⁵³`, the rand shim's `f64` draw: the shift leaves 53
    /// bits, so the conversion and the power-of-two scale are exact.
    #[inline(always)]
    fn uniform(x: u64) -> f64 {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One xoshiro256++ step of `[a, b, c, d]`, returning its output.
    #[inline(always)]
    fn next(a: &mut u64, b: &mut u64, c: &mut u64, d: &mut u64) -> u64 {
        let out = a.wrapping_add(*d).rotate_left(23).wrapping_add(*a);
        let t = *b << 17;
        *c ^= *a;
        *d ^= *b;
        *b ^= *c;
        *a ^= *d;
        *c ^= t;
        *d = d.rotate_left(45);
        out
    }

    /// The four xoshiro256++ words `ShotSampler::derived(seed, index)`
    /// starts from: `derive_seed`, then `StdRng::seed_from_u64`'s
    /// SplitMix64 expansion.
    #[inline(always)]
    fn seed_words(st: &ShotStream) -> [u64; 4] {
        let x = finalize(st.seed.wrapping_add(st.index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)));
        [1, 2, 3, 4].map(|k: u64| finalize(x.wrapping_add(GOLDEN_GAMMA.wrapping_mul(k))))
    }

    /// Writes one uniform per shot into `plane`: seeds every stream first
    /// when given the streams, steps every state otherwise.
    #[inline(always)]
    fn fill_body(streams: Option<&[ShotStream]>, state: &mut [u64], plane: &mut [f64]) {
        let n = plane.len();
        let (s0, rest) = state.split_at_mut(n);
        let (s1, rest) = rest.split_at_mut(n);
        let (s2, s3) = rest.split_at_mut(n);
        let state = s0.iter_mut().zip(s1).zip(s2).zip(s3);
        match streams {
            Some(streams) => {
                for ((st, u), (((a, b), c), d)) in streams.iter().zip(plane).zip(state) {
                    [*a, *b, *c, *d] = seed_words(st);
                    *u = uniform(next(a, b, c, d));
                }
            }
            None => {
                for (u, (((a, b), c), d)) in plane.iter_mut().zip(state) {
                    *u = uniform(next(a, b, c, d));
                }
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    mod x86 {
        use super::{fill_body, ShotStream};

        /// # Safety
        ///
        /// The CPU must support AVX-512F and AVX-512DQ.
        #[target_feature(enable = "avx512f,avx512dq")]
        pub(super) unsafe fn fill_avx512(
            streams: Option<&[ShotStream]>,
            state: &mut [u64],
            plane: &mut [f64],
        ) {
            fill_body(streams, state, plane)
        }
    }

    /// [`fill_body`] at `tier`, capped at the detected tier: the AVX-512
    /// body (which also needs AVX-512DQ for its 64-bit multiplies and
    /// conversions) or the portable loop, which the workspace's
    /// `x86-64-v3` pin already compiles to AVX2.
    pub(super) fn fill(
        tier: SimdTier,
        streams: Option<&[ShotStream]>,
        state: &mut [u64],
        plane: &mut [f64],
    ) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if tier.min(crate::simd::detected_tier()) == SimdTier::Avx512
            && is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: the detected tier checked AVX-512F, and DQ is checked
            // here.
            return unsafe { x86::fill_avx512(streams, state, plane) };
        }
        let _ = tier;
        fill_body(streams, state, plane)
    }
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
    /// `pair_of_index[i]` = the pair of full basis state `i`, folded once
    /// through the masks; built only for read-outs of at most
    /// [`READOUT_PAIRS`] pairs, which run [`diagonal_rows`].
    pair_of_index: Option<Vec<u8>>,
}

/// Rows a diagonal read-out accumulates together, one accumulator each.
const READOUT_ROWS: usize = 4;

/// The most pairs [`diagonal_rows`] accumulates in registers; read-outs
/// with more pairs keep the bucket loop, whose cost does not grow with
/// the pair count.
const READOUT_PAIRS: usize = 4;

/// The diagonal read-out of the `R` whole `dim`-amplitude rows at the head
/// of `re`/`im` into their `pairs ≤ READOUT_PAIRS` entries at the head of
/// `table`: each pair's `|amp|²` terms added in index order from `+0.0`,
/// in one pass with every accumulator in a register. A term joins an
/// accumulator through a bit select, never a multiply by a 0/1 mask, so an
/// entry carries the bits of the serial bucket loop, NaN rows included.
#[inline(always)]
fn diagonal_rows<const R: usize>(
    re: &[f64],
    im: &[f64],
    dim: usize,
    pair_of: &[u8],
    pairs: usize,
    table: &mut [f64],
) {
    let mut acc = [[0.0f64; R]; READOUT_PAIRS];
    for (i, &pair) in pair_of.iter().enumerate() {
        let mut t = [0.0f64; R];
        for (r, t) in t.iter_mut().enumerate() {
            let (a, b) = (re[r * dim + i], im[r * dim + i]);
            *t = a * a + b * b;
        }
        for (k, acc) in acc.iter_mut().enumerate() {
            let hit = 0u64.wrapping_sub(u64::from(usize::from(pair) == k));
            for (acc, &t) in acc.iter_mut().zip(&t) {
                let sum = (*acc + t).to_bits();
                *acc = f64::from_bits((sum & hit) | (acc.to_bits() & !hit));
            }
        }
    }
    for (k, acc) in acc.iter().enumerate().take(pairs) {
        for (r, &v) in acc.iter().enumerate() {
            table[r * pairs + k] = v;
        }
    }
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
        let masks: Vec<usize> = obs
            .targets()
            .iter()
            .map(|&t| 1usize << crate::kernels::qubit_bit(n, t))
            .collect();
        let pair_of_index = (self.pairs.len() <= READOUT_PAIRS).then(|| {
            (0..1usize << n)
                .map(|i| pair_of_local[crate::kernels::local_index(i, &masks)] as u8)
                .collect()
        });
        Some(DiagonalReadout { masks, pair_of_local, pair_of_index })
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
    /// measurement sweeps, no lane split: the pair of each basis state is
    /// arbitrary, so there are no constant-outcome runs to exploit). With
    /// at most four pairs, four rows run side by side with their
    /// accumulators in registers, each basis state's pair looked up in a
    /// table built once per observable; with more, each row adds into its
    /// buckets in memory. A row's entries depend on that row alone, so
    /// batched and single-row read-outs select from bit-identical
    /// probabilities.
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
        let Some(pair_of_index) = d.pair_of_index.as_deref() else {
            for ((row_re, row_im), buckets) in re
                .chunks_exact(dim)
                .zip(im.chunks_exact(dim))
                .zip(table.chunks_exact_mut(pairs))
            {
                for i in 0..dim {
                    let local = crate::kernels::local_index(i, &d.masks);
                    buckets[d.pair_of_local[local]] +=
                        row_re[i] * row_re[i] + row_im[i] * row_im[i];
                }
            }
            return true;
        };
        let block = READOUT_ROWS * dim;
        let whole = rows / READOUT_ROWS;
        for ((re, im), table) in re
            .chunks_exact(block)
            .zip(im.chunks_exact(block))
            .zip(table.chunks_exact_mut(READOUT_ROWS * pairs))
        {
            diagonal_rows::<READOUT_ROWS>(re, im, dim, pair_of_index, pairs, table);
        }
        for ((re, im), table) in re[whole * block..]
            .chunks_exact(dim)
            .zip(im[whole * block..].chunks_exact(dim))
            .zip(table[whole * READOUT_ROWS * pairs..].chunks_exact_mut(pairs))
        {
            diagonal_rows::<1>(re, im, dim, pair_of_index, pairs, table);
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

    /// The cumulative Born-rule selection shared by every sampling path
    /// ([`select_counts`] on one draw): subtracts the pair probabilities
    /// `probs` in order from `u · total` and returns the eigenvalue of the
    /// first pair driving the rest non-positive — the last eigenvalue under
    /// floating-point slack.
    ///
    /// [`sample_with_draw_planes`](Self::sample_with_draw_planes) and the
    /// batched read-out of `ShotEngine::sample_sweep` (which counts
    /// [`SELECT_LANES`] draws at a time) both go through that one walk, so
    /// their selection arithmetic can never drift apart.
    #[inline]
    pub(crate) fn select_with(&self, u: f64, total: f64, probs: &[f64]) -> f64 {
        let [first] = select_counts([u], total, probs);
        self.eigenvalue_at(first)
    }

    /// The eigenvalue of the pair a selection count picks: past the last
    /// pair (slack) reads the last eigenvalue.
    #[inline]
    pub(crate) fn eigenvalue_at(&self, first: usize) -> f64 {
        self.pairs
            .get(first.min(self.pairs.len().saturating_sub(1)))
            .map_or(0.0, |(l, _)| *l)
    }
}

/// Draws one member loop of a sampled sweep selects at once (see
/// [`select_counts`]).
pub(crate) const SELECT_LANES: usize = 8;

/// The cumulative Born-rule walk of every sampling path, for `L` draws
/// against one probability row: per lane, `r = u · total`, then `r -= p`
/// over `probs` in order, counting the entries before the first that
/// drives `r` non-positive — the selected index, or `probs.len()` under
/// floating-point slack (a NaN never compares non-positive). The pair is
/// counted, not branched to, so a random draw costs no mispredicted
/// branch, and each lane runs the one-draw walk's operations in its order,
/// so `L` lanes count what `L` single draws count.
#[inline(always)]
pub(crate) fn select_counts<const L: usize>(us: [f64; L], total: f64, probs: &[f64]) -> [usize; L] {
    let mut r = us.map(|u| u * total);
    let mut stopped = [false; L];
    let mut first = [0usize; L];
    for &p in probs {
        for ((r, stopped), first) in r.iter_mut().zip(&mut stopped).zip(&mut first) {
            *r -= p;
            *stopped |= *r <= 0.0;
            *first += usize::from(!*stopped);
        }
    }
    first
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

    /// The diagonal read-out before its register-accumulator kernel, kept
    /// as a transcription: per row, per basis state, the local index
    /// folded through the target masks and the `|amp|²` term added into
    /// its pair's bucket in memory, buckets starting at `+0.0`.
    fn bucket_loop_oracle(obs: &Observable, re: &[f64], im: &[f64], rows: usize) -> Vec<f64> {
        let general = ProjectiveObservable::general(obs);
        let n = obs.num_qubits();
        let masks: Vec<usize> =
            obs.targets().iter().map(|&t| 1usize << crate::kernels::qubit_bit(n, t)).collect();
        let pair_of_local: Vec<usize> = (0..1usize << masks.len())
            .map(|b| {
                let hit = |(_, p): &(f64, Observable)| p.matrix().get(b, b).re > 0.5;
                general.pairs().iter().position(hit).expect("a projector holds b")
            })
            .collect();
        let (dim, pairs) = (1usize << n, general.pairs().len());
        let mut table = vec![0.0; rows * pairs];
        for ((row_re, row_im), buckets) in
            re.chunks_exact(dim).zip(im.chunks_exact(dim)).zip(table.chunks_exact_mut(pairs))
        {
            for i in 0..dim {
                let local = crate::kernels::local_index(i, &masks);
                buckets[pair_of_local[local]] += row_re[i] * row_re[i] + row_im[i] * row_im[i];
            }
        }
        table
    }

    #[test]
    fn diagonal_readout_kernel_matches_the_bucket_loop_bitwise() {
        // Every row count from 1 to 11 (whole row blocks and remainders),
        // 1- to 3-target observables with 2 to 5 pairs (the register
        // kernel up to 4, the bucket loop past it), rows salted with
        // NaN, ±inf, -0.0 and all-zero rows: every entry keeps the bucket
        // loop's bits, so a poisoned amplitude moves only its own pair of
        // its own row.
        let n = 5;
        let spectrum = [0.5, -1.0, 2.0, 0.5, 3.0, -1.0, 0.0, 2.0];
        let weights = Matrix::diagonal(&spectrum.map(C64::real));
        let observables = [
            Observable::pauli_z(n, 2),
            Observable::projector_one(n - 1, 0).with_ancilla_z(),
            Observable::new(n, vec![4, 1, 3], weights),
        ];
        for (oi, obs) in observables.iter().enumerate() {
            let readout = ProjectiveObservable::new(obs);
            assert!(readout.is_diagonal(), "observable {oi}");
            let register = readout.diagonal.as_ref().is_some_and(|d| d.pair_of_index.is_some());
            assert_eq!(register, readout.pairs().len() <= READOUT_PAIRS, "observable {oi}");
            for rows in 1..=11usize {
                let states: Vec<StateVector> =
                    (0..rows as u64).map(|k| awkward_state(n, 40 + k)).collect();
                let batch = crate::batch::BatchedStates::from_states(&states);
                let (mut re, mut im) = (batch.planes().0.to_vec(), batch.planes().1.to_vec());
                let dim = 1 << n;
                let salts = [(1, f64::NAN), (4, f64::INFINITY), (6, f64::NEG_INFINITY), (9, -0.0)];
                for (r, salt) in salts {
                    if r < rows {
                        re[r * dim + 3 * r % dim] = salt;
                        im[r * dim + (5 * r + 1) % dim] = salt;
                    }
                }
                if rows > 7 {
                    re[7 * dim..8 * dim].fill(0.0);
                    im[7 * dim..8 * dim].fill(-0.0);
                }
                let mut table = vec![7.0];
                assert!(readout.row_probabilities_block(&re, &im, rows, &mut table));
                let want = bucket_loop_oracle(obs, &re, &im, rows);
                let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&table), bits(&want), "observable {oi} rows {rows}");
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
