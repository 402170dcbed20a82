//! Targeted gate-application kernels — the hot loops of the simulator.
//!
//! A `k`-qubit operator is applied to an `n`-qubit register stored as two
//! split `re`/`im` planes without ever materialising the `2ⁿ × 2ⁿ` lifted
//! operator. Density matrices reuse the same kernels by viewing a
//! `2ⁿ × 2ⁿ` row-major plane pair as a state over `2n` qubits (row qubits
//! occupy the **high** half of the flattened index, column qubits the low
//! half): `ρ ← MρM†` is [`apply_matrix_planes`] with `M` on `targets`
//! followed by `M̄` on `targets + n`.
//!
//! # One production path, one oracle
//!
//! [`apply_matrix_planes`] is the only production gate entry. Its oracle is
//! the full-range scan [`apply_matrix_reference`] (on interleaved `C64`)
//! together with the dense lift [`embed`]. The fast paths agree with the
//! reference scan **bit for bit up to the sign of zero**: the scan folds
//! every product into an accumulator that starts at `+0.0`, so an entry
//! the fast path computes as `-0.0` (a diagonal or projector entry `0.0`
//! times a negative component, an identity block that is never touched)
//! comes out of the scan as `+0.0`. On operators without zero entries the
//! two agree exactly. See `crates/sim/tests/kernel_properties.rs` and the
//! unit tests below.
//!
//! # Kernel strategy
//!
//! [`apply_matrix_planes`] dispatches on operator shape:
//!
//! * **Base enumeration.** Only the `2^(n−k)` base indices (target bits
//!   clear) are visited, produced directly by *bit-deposit* over the
//!   non-target mask — never the full `2ⁿ` range with a mask test per index
//!   (that behaviour survives in the reference scan).
//! * **Specialised `k = 1` / `k = 2` kernels.** Allocation-free: the operator
//!   is copied to stack scratch, the 2×2 / 4×4 multiply is fully unrolled,
//!   and amplitudes are accessed through raw plane slices instead of
//!   per-element [`Matrix::get`].
//! * **Diagonal fast path.** Phase-type operators (`RZ`, `CZ`, projectors
//!   onto basis states, …) touch each amplitude exactly once with a single
//!   multiply.
//! * **Block-diagonal (controlled) fast path.** Operators of the form
//!   `|0⟩⟨0| ⊗ A + |1⟩⟨1| ⊗ B` — every controlled rotation the
//!   differentiation gadget emits, plus `CNOT` — skip the zero blocks,
//!   halving the multiply count.
//! * **Explicit SIMD tiers.** Dense runs, and every 1q, diagonal and
//!   controlled gate whose target orbit fits in one vector (a short
//!   orbit: the lowest qubits), dispatch to the AVX2/AVX-512 kernels of
//!   [`crate::simd`], which are bitwise equal to the scalar plane kernels
//!   here.
//! * **Parallel split.** From [`qdp_par::FORK_MIN_WORK`] (`2¹⁸`)
//!   amplitudes the work is split across threads via `qdp_par`: in place
//!   over contiguous aligned chunks when the target bits lie below the
//!   chunk boundary, or by zipping the two contiguous orbit halves in
//!   lockstep when the target is the top bit (a left factor on row qubit 0
//!   of a density matrix). The threshold comes from a
//!   2-vCPU KVM guest (Intel Xeon, AVX-512): a pool handoff costs ~5 µs of
//!   CPU and the worker starts ~30 µs later, while these kernels run at
//!   0.3–0.8 ns per amplitude (0.7–0.8 for dense and diagonal gates at
//!   `2¹⁸`). Split there, each half outlasts several worker start-ups and
//!   the fork adds 0–5% CPU; at `2¹⁷` it added 10–25%. An L2-sized batch
//!   tile (`2¹⁴` amplitudes) never forks.
//!   Every split performs the identical floating-point operations per
//!   output element as the serial kernel, so results are bit-for-bit
//!   deterministic regardless of thread count.

use crate::simd::{self, Chain1q, SimdTier};
use qdp_linalg::{C64, Matrix};
use std::sync::atomic::{AtomicBool, Ordering};

/// When set, [`apply_matrix_planes`] routes through
/// [`apply_matrix_reference`] — used by benchmarks to measure end-to-end
/// speedups of the fast paths.
static REFERENCE_MODE: AtomicBool = AtomicBool::new(false);

/// Forces every kernel through the slow reference implementation (for
/// benchmarking the fast paths end-to-end). Affects all threads.
pub fn set_reference_kernels(on: bool) {
    REFERENCE_MODE.store(on, Ordering::Relaxed);
}

/// Whether [`set_reference_kernels`] is currently engaged.
pub fn reference_kernels_enabled() -> bool {
    REFERENCE_MODE.load(Ordering::Relaxed)
}

/// Bit position (from the least significant end) of qubit `q` in an
/// `n`-qubit basis index. Qubit 0 is the most significant bit.
#[inline]
pub fn qubit_bit(n: usize, q: usize) -> usize {
    debug_assert!(q < n, "qubit index {q} out of range for {n} qubits");
    n - 1 - q
}

/// The local (operator-space) index of `full_index` under the target
/// `masks`, with `masks[0]` the **most significant** local bit — the one
/// shared definition of the target-order convention every bucketing pass
/// (measurement probabilities, selected-branch collapse, diagonal
/// read-outs) folds full indices through.
#[inline]
pub(crate) fn local_index(full_index: usize, masks: &[usize]) -> usize {
    let k = masks.len();
    let mut local = 0usize;
    for (j, &mask) in masks.iter().enumerate() {
        if full_index & mask != 0 {
            local |= 1 << (k - 1 - j);
        }
    }
    local
}

/// Expands `i` by inserting a zero bit at each position in `sorted_bits`
/// (ascending): the `i`-th base index whose `sorted_bits` are all clear.
/// This is how the kernels enumerate exactly the `2^(n−k)` orbit bases
/// instead of scanning all `2ⁿ` indices.
#[inline]
pub(crate) fn deposit_zeros(mut i: usize, sorted_bits: &[usize]) -> usize {
    for &b in sorted_bits {
        let low = (1usize << b) - 1;
        i = ((i & !low) << 1) | (i & low);
    }
    i
}

/// The full-index offset of each local basis state under the target
/// `masks` (`masks[0]` the most significant local bit) — the inverse of
/// [`local_index`].
pub(crate) fn local_offsets(masks: &[usize]) -> Vec<usize> {
    let k = masks.len();
    (0..1usize << k)
        .map(|a| (0..k).filter(|j| a & (1 << (k - 1 - j)) != 0).map(|j| masks[j]).sum())
        .collect()
}

fn validate(amps: &[C64], n: usize, m: &Matrix, targets: &[usize]) {
    let k = targets.len();
    assert!(m.rows() == 1 << k && m.cols() == 1 << k, "operator dimension must be 2^{k}");
    assert_eq!(amps.len(), 1 << n, "amplitude array must have length 2^{n}");
    for (i, t) in targets.iter().enumerate() {
        assert!(*t < n, "target {t} out of range for {n} qubits");
        for u in &targets[i + 1..] {
            assert_ne!(t, u, "duplicate target qubit {t}");
        }
    }
}

// ---------------------------------------------------------------------------
// Split-plane (SoA) kernels
// ---------------------------------------------------------------------------
//
// States, batches and density matrices all store their amplitudes as two
// contiguous `f64` planes (real, imaginary). Every orbit is loaded into
// `C64` temporaries or raw plane scalars, transformed by the `C64::mul_add`
// chain of the reference scan (leading `0.0 +` flush terms included), and
// stored back. After inlining, LLVM sees plain scalar loops over four
// contiguous `f64` streams (lo-re, lo-im, hi-re, hi-im) with provably
// disjoint `&mut` slices, which is exactly the shape its loop vectorizer
// turns into 4-wide AVX2 code (see `.cargo/config.toml`); the explicit
// tiers of `crate::simd` take the same streams.

/// Loads amplitude `i` from split planes.
#[inline(always)]
fn ld(re: &[f64], im: &[f64], i: usize) -> C64 {
    C64::new(re[i], im[i])
}

/// Stores amplitude `i` into split planes.
#[inline(always)]
fn st(re: &mut [f64], im: &mut [f64], i: usize, z: C64) {
    re[i] = z.re;
    im[i] = z.im;
}

/// Gathers split planes into an interleaved AoS copy.
pub fn planes_to_aos(re: &[f64], im: &[f64]) -> Vec<C64> {
    debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
    re.iter().zip(im.iter()).map(|(&r, &i)| C64::new(r, i)).collect()
}

/// Scatters an interleaved AoS slice into split planes.
///
/// # Panics
///
/// Panics when the lengths disagree.
pub fn aos_to_planes(amps: &[C64], re: &mut [f64], im: &mut [f64]) {
    assert!(
        amps.len() == re.len() && amps.len() == im.len(),
        "plane lengths must match the amplitude count"
    );
    for (i, a) in amps.iter().enumerate() {
        re[i] = a.re;
        im[i] = a.im;
    }
}

fn validate_planes(re: &[f64], im: &[f64], n: usize, m: &Matrix, targets: &[usize]) {
    assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
    let k = targets.len();
    assert!(m.rows() == 1 << k && m.cols() == 1 << k, "operator dimension must be 2^{k}");
    assert_eq!(re.len(), 1 << n, "amplitude array must have length 2^{n}");
    for (i, t) in targets.iter().enumerate() {
        assert!(*t < n, "target {t} out of range for {n} qubits");
        for u in &targets[i + 1..] {
            assert_ne!(t, u, "duplicate target qubit {t}");
        }
    }
}

/// Applies an arbitrary `2ᵏ × 2ᵏ` matrix `m` on the given distinct
/// `targets` to the amplitudes of an `n`-qubit register stored as separate
/// `re`/`im` planes — the simulator's one production gate entry.
///
/// The matrix need not be unitary — measurement operators and Kraus
/// operators are applied with the same kernel. Target order is
/// significant: `targets[0]` is the most significant qubit of the local
/// index into `m`. Results are bit-for-bit identical under any thread
/// count and SIMD tier, and equal to [`apply_matrix_reference`] up to the
/// sign of zero (see the module docs).
///
/// # Panics
///
/// Panics when dimensions are inconsistent, plane lengths differ, or
/// targets repeat.
pub fn apply_matrix_planes(re: &mut [f64], im: &mut [f64], n: usize, m: &Matrix, targets: &[usize]) {
    validate_planes(re, im, n, m, targets);
    if reference_kernels_enabled() {
        // The oracle stays interleaved on purpose: gather, run the
        // reference scan, scatter — a cross-layout round trip every
        // reference-mode caller exercises for free.
        let mut amps = planes_to_aos(re, im);
        apply_matrix_reference_unchecked(&mut amps, n, m, targets);
        aos_to_planes(&amps, re, im);
        return;
    }
    match *targets {
        [t] => apply_1q_planes(re, im, n, m, t),
        [t0, t1] => apply_2q_planes(re, im, n, m, t0, t1),
        _ => apply_kq_planes(re, im, n, m, targets),
    }
}

fn apply_1q_planes(re: &mut [f64], im: &mut [f64], n: usize, m: &Matrix, t: usize) {
    let md = m.as_slice();
    let (m00, m01, m10, m11) = (md[0], md[1], md[2], md[3]);
    let mask = 1usize << qubit_bit(n, t);

    if m01 == C64::ZERO && m10 == C64::ZERO {
        apply_diag_planes(re, im, &[mask], &[m00, m11]);
        return;
    }

    // Explicit SIMD tiers (see `crate::simd` for the bitwise-oracle
    // contract): a short orbit (`mask` within one vector) runs in-register
    // over whole two-vector blocks, a long one as contiguous vector runs. A
    // short orbit on a plane shorter than every tier's block keeps the
    // scalar loop below.
    if let Some(tier) = simd::orbit_tier(simd::active_tier(), re.len(), mask) {
        let g = [m00, m01, m10, m11];
        let chain = simd::classify_1q(&g, true);
        apply_1q_dense_simd(re, im, mask, &g, chain, tier);
        return;
    }

    // Real operators (H, RY, X, …) need two real multiplies per output
    // component instead of the full complex product; everything else runs
    // the generic `C64::mul_add` chain transcribed onto raw plane scalars
    // ([`complex_pair`]: same order, same associativity, leading `0.0 +`
    // terms included). Passing scalars instead of `C64` aggregates is what lets LLVM keep the four
    // streams in vector registers: the struct round trip defeated the SLP
    // vectorizer and cost ~2× on cache-resident strided orbits.
    // The closures capture the coefficients **by value** (`move`): captured
    // by reference, every loop iteration reloads them through a double
    // indirection the alias analysis cannot hoist past the plane stores,
    // which costs ~3× on cache-resident orbits.
    if m00.im == 0.0 && m01.im == 0.0 && m10.im == 0.0 && m11.im == 0.0 {
        let (r00, r01, r10, r11) = (m00.re, m01.re, m10.re, m11.re);
        apply_1q_with_planes(re, im, mask, move |a0r, a0i, a1r, a1i| {
            (
                r00 * a0r + r01 * a1r,
                r00 * a0i + r01 * a1i,
                r10 * a0r + r11 * a1r,
                r10 * a0i + r11 * a1i,
            )
        });
    } else {
        apply_1q_with_planes(re, im, mask, move |a0r, a0i, a1r, a1i| {
            complex_pair(m00, m01, m10, m11, a0r, a0i, a1r, a1i)
        });
    }
}

/// The generic-complex orbit update `(g_row0 · a, g_row1 · a)` on raw plane
/// scalars: the exact floating-point operation sequence of
/// `C64::ZERO.mul_add(g00, a0).mul_add(g01, a1)` (and the second row),
/// leading `0.0 +` terms included — `0.0 + x` flushes a negative-zero `x`
/// to `+0.0`, so folding it away would change bits.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn complex_pair(
    g00: C64,
    g01: C64,
    g10: C64,
    g11: C64,
    a0r: f64,
    a0i: f64,
    a1r: f64,
    a1i: f64,
) -> (f64, f64, f64, f64) {
    let s0r = (0.0 + g00.re * a0r) - g00.im * a0i;
    let s0i = (0.0 + g00.re * a0i) + g00.im * a0r;
    let lor = (s0r + g01.re * a1r) - g01.im * a1i;
    let loi = (s0i + g01.re * a1i) + g01.im * a1r;
    let s1r = (0.0 + g10.re * a0r) - g10.im * a0i;
    let s1i = (0.0 + g10.re * a0i) + g10.im * a0r;
    let hir = (s1r + g11.re * a1r) - g11.im * a1i;
    let hii = (s1i + g11.re * a1i) + g11.im * a1r;
    (lor, loi, hir, hii)
}

/// Shared driver of the dense single-qubit kernels: `pair` maps the orbit
/// `(base, base|mask)` to its new values. The inner loop runs over four
/// disjoint `&mut [f64]` streams obtained by `split_at_mut`, which is the
/// noalias-friendly shape the autovectorizer needs. The orbit callback
/// takes and returns **raw scalars** (`a0.re, a0.im, a1.re, a1.im`), never
/// `C64` values: aggregate formation in the hot loop blocks SLP
/// vectorization of the four streams.
fn apply_1q_with_planes(
    re: &mut [f64],
    im: &mut [f64],
    mask: usize,
    pair: impl Fn(f64, f64, f64, f64) -> (f64, f64, f64, f64) + Copy + Sync,
) {
    // The sweep is a by-value `#[inline(always)]` helper rather than a
    // shared closure: a closure used by both the serial and the parallel
    // dispatch gets outlined, and the outlined copy re-reads the gate
    // coefficients through a captured reference on every orbit — the alias
    // analysis cannot hoist those loads past the plane stores. Inlining a
    // `Copy` closure at each call site keeps the coefficients in registers.
    #[inline(always)]
    fn sweep(
        cre: &mut [f64],
        cim: &mut [f64],
        mask: usize,
        pair: impl Fn(f64, f64, f64, f64) -> (f64, f64, f64, f64) + Copy,
    ) {
        let align = mask << 1;
        for (bre, bim) in cre.chunks_exact_mut(align).zip(cim.chunks_exact_mut(align)) {
            let (lre, hre) = bre.split_at_mut(mask);
            let (lim, him) = bim.split_at_mut(mask);
            for i in 0..mask {
                let (lr, li, hr, hi) = pair(lre[i], lim[i], hre[i], him[i]);
                lre[i] = lr;
                lim[i] = li;
                hre[i] = hr;
                him[i] = hi;
            }
        }
    }
    let align = mask << 1;
    if !qdp_par::fork_pays(re.len()) {
        sweep(re, im, mask, pair);
        return;
    }
    if re.len() / align < 2 {
        // `mask` is the top bit: the two orbit halves are contiguous; zip
        // all four streams in lockstep.
        let (lre, hre) = re.split_at_mut(mask);
        let (lim, him) = im.split_at_mut(mask);
        qdp_par::par_zip4_chunks_mut(lre, lim, hre, him, move |lr, li, hr, hi| {
            for i in 0..lr.len() {
                let (ar, ai, br, bi) = pair(lr[i], li[i], hr[i], hi[i]);
                lr[i] = ar;
                li[i] = ai;
                hr[i] = br;
                hi[i] = bi;
            }
        });
        return;
    }
    qdp_par::par_chunks2_mut(re, im, align, move |_, cre, cim| sweep(cre, cim, mask, pair));
}

/// SIMD twin of [`apply_1q_with_planes`]: the identical serial / top-bit /
/// aligned-chunk parallel split (chunk boundaries are invisible to these
/// elementwise kernels, so any split produces the same bits), with the
/// inner sweeps dispatched to the `crate::simd` tier kernels.
fn apply_1q_dense_simd(
    re: &mut [f64],
    im: &mut [f64],
    mask: usize,
    g: &[C64; 4],
    chain: Chain1q,
    tier: SimdTier,
) {
    let g = *g;
    // Chunks hold whole short-orbit blocks as well as whole orbits.
    let align = (mask << 1).max(2 * tier.lanes());
    if !qdp_par::fork_pays(re.len()) {
        simd::sweep_1q(tier, re, im, mask, &g, chain);
        return;
    }
    if re.len() / align < 2 {
        // `mask` is the top bit: the two orbit halves are contiguous; zip
        // all four streams in lockstep.
        let (lre, hre) = re.split_at_mut(mask);
        let (lim, him) = im.split_at_mut(mask);
        qdp_par::par_zip4_chunks_mut(lre, lim, hre, him, move |lr, li, hr, hi| {
            simd::run_1q(tier, lr, li, hr, hi, &g, chain);
        });
        return;
    }
    qdp_par::par_chunks2_mut(re, im, align, move |_, cre, cim| {
        simd::sweep_1q(tier, cre, cim, mask, &g, chain)
    });
}

fn apply_2q_planes(re: &mut [f64], im: &mut [f64], n: usize, m: &Matrix, t0: usize, t1: usize) {
    let md = m.as_slice();
    let mut mm = [C64::ZERO; 16];
    mm.copy_from_slice(md);
    let mask0 = 1usize << qubit_bit(n, t0); // most significant local bit
    let mask1 = 1usize << qubit_bit(n, t1);

    let diagonal = (0..4).all(|a| (0..4).all(|b| a == b || mm[4 * a + b] == C64::ZERO));
    if diagonal {
        apply_diag_planes(re, im, &[mask0, mask1], &[mm[0], mm[5], mm[10], mm[15]]);
        return;
    }

    let block_diagonal = mm[2] == C64::ZERO
        && mm[3] == C64::ZERO
        && mm[6] == C64::ZERO
        && mm[7] == C64::ZERO
        && mm[8] == C64::ZERO
        && mm[9] == C64::ZERO
        && mm[12] == C64::ZERO
        && mm[13] == C64::ZERO;
    if block_diagonal {
        apply_blockdiag_ctrl_planes(
            re,
            im,
            mask0,
            mask1,
            [mm[0], mm[1], mm[4], mm[5]],
            [mm[10], mm[11], mm[14], mm[15]],
        );
        return;
    }

    let (b_lo, b_hi) = if mask0 < mask1 {
        (mask0.trailing_zeros() as usize, mask1.trailing_zeros() as usize)
    } else {
        (mask1.trailing_zeros() as usize, mask0.trailing_zeros() as usize)
    };
    let low = (1usize << b_lo) - 1;
    let mid = (1usize << b_hi) - 1;
    let off = [0usize, mask1, mask0, mask0 | mask1];

    let quarter = re.len() >> 2;
    let body = |cre: &mut [f64], cim: &mut [f64], start: usize, end: usize, shift: usize| {
        for i in start..end {
            let x = ((i & !low) << 1) | (i & low);
            let base = (((x & !mid) << 1) | (x & mid)) - shift;
            let s = [
                ld(cre, cim, base | off[0]),
                ld(cre, cim, base | off[1]),
                ld(cre, cim, base | off[2]),
                ld(cre, cim, base | off[3]),
            ];
            for (a, &o) in off.iter().enumerate() {
                let row = 4 * a;
                let z = C64::ZERO
                    .mul_add(mm[row], s[0])
                    .mul_add(mm[row + 1], s[1])
                    .mul_add(mm[row + 2], s[2])
                    .mul_add(mm[row + 3], s[3]);
                st(cre, cim, base | o, z);
            }
        }
    };

    // Chunked-run SIMD treatment (ROADMAP item-1 follow-up): consecutive
    // base indices below bit `b_lo` are contiguous — `deposit` inserts its
    // zeros above them — so the base enumeration proceeds in runs of
    // `2^b_lo` and each run feeds the vector kernel four contiguous
    // streams at `base + off[..]`. Runs never span parallel chunks: chunk
    // starts are multiples of `2^(b_hi-1) >= 2^b_lo` quarter-indices.
    // `b_lo < 2` runs are too short for vectors and stay scalar.
    let tier = simd::active_tier();
    let simd_runs = tier != SimdTier::Scalar && b_lo >= 2;
    let run_len = 1usize << b_lo;
    let simd_body = move |cre: &mut [f64], cim: &mut [f64], start: usize, end: usize, shift: usize| {
        let mut i = start;
        while i < end {
            let x = ((i & !low) << 1) | (i & low);
            let base = (((x & !mid) << 1) | (x & mid)) - shift;
            simd::run_2q(tier, cre, cim, base, &off, &mm, run_len);
            i += run_len;
        }
    };

    let align = 1usize << (b_hi + 1);
    if qdp_par::fork_pays(re.len()) && re.len() / align >= 2 {
        qdp_par::par_chunks2_mut(re, im, align, |offset, cre, cim| {
            let first = offset >> 2;
            if simd_runs {
                simd_body(cre, cim, first, first + (cre.len() >> 2), offset);
            } else {
                body(cre, cim, first, first + (cre.len() >> 2), offset);
            }
        });
        return;
    }
    if simd_runs {
        simd_body(re, im, 0, quarter, 0);
    } else {
        body(re, im, 0, quarter, 0);
    }
}

/// Applies the 2×2 blocks `a` (control clear) and `b` (control set) of a
/// block-diagonal two-qubit operator (`cmask` is the control bit, `tmask`
/// the target bit) in contiguous orbit **runs** (like
/// [`apply_1q_with_planes`]) instead of per-orbit index arithmetic: the
/// target bit splits each `2·tmask` block into
/// lo/hi halves, and the control bit selects whole blocks (`cmask >
/// tmask`) or aligned `cmask`-length runs inside the halves (`cmask <
/// tmask`) — every inner loop is a branch-free vectorizable sweep. The
/// per-orbit arithmetic is [`complex_pair`], the exact transcription of
/// the `C64::mul_add` chain; orbits are independent, so the visit order
/// cannot change any bits.
fn apply_blockdiag_ctrl_planes(
    re: &mut [f64],
    im: &mut [f64],
    cmask: usize,
    tmask: usize,
    a: [C64; 4],
    b: [C64; 4],
) {
    let identity_a = a[0] == C64::ONE && a[1] == C64::ZERO && a[2] == C64::ZERO && a[3] == C64::ONE;
    let align = (cmask.max(tmask)) << 1;
    let tier = simd::active_tier();

    // A short target orbit (`tmask` within one vector) runs the
    // short-orbit sweep over whole chunks: per-lane blocks when the control
    // is short too, whole control segments otherwise.
    if let Some(short) = simd::short_tier(tier, re.len(), tmask) {
        let body = move |_: usize, cre: &mut [f64], cim: &mut [f64]| {
            simd::sweep_ctrl(short, cre, cim, cmask, tmask, &a, &b, identity_a);
        };
        if !qdp_par::fork_pays(re.len()) {
            body(0, re, im);
        } else {
            qdp_par::par_chunks2_mut(re, im, align.max(2 * short.lanes()), body);
        }
        return;
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run(
        g: &[C64; 4],
        lre: &mut [f64],
        lim: &mut [f64],
        hre: &mut [f64],
        him: &mut [f64],
        start: usize,
        len: usize,
    ) {
        for i in start..start + len {
            let (lr, li, hr, hi) =
                complex_pair(g[0], g[1], g[2], g[3], lre[i], lim[i], hre[i], him[i]);
            lre[i] = lr;
            lim[i] = li;
            hre[i] = hr;
            him[i] = hi;
        }
    }

    // Every control-selected segment in the general path has the same
    // loop-invariant length — `tmask` when the control sits above the
    // target, `cmask` otherwise — so decide once, outside the sweep,
    // whether segments go through the SIMD contiguous-run kernel or the
    // inline scalar loop. Keeping the choice out of the per-segment path
    // matters twice over: short segments (e.g. a CNOT whose target sits
    // near the low bit) cannot amortize the non-inlinable
    // `#[target_feature]` call, and a tier branch *inside* the hot loop
    // pessimizes the scalar body's own codegen. The scalar block-diagonal
    // kernel has no real fast path, so chains are classified with
    // `allow_real = false`.
    let seg_len = tmask.min(cmask);
    let use_simd = tier != SimdTier::Scalar && seg_len >= 32;

    let body = |offset: usize, cre: &mut [f64], cim: &mut [f64]| {
        let tb = tmask << 1;
        for (r, (bre, bim)) in
            cre.chunks_exact_mut(tb).zip(cim.chunks_exact_mut(tb)).enumerate()
        {
            let bstart = offset + r * tb;
            let (lre, hre) = bre.split_at_mut(tmask);
            let (lim, him) = bim.split_at_mut(tmask);
            if cmask > tmask {
                // The control bit is constant across this block.
                if bstart & cmask != 0 {
                    run(&b, lre, lim, hre, him, 0, tmask);
                } else if !identity_a {
                    run(&a, lre, lim, hre, him, 0, tmask);
                }
            } else {
                // `bstart` is `2·tmask`-aligned and `cmask < tmask`, so the
                // control bit of orbit `i` is `i & cmask`: control-set
                // orbits form `cmask`-length runs at odd multiples.
                let mut i = cmask;
                while i < tmask {
                    run(&b, lre, lim, hre, him, i, cmask);
                    i += cmask << 1;
                }
                if !identity_a {
                    let mut i = 0;
                    while i < tmask {
                        run(&a, lre, lim, hre, him, i, cmask);
                        i += cmask << 1;
                    }
                }
            }
        }
    };

    let chain_a = simd::classify_1q(&a, false);
    let chain_b = simd::classify_1q(&b, false);
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn seg_simd(
        tier: SimdTier,
        chain: Chain1q,
        g: &[C64; 4],
        lre: &mut [f64],
        lim: &mut [f64],
        hre: &mut [f64],
        him: &mut [f64],
        start: usize,
        len: usize,
    ) {
        let end = start + len;
        simd::run_1q(
            tier,
            &mut lre[start..end],
            &mut lim[start..end],
            &mut hre[start..end],
            &mut him[start..end],
            g,
            chain,
        );
    }
    let body_simd = |offset: usize, cre: &mut [f64], cim: &mut [f64]| {
        let tb = tmask << 1;
        for (r, (bre, bim)) in
            cre.chunks_exact_mut(tb).zip(cim.chunks_exact_mut(tb)).enumerate()
        {
            let bstart = offset + r * tb;
            let (lre, hre) = bre.split_at_mut(tmask);
            let (lim, him) = bim.split_at_mut(tmask);
            if cmask > tmask {
                // The control bit is constant across this block.
                if bstart & cmask != 0 {
                    seg_simd(tier, chain_b, &b, lre, lim, hre, him, 0, tmask);
                } else if !identity_a {
                    seg_simd(tier, chain_a, &a, lre, lim, hre, him, 0, tmask);
                }
            } else {
                // Same orbit structure as the scalar body above.
                let mut i = cmask;
                while i < tmask {
                    seg_simd(tier, chain_b, &b, lre, lim, hre, him, i, cmask);
                    i += cmask << 1;
                }
                if !identity_a {
                    let mut i = 0;
                    while i < tmask {
                        seg_simd(tier, chain_a, &a, lre, lim, hre, him, i, cmask);
                        i += cmask << 1;
                    }
                }
            }
        }
    };

    if !qdp_par::fork_pays(re.len()) {
        if use_simd {
            body_simd(0, re, im);
        } else {
            body(0, re, im);
        }
    } else if use_simd {
        qdp_par::par_chunks2_mut(re, im, align, body_simd);
    } else {
        qdp_par::par_chunks2_mut(re, im, align, body);
    }
}

/// Multiplies each amplitude by the diagonal entry selected by its target
/// bits (`masks[0]` is the most significant local bit). Amplitudes are
/// processed in runs of `min(masks)` consecutive elements — the local index
/// is constant within a run, so **identity runs are skipped entirely**
/// (that is what makes `CZ` touch a quarter of the planes and a basis
/// projector half of them), and real entries scale each plane with one
/// multiply per component — a loop the vectorizer turns into two
/// contiguous streaming multiplies.
fn apply_diag_planes(re: &mut [f64], im: &mut [f64], masks: &[usize], diag: &[C64]) {
    if diag.iter().all(|&d| d == C64::ONE) {
        return; // identity: nothing to do
    }
    let k = masks.len();
    // Infallible: diagonal kernels are only built for k ≥ 1 targets.
    #[allow(clippy::expect_used)]
    let run = *masks.iter().min().expect("diagonal kernel needs targets");

    // Per-run multiply with the entry's real/complex split — the same
    // arithmetic, element order, and identity-run skip as the generic body
    // below, shared by the single-target fast path.
    #[inline(always)]
    fn scale_run(re: &mut [f64], im: &mut [f64], d: C64) {
        if d == C64::ONE {
            return;
        }
        if d.im == 0.0 {
            let s = d.re;
            for (ar, ai) in re.iter_mut().zip(im.iter_mut()) {
                *ar *= s;
                *ai *= s;
            }
        } else {
            let (dr, di) = (d.re, d.im);
            for (ar, ai) in re.iter_mut().zip(im.iter_mut()) {
                let (r0, i0) = (*ar, *ai);
                *ar = r0 * dr - i0 * di;
                *ai = r0 * di + i0 * dr;
            }
        }
    }

    if k == 1 {
        // Single target: the plane alternates `run`-length d₀/d₁ blocks, so
        // both entries hoist out of the sweep — no per-run outcome-index
        // computation or entry reload (which dominates at small `run`).
        let (d0, d1) = (diag[0], diag[1]);
        // A short run (within one vector) scales in-register by lane-pattern
        // coefficient vectors, each lane on its entry's scalar branch.
        // Longer runs are contiguous scales the autovectorizer handles.
        if let Some(short) = simd::short_tier(simd::active_tier(), re.len(), run) {
            let kind = simd::classify_diag(d0, d1);
            let body = move |_: usize, cre: &mut [f64], cim: &mut [f64]| {
                simd::sweep_diag(short, cre, cim, run, d0, d1, kind);
            };
            if !qdp_par::fork_pays(re.len()) {
                body(0, re, im);
            } else {
                qdp_par::par_chunks2_mut(re, im, (run << 1).max(2 * short.lanes()), body);
            }
            return;
        }
        let body = move |_: usize, cre: &mut [f64], cim: &mut [f64]| {
            let block = run << 1;
            for (bre, bim) in cre.chunks_exact_mut(block).zip(cim.chunks_exact_mut(block)) {
                let (lre, hre) = bre.split_at_mut(run);
                let (lim, him) = bim.split_at_mut(run);
                scale_run(lre, lim, d0);
                scale_run(hre, him, d1);
            }
        };
        if !qdp_par::fork_pays(re.len()) {
            body(0, re, im);
        } else {
            qdp_par::par_chunks2_mut(re, im, run << 1, body);
        }
        return;
    }

    let body = |offset: usize, cre: &mut [f64], cim: &mut [f64]| {
        for (r, (bre, bim)) in cre
            .chunks_exact_mut(run)
            .zip(cim.chunks_exact_mut(run))
            .enumerate()
        {
            let start = offset + r * run;
            let mut local = 0usize;
            for (j, &mask) in masks.iter().enumerate() {
                if start & mask != 0 {
                    local |= 1 << (k - 1 - j);
                }
            }
            let d = diag[local];
            if d == C64::ONE {
                continue;
            }
            if d.im == 0.0 {
                let s = d.re;
                for (ar, ai) in bre.iter_mut().zip(bim.iter_mut()) {
                    *ar *= s;
                    *ai *= s;
                }
            } else {
                // Raw-scalar transcription of `C64::new(*ar, *ai) * d` —
                // same operations, same order; forming the `C64` aggregate
                // in the loop keeps the two streams out of vector registers.
                let (dr, di) = (d.re, d.im);
                for (ar, ai) in bre.iter_mut().zip(bim.iter_mut()) {
                    let (r0, i0) = (*ar, *ai);
                    *ar = r0 * dr - i0 * di;
                    *ai = r0 * di + i0 * dr;
                }
            }
        }
    };
    if !qdp_par::fork_pays(re.len()) {
        body(0, re, im);
    } else {
        qdp_par::par_chunks2_mut(re, im, run, body);
    }
}

fn apply_kq_planes(re: &mut [f64], im: &mut [f64], n: usize, m: &Matrix, targets: &[usize]) {
    let k = targets.len();
    let dim_local = 1usize << k;
    let masks: Vec<usize> = targets.iter().map(|&t| 1usize << qubit_bit(n, t)).collect();

    let mut offsets = vec![0usize; dim_local];
    for (a, off) in offsets.iter_mut().enumerate() {
        for (j, mask) in masks.iter().enumerate() {
            if a & (1 << (k - 1 - j)) != 0 {
                *off |= mask;
            }
        }
    }

    let mut bits: Vec<usize> = masks.iter().map(|m| m.trailing_zeros() as usize).collect();
    bits.sort_unstable();

    let md = m.as_slice();
    let n_bases = 1usize << (n - k);

    // Chunked-run treatment (ROADMAP item-1 follow-up): base indices below
    // bit `bits[0]` pass through `deposit_zeros` unchanged, so consecutive
    // `i` under `2^bits[0]` yield consecutive bases — each run feeds the
    // vector kernel `2^k` contiguous streams at `base + offsets[..]`.
    // `k <= 5` keeps the per-run scratch inside the kernel's stack arrays;
    // shorter runs (`bits[0] < 2`) stay on the scalar path.
    let tier = simd::active_tier();
    if tier != SimdTier::Scalar && k <= 5 && bits[0] >= 2 {
        let run_len = 1usize << bits[0];
        let mut i = 0usize;
        while i < n_bases {
            let base = deposit_zeros(i, &bits);
            simd::run_kq(tier, re, im, base, &offsets, md, run_len.min(n_bases - i));
            i += run_len;
        }
        return;
    }

    let mut scratch = vec![C64::ZERO; dim_local];
    for i in 0..n_bases {
        let base = deposit_zeros(i, &bits);
        for (slot, &off) in scratch.iter_mut().zip(offsets.iter()) {
            *slot = ld(re, im, base | off);
        }
        for (a, &off) in offsets.iter().enumerate() {
            let row = a * dim_local;
            let mut acc = C64::ZERO;
            for (b, &sb) in scratch.iter().enumerate() {
                acc = acc.mul_add(md[row + b], sb);
            }
            st(re, im, base | off, acc);
        }
    }
}

// ---------------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------------

/// The original full-range-scan kernel: visits every one of the `2ⁿ` indices
/// and branch-tests for base membership, gathering through [`Matrix::get`]
/// with heap scratch.
///
/// Kept as the *slow, obviously-correct* implementation that the fast paths
/// are validated against, and as the baseline the benchmarks measure
/// speedups over. Production paths never call it directly (but see
/// [`set_reference_kernels`]).
pub fn apply_matrix_reference(amps: &mut [C64], n: usize, m: &Matrix, targets: &[usize]) {
    validate(amps, n, m, targets);
    apply_matrix_reference_unchecked(amps, n, m, targets);
}

fn apply_matrix_reference_unchecked(amps: &mut [C64], n: usize, m: &Matrix, targets: &[usize]) {
    let k = targets.len();
    let dim_local = 1usize << k;
    let masks: Vec<usize> = targets.iter().map(|&t| 1usize << qubit_bit(n, t)).collect();
    let all_mask: usize = masks.iter().sum();

    let offsets = local_offsets(&masks);

    let mut scratch = vec![C64::ZERO; dim_local];
    let full = 1usize << n;
    let mut base = 0usize;
    while base < full {
        if base & all_mask == 0 {
            for (a, &off) in offsets.iter().enumerate() {
                scratch[a] = amps[base | off];
            }
            for a in 0..dim_local {
                let mut acc = C64::ZERO;
                for (b, &sb) in scratch.iter().enumerate() {
                    acc = acc.mul_add(m.get(a, b), sb);
                }
                amps[base | offsets[a]] = acc;
            }
        }
        base += 1;
    }
}

/// Embeds a `2ᵏ × 2ᵏ` operator on `targets` into the full `2ⁿ × 2ⁿ` space.
///
/// This is the *slow, obviously-correct* lift used by tests to validate the
/// kernels; production paths never call it.
pub fn embed(n: usize, m: &Matrix, targets: &[usize]) -> Matrix {
    let k = targets.len();
    assert!(m.rows() == 1 << k && m.cols() == 1 << k);
    let full = 1usize << n;
    let masks: Vec<usize> = targets.iter().map(|&t| 1usize << qubit_bit(n, t)).collect();
    let all_mask: usize = masks.iter().sum();

    let mut out = Matrix::zeros(full, full);
    for i in 0..full {
        for j in 0..full {
            if (i & !all_mask) == (j & !all_mask) {
                out.set(i, j, m.get(local_index(i, &masks), local_index(j, &masks)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_linalg::CVector;

    fn rand_amps(n: usize, seed: u64) -> Vec<C64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..1usize << n).map(|_| C64::new(next(), next())).collect()
    }

    fn split(amps: &[C64]) -> (Vec<f64>, Vec<f64>) {
        (amps.iter().map(|a| a.re).collect(), amps.iter().map(|a| a.im).collect())
    }

    /// `m` on `targets` through the production plane kernel, gathered back
    /// into interleaved amplitudes.
    fn apply(amps: &[C64], n: usize, m: &Matrix, targets: &[usize]) -> Vec<C64> {
        let (mut re, mut im) = split(amps);
        apply_matrix_planes(&mut re, &mut im, n, m, targets);
        planes_to_aos(&re, &im)
    }

    fn reference(amps: &[C64], n: usize, m: &Matrix, targets: &[usize]) -> Vec<C64> {
        let mut out = amps.to_vec();
        apply_matrix_reference(&mut out, n, m, targets);
        out
    }

    fn toffoli() -> Matrix {
        let mut t = Matrix::identity(8);
        t.set(6, 6, C64::ZERO);
        t.set(7, 7, C64::ZERO);
        t.set(6, 7, C64::ONE);
        t.set(7, 6, C64::ONE);
        t
    }

    #[test]
    fn single_qubit_kernel_matches_embed() {
        let h = Matrix::hadamard();
        for n in 1..=4usize {
            for t in 0..n {
                let amps = rand_amps(n, (n * 10 + t) as u64);
                let expected = embed(n, &h, &[t]).mul_vec(&CVector::new(amps.clone()));
                let got = apply(&amps, n, &h, &[t]);
                assert!(CVector::new(got).approx_eq(&expected, 1e-12), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn two_qubit_kernel_matches_embed() {
        // CNOT (block-diagonal) and a dense RXX-style rotation.
        let sigma2 = Matrix::pauli_x().kron(&Matrix::pauli_x());
        let rxx = Matrix::rotation_from_involution(&sigma2, 0.83);
        for m in [Matrix::cnot(), rxx] {
            for n in 2..=5usize {
                for t0 in 0..n {
                    for t1 in (0..n).filter(|&t1| t1 != t0) {
                        let amps = rand_amps(n, (n * 100 + t0 * 10 + t1) as u64 ^ 0xFACE);
                        let expected =
                            embed(n, &m, &[t0, t1]).mul_vec(&CVector::new(amps.clone()));
                        let got = apply(&amps, n, &m, &[t0, t1]);
                        assert!(
                            CVector::new(got).approx_eq(&expected, 1e-12),
                            "n={n} targets=({t0},{t1})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_fast_path_matches_embed() {
        let rz = Matrix::rotation_from_involution(&Matrix::pauli_z(), 0.6);
        let cz = Matrix::diagonal(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE]);
        for n in 2..=4usize {
            for t in 0..n {
                let amps = rand_amps(n, (77 + n * 10 + t) as u64);
                let expected = embed(n, &rz, &[t]).mul_vec(&CVector::new(amps.clone()));
                let got = apply(&amps, n, &rz, &[t]);
                assert!(CVector::new(got).approx_eq(&expected, 1e-12), "rz n={n} t={t}");
            }
            let amps = rand_amps(n, 99 + n as u64);
            let expected = embed(n, &cz, &[0, n - 1]).mul_vec(&CVector::new(amps.clone()));
            let got = apply(&amps, n, &cz, &[0, n - 1]);
            assert!(CVector::new(got).approx_eq(&expected, 1e-12), "cz n={n}");
        }
    }

    #[test]
    fn three_qubit_kernel_matches_embed() {
        // An 8×8 operator (Toffoli-like permutation) on scattered targets.
        let toffoli = toffoli();
        for (n, targets) in [(3usize, vec![0usize, 1, 2]), (4, vec![3, 0, 2]), (5, vec![4, 1, 3])] {
            let amps = rand_amps(n, 7 * n as u64);
            let expected = embed(n, &toffoli, &targets).mul_vec(&CVector::new(amps.clone()));
            let got = apply(&amps, n, &toffoli, &targets);
            assert!(
                CVector::new(got).approx_eq(&expected, 1e-12),
                "n={n} targets={targets:?}"
            );
        }
    }

    #[test]
    fn target_order_is_significant() {
        // CNOT with control q1 / target q0 differs from control q0 / target q1.
        let mut a = vec![C64::ZERO; 4];
        a[1] = C64::ONE; // |01⟩: q0=0, q1=1
        let a = apply(&a, 2, &Matrix::cnot(), &[1, 0]); // control q1 → flips q0
        assert!(a[3].approx_eq(C64::ONE, 1e-15)); // |11⟩
    }

    /// The density convention: on a `2ⁿ × 2ⁿ` row-major plane pair viewed
    /// as `2n` qubits, `m` on `targets` is `ρ ← m·ρ` and `mᵀ` on
    /// `targets + n` is `ρ ← ρ·m`.
    #[test]
    fn shifted_targets_multiply_density_rows_and_columns() {
        let u = Matrix::rotation_from_involution(&Matrix::pauli_y(), 1.1).mul(&Matrix::hadamard());
        for n in 1..=3usize {
            let dim = 1 << n;
            let flat = rand_amps(2 * n, 99 + n as u64);
            let rho = Matrix::from_data(dim, dim, flat.clone());
            for t in 0..n {
                let lifted = embed(n, &u, &[t]);
                let left = apply(&flat, 2 * n, &u, &[t]);
                let expected = lifted.mul(&rho);
                assert!(Matrix::from_data(dim, dim, left).approx_eq(&expected, 1e-12));
                let right = apply(&flat, 2 * n, &u.transpose(), &[t + n]);
                let expected = rho.mul(&lifted);
                assert!(Matrix::from_data(dim, dim, right).approx_eq(&expected, 1e-12));
            }
        }
    }

    /// Every kernel shape (dense and real 1q, diagonal, controlled, dense
    /// 2q, projector, k = 3) against the reference scan on `n` qubits.
    ///
    /// Both sides are compared after `x + 0.0`, which maps `-0.0` to
    /// `+0.0` and leaves every other value alone: the scan accumulates each
    /// output from `+0.0`, so where an operator has zero entries (the
    /// projector, the untouched identity block of a controlled gate) the
    /// fast path's `-0.0` comes out of the scan as `+0.0`. Everything else
    /// is pinned bit for bit.
    fn assert_fast_matches_reference(n: usize, gates: &[(Matrix, Vec<usize>)], seed: u64) {
        let canon = |x: f64| (x + 0.0).to_bits();
        let amps = rand_amps(n, seed);
        for (g, targets) in gates {
            let fast = apply(&amps, n, g, targets);
            let slow = reference(&amps, n, g, targets);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(canon(a.re), canon(b.re), "{targets:?} re[{i}]");
                assert_eq!(canon(a.im), canon(b.im), "{targets:?} im[{i}]");
            }
        }
    }

    #[test]
    fn fast_kernels_match_reference_bitwise() {
        let gates: Vec<(Matrix, Vec<usize>)> = vec![
            (Matrix::hadamard(), vec![2]),
            (Matrix::rotation_from_involution(&Matrix::pauli_y(), 0.9), vec![4]),
            (Matrix::rotation_from_involution(&Matrix::pauli_x(), 1.2), vec![0]),
            (Matrix::rotation_from_involution(&Matrix::pauli_z(), 0.3), vec![0]),
            (Matrix::diagonal(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE]), vec![1, 4]),
            (Matrix::cnot(), vec![1, 3]),
            (Matrix::cnot(), vec![4, 0]),
            (
                Matrix::rotation_from_involution(
                    &Matrix::pauli_y().kron(&Matrix::pauli_y()),
                    0.7,
                ),
                vec![3, 0],
            ),
            (Matrix::basis_projector(2, 0), vec![2]),
            (toffoli(), vec![4, 1, 3]),
        ];
        assert_fast_matches_reference(5, &gates, 42);
    }

    /// Same pin above the parallel threshold, exercising all three split
    /// strategies: aligned chunks (low target), four-stream zip (top bit),
    /// and the 2q chunked path.
    #[test]
    #[cfg_attr(miri, ignore = "2^19 amplitudes: too large for the interpreter")]
    fn fast_kernels_match_reference_bitwise_above_parallel_threshold() {
        const N: usize = qdp_par::FORK_MIN_WORK.ilog2() as usize + 1;
        const { assert!(1 << N > qdp_par::FORK_MIN_WORK) };
        let n = N;
        let gates: Vec<(Matrix, Vec<usize>)> = vec![
            (Matrix::hadamard(), vec![n - 1]), // low bit → aligned chunks
            (Matrix::hadamard(), vec![0]),     // top bit → zip halves
            (Matrix::rotation_from_involution(&Matrix::pauli_z(), 0.3), vec![2]),
            (Matrix::cnot(), vec![0, n - 1]),
            (
                Matrix::rotation_from_involution(
                    &Matrix::pauli_x().kron(&Matrix::pauli_x()),
                    0.5,
                ),
                vec![1, n - 2],
            ),
        ];
        assert_fast_matches_reference(n, &gates, 7);
    }

    #[test]
    fn reference_mode_switch_routes_and_restores() {
        assert!(!reference_kernels_enabled());
        let amps = rand_amps(4, 9);
        let expected = reference(&amps, 4, &Matrix::hadamard(), &[1]);
        set_reference_kernels(true);
        assert!(reference_kernels_enabled());
        let got = apply(&amps, 4, &Matrix::hadamard(), &[1]);
        set_reference_kernels(false);
        assert_eq!(got, expected);
        assert!(!reference_kernels_enabled());
    }

    #[test]
    fn non_unitary_operators_apply_fine() {
        // Projector |0⟩⟨0| on qubit 1 of 2.
        let p0 = Matrix::basis_projector(2, 0);
        let amps = apply(&[C64::ONE.scale(0.5); 4], 2, &p0, &[1]);
        // Amplitudes with q1=1 are killed.
        assert_eq!(amps[1], C64::ZERO);
        assert_eq!(amps[3], C64::ZERO);
        assert!(amps[0].approx_eq(C64::real(0.5), 1e-15));
    }

    #[test]
    fn planes_aos_conversions_round_trip() {
        let amps = rand_amps(3, 11);
        let (re, im) = split(&amps);
        assert_eq!(planes_to_aos(&re, &im), amps);
        let mut re2 = vec![0.0; 8];
        let mut im2 = vec![0.0; 8];
        aos_to_planes(&amps, &mut re2, &mut im2);
        assert_eq!(re2, re);
        assert_eq!(im2, im);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_plane_lengths_panic() {
        let mut re = vec![0.0; 4];
        let mut im = vec![0.0; 2];
        apply_matrix_planes(&mut re, &mut im, 2, &Matrix::hadamard(), &[0]);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_panic_on_planes() {
        let mut re = vec![0.0; 4];
        let mut im = vec![0.0; 4];
        apply_matrix_planes(&mut re, &mut im, 2, &Matrix::cnot(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate target")]
    fn duplicate_targets_panic_on_reference() {
        let mut amps = vec![C64::ZERO; 4];
        apply_matrix_reference(&mut amps, 2, &Matrix::cnot(), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let mut re = vec![0.0; 2];
        let mut im = vec![0.0; 2];
        apply_matrix_planes(&mut re, &mut im, 1, &Matrix::hadamard(), &[1]);
    }
}
