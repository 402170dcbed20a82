//! Explicit `core::arch::x86_64` SIMD kernels under the kernel seam.
//!
//! PR 7 split the state into SoA re/im planes precisely so this layer could
//! exist; this module is the explicit-vector half of that bargain. It holds
//! hand-written AVX2+FMA and AVX-512F kernels for the hot dispatch classes
//! where the autovectorizer tops out (see ROADMAP item 1 follow-ups). An
//! orbit mask is **short** at a tier when it fits inside one vector
//! (`mask ≤ W`: 1, 2, 4, 8 at AVX-512, 1, 2, 4 at AVX2) and **long**
//! otherwise:
//!
//! * long dense-1q orbits (`run`/`sweep_1q`) — contiguous runs of 4 (AVX2)
//!   or 8 (AVX-512) amplitude pairs per iteration on the re/im planes;
//! * the short-orbit family (`short_1q`, `short_ctrl`, `short_diag`) — one
//!   hoisted loop over whole `2·W`-amplitude blocks with the coefficients
//!   broadcast once. A block loads as two full vectors per plane; dense
//!   kernels split it in-register into its `W` orbit pairs (two-source lane
//!   permutes `_mm512_permutex2var_pd`, `_mm256_unpacklo/hi_pd`,
//!   `_mm256_permute2f128_pd`; no permute when `mask = W`), run the chain
//!   on `(a0, a1)` — each orbit's low and high amplitude — and interleave
//!   back. It covers dense 1q gates, block-diagonal 2q gates whose target
//!   is short (per-lane coefficients picked by the control bit when the
//!   control is short too, identity-block lanes blended back unchanged,
//!   never multiplied by 1; whole control segments otherwise), and
//!   diagonal 1q gates (lane-pattern coefficient vectors);
//! * the chunked-run dense 2q path and the k ≥ 3 fallback (`run_2q`,
//!   `run_kq`) — hoisted base enumeration with vector loads on the
//!   innermost contiguous runs;
//! * the `lanes.rs` |amp|² reduction accumulator (`accumulate_lanes`) —
//!   the four LANES partials ride one AVX2 register, preserving the
//!   index-partition combine tree bitwise.
//!
//! A short orbit on a plane shorter than one block of the active tier runs
//! one tier down (`short_tier`), or on the scalar loop when no tier's
//! block fits.
//!
//! # The bitwise-oracle contract
//!
//! Every kernel here transcribes the scalar plane kernels' floating-point
//! operation sequence **intrinsic for intrinsic**: `_mm*_mul_pd` +
//! `_mm*_add_pd`/`_mm*_sub_pd` in the exact order and association of the
//! two-rounding [`qdp_linalg::C64::mul_add`] chain (`complex_pair` in
//! `kernels.rs`), leading `0.0 +` flush terms included. No FMA contraction
//! is performed (the `fma` target feature is enabled for the detection
//! contract, but no `vfmadd` intrinsic is emitted) — results agree **bit
//! for bit** with the scalar plane kernels for every input, and hence with
//! the reference scan (`kernels::apply_matrix_reference`) up to the sign of
//! zero (see the `kernels` module docs). Permutes and blends move values
//! without rounding them, so the short-orbit kernels inherit the contract
//! lane by lane.
//!
//! The one deliberate exception is the **cross-structured chain**
//! (`Chain1q::Cross`): gates whose diagonal is real and whose off-diagonal
//! is imaginary (bit-pattern `+0.0` in the dead components — the RX/RY
//! shape) collapse the 28-operation generic chain to 16 operations by
//! dropping multiplications by those `+0.0` components. For **finite**
//! inputs this is bitwise-exact — every dropped term is a `± x*0.0 = ±0.0`
//! additive step that the leading `0.0 +` flush makes an identity — and the
//! differential suite pins it bitwise against the scalar kernels. For
//! non-finite inputs (`NaN`/`±inf` amplitudes) the dropped `0.0 * NaN`
//! terms change the result, but only in the orbits that hold the
//! non-finite amplitude, so only in its own row of a batch (the
//! differential suite pins that extent); poisoned planes are still caught
//! by the health monitor's reductions, which never use this chain.
//! Vector-loop remainders of the long runs always use the exact generic
//! chain; the short-orbit kernels have no remainder.
//!
//! # Dispatch and fallback
//!
//! Everything sits behind runtime [`active_tier`] dispatch:
//! `is_x86_feature_detected!` picks the widest supported tier once
//! (`avx512f+avx2+fma` → [`SimdTier::Avx512`], `avx2+fma` →
//! [`SimdTier::Avx2`], else [`SimdTier::Scalar`]), capped by the
//! `QDP_SIMD` environment variable (`scalar`/`off`/`0`, `avx2`) or
//! [`set_tier_cap`]. On non-x86_64 targets and under Miri the intrinsics
//! are compiled out entirely and the tier is always `Scalar`; `kernels.rs`
//! keeps the scalar plane kernels verbatim as the portable fallback and as
//! the second oracle layer. Because every tier is bitwise-identical on
//! finite data, the tier is *not* part of the determinism contract — only
//! the thread count ever was, and it still isn't observable.
#![warn(clippy::undocumented_unsafe_blocks)]
#![allow(clippy::needless_range_loop)]

use qdp_linalg::C64;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Runtime tier selection
// ---------------------------------------------------------------------------

/// Instruction-set tier a kernel dispatch may use. Ordered: wider tiers
/// compare greater, so `detected.min(cap)` is the active tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdTier {
    /// Portable scalar plane kernels (the PR-7 autovectorized paths).
    Scalar = 0,
    /// AVX2 + FMA: 4 × f64 lanes.
    Avx2 = 1,
    /// AVX-512F (+ AVX2 + FMA for the remainder kernels): 8 × f64 lanes.
    Avx512 = 2,
}

const TIER_UNINIT: u8 = u8::MAX;
/// Lazily detected hardware tier (`TIER_UNINIT` until first query).
static DETECTED: AtomicU8 = AtomicU8::new(TIER_UNINIT);
/// Lazily initialised cap (`QDP_SIMD` env var or [`set_tier_cap`]).
static CAP: AtomicU8 = AtomicU8::new(TIER_UNINIT);

#[inline]
fn tier_from_u8(v: u8) -> SimdTier {
    match v {
        0 => SimdTier::Scalar,
        1 => SimdTier::Avx2,
        _ => SimdTier::Avx512,
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn detect() -> SimdTier {
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
    {
        SimdTier::Avx512
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
fn detect() -> SimdTier {
    SimdTier::Scalar
}

/// The widest tier the running CPU supports (detected once, cached).
pub fn detected_tier() -> SimdTier {
    let v = DETECTED.load(Ordering::Relaxed);
    if v != TIER_UNINIT {
        return tier_from_u8(v);
    }
    let t = detect();
    DETECTED.store(t as u8, Ordering::Relaxed);
    t
}

fn cap_from_env() -> SimdTier {
    match std::env::var("QDP_SIMD").ok().as_deref() {
        Some("0") | Some("off") | Some("scalar") => SimdTier::Scalar,
        Some("avx2") => SimdTier::Avx2,
        _ => SimdTier::Avx512,
    }
}

/// The configured tier ceiling — `QDP_SIMD` on first query, then whatever
/// [`set_tier_cap`] last stored.
pub fn tier_cap() -> SimdTier {
    let v = CAP.load(Ordering::Relaxed);
    if v != TIER_UNINIT {
        return tier_from_u8(v);
    }
    let t = cap_from_env();
    CAP.store(t as u8, Ordering::Relaxed);
    t
}

/// Caps the active tier at `cap` (testing/bench hook; `Avx512` uncaps).
/// Safe to flip at any time from any thread: every tier produces identical
/// bits on finite data, so a mid-sweep change cannot be observed in
/// results, only in speed.
pub fn set_tier_cap(cap: SimdTier) {
    CAP.store(cap as u8, Ordering::Relaxed);
}

/// The tier kernel dispatch actually uses: `detected_tier().min(tier_cap())`.
pub fn active_tier() -> SimdTier {
    detected_tier().min(tier_cap())
}

impl SimdTier {
    /// The `f64` lanes of one vector at this tier (1 for `Scalar`): the
    /// widest orbit mask the tier runs as a short orbit.
    pub fn lanes(self) -> usize {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 4,
            SimdTier::Avx512 => 8,
        }
    }
}

/// The tier that runs an orbit of `mask` on a `len`-amplitude (sub-)plane
/// as a **short orbit**: the widest vector tier up to `tier` whose vectors
/// hold the orbit (`mask ≤ lanes`) and whose two-vector block divides the
/// plane. `None` at the scalar tier, for a long orbit, or when no block
/// fits (a plane shorter than one block keeps the scalar loop).
pub(crate) fn short_tier(tier: SimdTier, len: usize, mask: usize) -> Option<SimdTier> {
    [SimdTier::Avx512, SimdTier::Avx2]
        .into_iter()
        .find(|&t| t <= tier && mask <= t.lanes() && len.is_multiple_of(2 * t.lanes()))
}

/// The tier that takes a dense-1q orbit of `mask` on a `len`-amplitude
/// plane: `tier` itself for a long orbit (contiguous runs of whole
/// vectors), [`short_tier`] for a short one, `None` at the scalar tier.
pub(crate) fn orbit_tier(tier: SimdTier, len: usize, mask: usize) -> Option<SimdTier> {
    match tier {
        SimdTier::Scalar => None,
        _ if mask > tier.lanes() => Some(tier),
        _ => short_tier(tier, len, mask),
    }
}

// ---------------------------------------------------------------------------
// Chain classification
// ---------------------------------------------------------------------------

/// Which floating-point chain a 1q-style (2×2) gate runs under. Mirrors the
/// scalar dispatch in `apply_1q_planes` exactly so SIMD and scalar always
/// take the same arithmetic for the same gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Chain1q {
    /// All four entries real (`im == 0.0`, sign ignored — the scalar
    /// real-path test): the 8-op real chain.
    Real,
    /// Real diagonal, imaginary off-diagonal, with the dead components
    /// bit-pattern `+0.0` (RX/RY shape): the reduced 16-op chain, bitwise
    /// equal to the generic chain on finite inputs (see module docs).
    Cross,
    /// The generic 28-op `complex_pair` chain.
    Full,
}

/// Classifies a 2×2 gate's chain. `allow_real` mirrors the caller's scalar
/// dispatch: the dense-1q path has a real fast path (checked **first**,
/// accepting `-0.0`), the block-diagonal path always runs `complex_pair`.
pub(crate) fn classify_1q(g: &[C64; 4], allow_real: bool) -> Chain1q {
    if allow_real && g[0].im == 0.0 && g[1].im == 0.0 && g[2].im == 0.0 && g[3].im == 0.0 {
        return Chain1q::Real;
    }
    // The Cross reduction drops `x * g.component` products, which is only
    // an identity when the dead component is exactly `+0.0` (a `-0.0`
    // factor flips the sign of a `+0.0` product and changes bits).
    if g[0].im.to_bits() == 0
        && g[3].im.to_bits() == 0
        && g[1].re.to_bits() == 0
        && g[2].re.to_bits() == 0
    {
        return Chain1q::Cross;
    }
    Chain1q::Full
}

/// Which branch of the scalar diagonal kernel (`scale_run`) a 1q diagonal
/// `diag(d0, d1)` takes on its lanes: that kernel skips `C64::ONE` entries,
/// scales both planes by a real entry (`im == 0.0`), and runs the complex
/// product otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DiagKind {
    /// Both entries real, neither the identity: one multiply per plane.
    Real,
    /// Both entries complex: the complex product on every lane.
    Complex,
    /// An identity entry, or one real and one complex entry: both products
    /// computed and picked per lane, identity lanes kept unchanged.
    Mixed,
}

/// Classifies `diag(d0, d1)` by the scalar kernel's per-entry branches.
pub(crate) fn classify_diag(d0: C64, d1: C64) -> DiagKind {
    if d0 == C64::ONE || d1 == C64::ONE || (d0.im == 0.0) != (d1.im == 0.0) {
        DiagKind::Mixed
    } else if d0.im == 0.0 {
        DiagKind::Real
    } else {
        DiagKind::Complex
    }
}

/// Chain and diagonal-branch selectors as const-generic arguments of the
/// width kernels (one monomorphised loop per chain, no branch inside).
#[cfg(all(target_arch = "x86_64", not(miri)))]
const FULL: u8 = 0;
#[cfg(all(target_arch = "x86_64", not(miri)))]
const CROSS: u8 = 1;
#[cfg(all(target_arch = "x86_64", not(miri)))]
const REAL: u8 = 2;
#[cfg(all(target_arch = "x86_64", not(miri)))]
const MIXED: u8 = 3;

// ---------------------------------------------------------------------------
// x86_64 kernel backend
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use super::{classify_1q, Chain1q, DiagKind, SimdTier};
    use super::{CROSS, FULL, MIXED, REAL};
    use qdp_linalg::C64;

    /// In-register shuffles for the AVX2 width. `deint::<M>` splits one
    /// 8-amplitude block `v0 ‖ v1` into its four mask-`M` orbit pairs
    /// `(lo, hi)` and `inter::<M>` is its exact inverse. For `M = 1` the
    /// unpack order is `[p0 p2 p1 p3]` — harmless, because every chain is
    /// elementwise and every lane pattern goes through the same `deint`.
    /// `Mask`/`nonzero`/`select` are the per-lane predicate, its
    /// construction, and a blend.
    mod shuf256 {
        use std::arch::x86_64::*;

        pub(super) type Mask = __m256d;

        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn deint<const M: usize>(v0: __m256d, v1: __m256d) -> (__m256d, __m256d) {
            match M {
                1 => (_mm256_unpacklo_pd(v0, v1), _mm256_unpackhi_pd(v0, v1)),
                2 => (
                    _mm256_permute2f128_pd::<0x20>(v0, v1),
                    _mm256_permute2f128_pd::<0x31>(v0, v1),
                ),
                // `M = 4`: the two vectors are the orbit halves.
                _ => (v0, v1),
            }
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn inter<const M: usize>(lo: __m256d, hi: __m256d) -> (__m256d, __m256d) {
            // Each split above is its own inverse.
            deint::<M>(lo, hi)
        }

        /// Lanes of `v` that are not `0.0`.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn nonzero(v: __m256d) -> Mask {
            _mm256_cmp_pd::<_CMP_NEQ_UQ>(v, _mm256_setzero_pd())
        }

        /// `if_set` on the lanes of `m`, `if_clear` elsewhere.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn select(m: Mask, if_set: __m256d, if_clear: __m256d) -> __m256d {
            _mm256_blendv_pd(if_clear, if_set, m)
        }
    }

    /// In-register shuffles for the AVX-512 width, via two-source lane
    /// permutes over one 16-amplitude block `v0 ‖ v1`: `deint::<M>` is
    /// index-exact (`lo` holds the block's mask-`M`-clear indices in
    /// order) and `inter::<M>` restores the original interleaving.
    mod shuf512 {
        use std::arch::x86_64::*;

        pub(super) type Mask = __mmask8;

        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn deint<const M: usize>(v0: __m512d, v1: __m512d) -> (__m512d, __m512d) {
            let (lo, hi) = match M {
                1 => (
                    _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                    _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
                ),
                2 => (
                    _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
                    _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
                ),
                4 => (
                    _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                    _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                ),
                // `M = 8`: the two vectors are the orbit halves.
                _ => return (v0, v1),
            };
            (
                _mm512_permutex2var_pd(v0, lo, v1),
                _mm512_permutex2var_pd(v0, hi, v1),
            )
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn inter<const M: usize>(lo: __m512d, hi: __m512d) -> (__m512d, __m512d) {
            let (i0, i1) = match M {
                1 => (
                    _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
                    _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
                ),
                2 => (
                    _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
                    _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
                ),
                4 => (
                    _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                    _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                ),
                _ => return (lo, hi),
            };
            (
                _mm512_permutex2var_pd(lo, i0, hi),
                _mm512_permutex2var_pd(lo, i1, hi),
            )
        }

        /// Lanes of `v` that are not `0.0`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn nonzero(v: __m512d) -> Mask {
            _mm512_cmpneq_pd_mask(v, _mm512_setzero_pd())
        }

        /// `if_set` on the lanes of `m`, `if_clear` elsewhere.
        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn select(m: Mask, if_set: __m512d, if_clear: __m512d) -> __m512d {
            _mm512_mask_blend_pd(m, if_clear, if_set)
        }
    }

    /// Scalar remainder kernels: raw-pointer loops running the **exact**
    /// scalar plane chains (`complex_pair` and the real chain), shared as
    /// the tail of every long-run vector loop so remainders always carry
    /// the same bits as the scalar kernels — including for non-finite
    /// inputs, where the Cross vector body diverges (remainders never use
    /// the reduced chain).
    ///
    /// Every fn here has the contract: all `ptr.add(idx)` touched for
    /// `idx` in the documented range must be in-bounds of a live `f64`
    /// allocation the caller has exclusive access to. The safe wrappers at
    /// the bottom of this module establish that from `&mut [f64]` slices.
    mod tails {
        use super::REAL;
        use crate::kernels::complex_pair;
        use qdp_linalg::C64;

        /// The remainder of chain `C`: the real chain for `REAL`, the
        /// generic chain otherwise.
        ///
        /// # Safety
        /// `lr/li/hr/hi + 0..len` must be in-bounds and mutually disjoint.
        pub(super) unsafe fn run<const C: u8>(
            lr: *mut f64,
            li: *mut f64,
            hr: *mut f64,
            hi: *mut f64,
            len: usize,
            g: &[C64; 4],
        ) {
            if C == REAL {
                let (r00, r01, r10, r11) = (g[0].re, g[1].re, g[2].re, g[3].re);
                for i in 0..len {
                    let (a0r, a0i, a1r, a1i) = (*lr.add(i), *li.add(i), *hr.add(i), *hi.add(i));
                    *lr.add(i) = r00 * a0r + r01 * a1r;
                    *li.add(i) = r00 * a0i + r01 * a1i;
                    *hr.add(i) = r10 * a0r + r11 * a1r;
                    *hi.add(i) = r10 * a0i + r11 * a1i;
                }
                return;
            }
            for i in 0..len {
                let (a, b, c, d) = complex_pair(
                    g[0],
                    g[1],
                    g[2],
                    g[3],
                    *lr.add(i),
                    *li.add(i),
                    *hr.add(i),
                    *hi.add(i),
                );
                *lr.add(i) = a;
                *li.add(i) = b;
                *hr.add(i) = c;
                *hi.add(i) = d;
            }
        }

        /// Scalar transcription of the `C64::ZERO.mul_add(mm[row], s)`
        /// chain of `apply_2q_planes`, left-associated.
        ///
        /// # Safety
        /// `pr/pi + off[b] + 0..len` must be in-bounds for all `b`, with
        /// the four streams mutually disjoint.
        pub(super) unsafe fn run_2q(
            pr: *mut f64,
            pi: *mut f64,
            off: &[usize; 4],
            mm: &[C64; 16],
            len: usize,
        ) {
            for j in 0..len {
                let mut sr = [0.0f64; 4];
                let mut si = [0.0f64; 4];
                for b in 0..4 {
                    sr[b] = *pr.add(off[b] + j);
                    si[b] = *pi.add(off[b] + j);
                }
                for a in 0..4 {
                    let row = 4 * a;
                    let mut zr = 0.0f64;
                    let mut zi = 0.0f64;
                    for b in 0..4 {
                        let m = mm[row + b];
                        zr = (zr + m.re * sr[b]) - m.im * si[b];
                        zi = (zi + m.re * si[b]) + m.im * sr[b];
                    }
                    *pr.add(off[a] + j) = zr;
                    *pi.add(off[a] + j) = zi;
                }
            }
        }

        /// Scalar transcription of the `acc.mul_add(md[row + b], sb)`
        /// chain of `apply_kq_planes` (`dim = offsets.len() ≤ 32`).
        ///
        /// # Safety
        /// `pr/pi + offsets[b] + 0..len` must be in-bounds for all `b`,
        /// with the `dim` streams mutually disjoint.
        pub(super) unsafe fn run_kq(
            pr: *mut f64,
            pi: *mut f64,
            offsets: &[usize],
            md: &[C64],
            len: usize,
        ) {
            let dim = offsets.len();
            debug_assert!(dim <= 32 && md.len() == dim * dim);
            for j in 0..len {
                let mut sr = [0.0f64; 32];
                let mut si = [0.0f64; 32];
                for b in 0..dim {
                    sr[b] = *pr.add(offsets[b] + j);
                    si[b] = *pi.add(offsets[b] + j);
                }
                for a in 0..dim {
                    let row = a * dim;
                    let mut zr = 0.0f64;
                    let mut zi = 0.0f64;
                    for b in 0..dim {
                        let m = md[row + b];
                        zr = (zr + m.re * sr[b]) - m.im * si[b];
                        zi = (zi + m.re * si[b]) + m.im * sr[b];
                    }
                    *pr.add(offsets[a] + j) = zr;
                    *pi.add(offsets[a] + j) = zi;
                }
            }
        }
    }

    /// Generates one width's kernel module. `$feat` is the target-feature
    /// set, `$W` the f64 lane count, `$V` its vector type, the intrinsic
    /// paths the width's arithmetic, `$shuf` the width's shuffle helpers,
    /// and `$tails` the module handling the `len % $W` remainder of a long
    /// run — the scalar `tails` for AVX2, the AVX2 module itself for
    /// AVX-512, so remainders degrade one tier at a time and always end on
    /// the exact scalar chain.
    ///
    /// Every kernel is `# Safety`: caller must guarantee the pointer
    /// ranges documented on the kernel **and** that the `$feat` target
    /// features are available (the safe wrappers below guarantee both).
    macro_rules! simd_width_kernels {
        ($modname:ident, $feat:literal, $W:literal, $V:ty,
         $set1:ident, $zero:ident, $load:ident, $store:ident,
         $add:ident, $sub:ident, $mul:ident,
         $shuf:ident, $tails:ident) => {
            mod $modname {
                use super::super::{CROSS, MIXED, REAL};
                use super::$shuf::{deint, inter, nonzero, select, Mask};
                use qdp_linalg::C64;
                use std::arch::x86_64::*;

                /// A 2×2 gate's components `[g00.re, g00.im, g01.re,
                /// g01.im, g10.re, g10.im, g11.re, g11.im]`, one vector
                /// each: broadcast, or one gate per lane.
                type Coef = [$V; 8];

                #[target_feature(enable = $feat)]
                #[inline]
                fn splat(g: &[C64; 4]) -> Coef {
                    [
                        $set1(g[0].re),
                        $set1(g[0].im),
                        $set1(g[1].re),
                        $set1(g[1].im),
                        $set1(g[2].re),
                        $set1(g[2].im),
                        $set1(g[3].re),
                        $set1(g[3].im),
                    ]
                }

                /// Chain `C` on one vector of orbit pairs `(a0, a1)`,
                /// returning `(lo.re, lo.im, hi.re, hi.im)`: each lane runs
                /// the scalar operation sequence exactly — `complex_pair`
                /// for `FULL`, its `+0.0`-reduced form for `CROSS` (see the
                /// module docs), the real fast path for `REAL`.
                #[target_feature(enable = $feat)]
                #[inline]
                fn chain<const C: u8>(
                    c: &Coef,
                    a0r: $V,
                    a0i: $V,
                    a1r: $V,
                    a1i: $V,
                ) -> ($V, $V, $V, $V) {
                    let zero = $zero();
                    match C {
                        REAL => (
                            $add($mul(c[0], a0r), $mul(c[2], a1r)),
                            $add($mul(c[0], a0i), $mul(c[2], a1i)),
                            $add($mul(c[4], a0r), $mul(c[6], a1r)),
                            $add($mul(c[4], a0i), $mul(c[6], a1i)),
                        ),
                        CROSS => (
                            $sub($add(zero, $mul(c[0], a0r)), $mul(c[3], a1i)),
                            $add($add(zero, $mul(c[0], a0i)), $mul(c[3], a1r)),
                            $add($sub(zero, $mul(c[5], a0i)), $mul(c[6], a1r)),
                            $add($add(zero, $mul(c[5], a0r)), $mul(c[6], a1i)),
                        ),
                        _ => {
                            let s0r = $sub($add(zero, $mul(c[0], a0r)), $mul(c[1], a0i));
                            let s0i = $add($add(zero, $mul(c[0], a0i)), $mul(c[1], a0r));
                            let lor = $sub($add(s0r, $mul(c[2], a1r)), $mul(c[3], a1i));
                            let loi = $add($add(s0i, $mul(c[2], a1i)), $mul(c[3], a1r));
                            let s1r = $sub($add(zero, $mul(c[4], a0r)), $mul(c[5], a0i));
                            let s1i = $add($add(zero, $mul(c[4], a0i)), $mul(c[5], a0r));
                            let hir = $sub($add(s1r, $mul(c[6], a1r)), $mul(c[7], a1i));
                            let hii = $add($add(s1i, $mul(c[6], a1i)), $mul(c[7], a1r));
                            (lor, loi, hir, hii)
                        }
                    }
                }

                /// One contiguous run of `len` orbit pairs at four disjoint
                /// streams, chain `C`, `$W` pairs per iteration.
                ///
                /// # Safety
                /// `lr/li/hr/hi + 0..len` in-bounds and mutually disjoint;
                /// the `$feat` features present.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn run<const C: u8>(
                    lr: *mut f64,
                    li: *mut f64,
                    hr: *mut f64,
                    hi: *mut f64,
                    len: usize,
                    g: &[C64; 4],
                ) {
                    let c = splat(g);
                    let mut i = 0usize;
                    while i + $W <= len {
                        let (lor, loi, hir, hii) = chain::<C>(
                            &c,
                            $load(lr.add(i)),
                            $load(li.add(i)),
                            $load(hr.add(i)),
                            $load(hi.add(i)),
                        );
                        $store(lr.add(i), lor);
                        $store(li.add(i), loi);
                        $store(hr.add(i), hir);
                        $store(hi.add(i), hii);
                        i += $W;
                    }
                    if i < len {
                        super::$tails::run::<C>(
                            lr.add(i),
                            li.add(i),
                            hr.add(i),
                            hi.add(i),
                            len - i,
                            g,
                        );
                    }
                }

                /// The short-orbit loop: every `2·$W`-amplitude block of
                /// `pr/pi + 0..n` splits into its mask-`M` orbit pairs,
                /// runs chain `C` with the per-lane coefficients `c`, and
                /// interleaves back. With `KEEP`, the lanes outside `set`
                /// keep their amplitudes (an identity block, blended back
                /// rather than multiplied by 1).
                ///
                /// # Safety
                /// `pr/pi + 0..n` in-bounds and disjoint; the `$feat`
                /// features present.
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn short<const C: u8, const KEEP: bool, const M: usize>(
                    pr0: *mut f64,
                    pi0: *mut f64,
                    n: usize,
                    c: &Coef,
                    set: Mask,
                ) {
                    let mut idx = 0usize;
                    while idx + 2 * $W <= n {
                        let pr = pr0.add(idx);
                        let pi = pi0.add(idx);
                        let (a0r, a1r) = deint::<M>($load(pr), $load(pr.add($W)));
                        let (a0i, a1i) = deint::<M>($load(pi), $load(pi.add($W)));
                        let (mut lor, mut loi, mut hir, mut hii) =
                            chain::<C>(c, a0r, a0i, a1r, a1i);
                        if KEEP {
                            lor = select(set, lor, a0r);
                            loi = select(set, loi, a0i);
                            hir = select(set, hir, a1r);
                            hii = select(set, hii, a1i);
                        }
                        let (o0, o1) = inter::<M>(lor, hir);
                        $store(pr, o0);
                        $store(pr.add($W), o1);
                        let (q0, q1) = inter::<M>(loi, hii);
                        $store(pi, q0);
                        $store(pi.add($W), q1);
                        idx += 2 * $W;
                    }
                }

                /// Dense 1q gate `g` on the short orbit `M ≤ $W`, chain `C`.
                ///
                /// # Safety
                /// `pr/pi + 0..n` in-bounds and disjoint, `n` a multiple
                /// of `2·$W`; the `$feat` features present.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn short_1q<const C: u8, const M: usize>(
                    pr: *mut f64,
                    pi: *mut f64,
                    n: usize,
                    g: &[C64; 4],
                ) {
                    short::<C, false, M>(pr, pi, n, &splat(g), nonzero($zero()));
                }

                /// Block-diagonal 2q gate with target `M ≤ $W` and control
                /// `cmask ≤ $W`: each orbit takes `b` where its control bit
                /// is set and `a` elsewhere — or keeps its amplitudes there
                /// when `KEEP` (`a` is the identity).
                ///
                /// # Safety
                /// As [`short_1q`].
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn short_ctrl<
                    const C: u8,
                    const KEEP: bool,
                    const M: usize,
                >(
                    pr: *mut f64,
                    pi: *mut f64,
                    n: usize,
                    cmask: usize,
                    a: &[C64; 4],
                    b: &[C64; 4],
                ) {
                    // Each orbit's control bit, in the lane order `deint`
                    // gives its pairs (blocks are `2·cmask`-aligned).
                    let mut flag = [0.0f64; 2 * $W];
                    for (j, f) in flag.iter_mut().enumerate() {
                        if j & cmask != 0 {
                            *f = 1.0;
                        }
                    }
                    let (ctrl, _) = deint::<M>($load(flag.as_ptr()), $load(flag.as_ptr().add($W)));
                    let set = nonzero(ctrl);
                    let (ca, cb) = (splat(a), splat(b));
                    let mut c = ca;
                    for k in 0..8 {
                        c[k] = select(set, cb[k], ca[k]);
                    }
                    short::<C, KEEP, M>(pr, pi, n, &c, set);
                }

                /// Diagonal 1q gate `diag(d0, d1)` on the short orbit
                /// `mask ≤ $W`: lane `j` of each `2·$W` block scales by `d0`
                /// or `d1` as bit `mask` of `j` says, from lane-pattern
                /// coefficient vectors built once. `K` is the scalar
                /// branch (`DiagKind`): `REAL` multiplies each plane,
                /// `FULL` runs the complex product, `MIXED` runs both,
                /// picks per lane and keeps identity lanes.
                ///
                /// # Safety
                /// As [`short_1q`].
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn short_diag<const K: u8>(
                    pr: *mut f64,
                    pi: *mut f64,
                    n: usize,
                    mask: usize,
                    d0: C64,
                    d1: C64,
                ) {
                    // Per block lane: d.re, d.im, complex branch, identity.
                    let mut pat = [[0.0f64; 2 * $W]; 4];
                    for j in 0..2 * $W {
                        let d = if j & mask == 0 { d0 } else { d1 };
                        pat[0][j] = d.re;
                        pat[1][j] = d.im;
                        pat[2][j] = if d.im == 0.0 { 0.0 } else { 1.0 };
                        pat[3][j] = if d == C64::ONE { 1.0 } else { 0.0 };
                    }
                    let zero = $zero();
                    let (mut dr, mut di) = ([zero; 2], [zero; 2]);
                    let (mut cplx, mut keep) = ([nonzero(zero); 2], [nonzero(zero); 2]);
                    for h in 0..2 {
                        dr[h] = $load(pat[0].as_ptr().add(h * $W));
                        di[h] = $load(pat[1].as_ptr().add(h * $W));
                        cplx[h] = nonzero($load(pat[2].as_ptr().add(h * $W)));
                        keep[h] = nonzero($load(pat[3].as_ptr().add(h * $W)));
                    }
                    let mut idx = 0usize;
                    while idx + 2 * $W <= n {
                        for h in 0..2 {
                            let p = idx + h * $W;
                            let r = $load(pr.add(p));
                            let i = $load(pi.add(p));
                            let (or, oi) = if K == REAL {
                                ($mul(r, dr[h]), $mul(i, dr[h]))
                            } else {
                                let cr = $sub($mul(r, dr[h]), $mul(i, di[h]));
                                let ci = $add($mul(r, di[h]), $mul(i, dr[h]));
                                if K == MIXED {
                                    let (rr, ri) = ($mul(r, dr[h]), $mul(i, dr[h]));
                                    (
                                        select(keep[h], r, select(cplx[h], cr, rr)),
                                        select(keep[h], i, select(cplx[h], ci, ri)),
                                    )
                                } else {
                                    (cr, ci)
                                }
                            };
                            $store(pr.add(p), or);
                            $store(pi.add(p), oi);
                        }
                        idx += 2 * $W;
                    }
                }

                /// Dense 2q innermost run: four disjoint streams at
                /// `off[b] + 0..len`, per-row left-associated
                /// `C64::ZERO.mul_add` chain, all 8 stream vectors loaded
                /// before any row stores.
                ///
                /// # Safety
                /// `pr/pi + off[b] + 0..len` in-bounds for all `b`, the
                /// four streams disjoint; the `$feat` features present.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn run_2q(
                    pr: *mut f64,
                    pi: *mut f64,
                    off: &[usize; 4],
                    mm: &[C64; 16],
                    len: usize,
                ) {
                    let zero = $zero();
                    let mut mr = [zero; 16];
                    let mut mi = [zero; 16];
                    for j in 0..16 {
                        mr[j] = $set1(mm[j].re);
                        mi[j] = $set1(mm[j].im);
                    }
                    let mut i = 0usize;
                    while i + $W <= len {
                        let mut sr = [zero; 4];
                        let mut si = [zero; 4];
                        for b in 0..4 {
                            sr[b] = $load(pr.add(off[b] + i));
                            si[b] = $load(pi.add(off[b] + i));
                        }
                        for a in 0..4 {
                            let row = 4 * a;
                            let mut zr = zero;
                            let mut zi = zero;
                            for b in 0..4 {
                                zr = $sub($add(zr, $mul(mr[row + b], sr[b])), $mul(mi[row + b], si[b]));
                                zi = $add($add(zi, $mul(mr[row + b], si[b])), $mul(mi[row + b], sr[b]));
                            }
                            $store(pr.add(off[a] + i), zr);
                            $store(pi.add(off[a] + i), zi);
                        }
                        i += $W;
                    }
                    if i < len {
                        super::$tails::run_2q(pr.add(i), pi.add(i), off, mm, len - i);
                    }
                }

                /// k ≥ 3 dense innermost run (`dim = offsets.len() ≤ 32`):
                /// same shape as [`run_2q`] with in-loop coefficient
                /// broadcasts (1024 pairs cannot live in registers).
                ///
                /// # Safety
                /// `pr/pi + offsets[b] + 0..len` in-bounds for all `b`,
                /// the streams disjoint; the `$feat` features present.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn run_kq(
                    pr: *mut f64,
                    pi: *mut f64,
                    offsets: &[usize],
                    md: &[C64],
                    len: usize,
                ) {
                    let dim = offsets.len();
                    debug_assert!(dim <= 32 && md.len() == dim * dim);
                    let zero = $zero();
                    let mut i = 0usize;
                    while i + $W <= len {
                        let mut sr = [zero; 32];
                        let mut si = [zero; 32];
                        for b in 0..dim {
                            sr[b] = $load(pr.add(offsets[b] + i));
                            si[b] = $load(pi.add(offsets[b] + i));
                        }
                        for a in 0..dim {
                            let row = a * dim;
                            let mut zr = zero;
                            let mut zi = zero;
                            for b in 0..dim {
                                let mre = $set1(md[row + b].re);
                                let mim = $set1(md[row + b].im);
                                zr = $sub($add(zr, $mul(mre, sr[b])), $mul(mim, si[b]));
                                zi = $add($add(zi, $mul(mre, si[b])), $mul(mim, sr[b]));
                            }
                            $store(pr.add(offsets[a] + i), zr);
                            $store(pi.add(offsets[a] + i), zi);
                        }
                        i += $W;
                    }
                    if i < len {
                        super::$tails::run_kq(pr.add(i), pi.add(i), offsets, md, len - i);
                    }
                }
            }
        };
    }

    simd_width_kernels!(
        avx2k,
        "avx2,fma",
        4,
        __m256d,
        _mm256_set1_pd,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_mul_pd,
        shuf256,
        tails
    );

    simd_width_kernels!(
        avx512k,
        "avx512f,avx2,fma",
        8,
        __m512d,
        _mm512_set1_pd,
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_add_pd,
        _mm512_sub_pd,
        _mm512_mul_pd,
        shuf512,
        avx2k
    );

    /// Calls width kernel `$f::<$g.., M>` of `$tier`'s module for the short
    /// mask `M = $mask` — one monomorphised loop per (tier, mask).
    macro_rules! short_call {
        ($tier:expr, $mask:expr, $f:ident::<$($g:tt),*>($($arg:expr),*)) => {
            match ($tier, $mask) {
                (SimdTier::Avx512, 1) => avx512k::$f::<$($g,)* 1>($($arg),*),
                (SimdTier::Avx512, 2) => avx512k::$f::<$($g,)* 2>($($arg),*),
                (SimdTier::Avx512, 4) => avx512k::$f::<$($g,)* 4>($($arg),*),
                (SimdTier::Avx512, 8) => avx512k::$f::<$($g,)* 8>($($arg),*),
                (SimdTier::Avx2, 1) => avx2k::$f::<$($g,)* 1>($($arg),*),
                (SimdTier::Avx2, 2) => avx2k::$f::<$($g,)* 2>($($arg),*),
                (SimdTier::Avx2, 4) => avx2k::$f::<$($g,)* 4>($($arg),*),
                (tier, mask) => unreachable!("mask {mask} is no short orbit at {tier:?}"),
            }
        };
    }

    /// AVX2 accumulator for the `lanes.rs` reduction: the four LANES
    /// partials ride one vector, each block folding `re²+im²` into its
    /// global-index lane — the exact scalar per-lane operation sequence.
    /// Deliberately AVX2-only at every tier: an 8-lane version would
    /// change the LANES=4 index partition and therefore the bits.
    ///
    /// # Safety
    /// `pr`/`pi + 0..len` must be in-bounds; `len % 4 == 0`; AVX2+FMA
    /// must be available.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_acc(acc: &mut [f64; 4], pr: *const f64, pi: *const f64, len: usize) {
        use std::arch::x86_64::*;
        let mut v = _mm256_loadu_pd(acc.as_ptr());
        let mut i = 0usize;
        while i + 4 <= len {
            let r = _mm256_loadu_pd(pr.add(i));
            let im = _mm256_loadu_pd(pi.add(i));
            v = _mm256_add_pd(v, _mm256_add_pd(_mm256_mul_pd(r, r), _mm256_mul_pd(im, im)));
            i += 4;
        }
        _mm256_storeu_pd(acc.as_mut_ptr(), v);
    }

    /// Tier × chain dispatch for one contiguous dense-1q run.
    ///
    /// # Safety
    /// `lr/li/hr/hi + 0..len` in-bounds and mutually disjoint; `tier` must
    /// be a runtime-detected non-Scalar tier (its target features present).
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_1q_raw(
        tier: SimdTier,
        lr: *mut f64,
        li: *mut f64,
        hr: *mut f64,
        hi: *mut f64,
        len: usize,
        g: &[C64; 4],
        chain: Chain1q,
    ) {
        match (tier, chain) {
            (SimdTier::Avx512, Chain1q::Full) => avx512k::run::<FULL>(lr, li, hr, hi, len, g),
            (SimdTier::Avx512, Chain1q::Cross) => avx512k::run::<CROSS>(lr, li, hr, hi, len, g),
            (SimdTier::Avx512, Chain1q::Real) => avx512k::run::<REAL>(lr, li, hr, hi, len, g),
            (SimdTier::Avx2, Chain1q::Full) => avx2k::run::<FULL>(lr, li, hr, hi, len, g),
            (SimdTier::Avx2, Chain1q::Cross) => avx2k::run::<CROSS>(lr, li, hr, hi, len, g),
            (SimdTier::Avx2, Chain1q::Real) => avx2k::run::<REAL>(lr, li, hr, hi, len, g),
            (SimdTier::Scalar, _) => unreachable!("SIMD dispatch reached with Scalar tier"),
        }
    }

    /// Tier × chain × mask dispatch for one short-orbit dense-1q span.
    ///
    /// # Safety
    /// `pr/pi + 0..n` in-bounds and disjoint, `n` a multiple of the tier's
    /// two-vector block; `tier` runtime-detected and non-Scalar.
    unsafe fn short_1q_raw(
        tier: SimdTier,
        pr: *mut f64,
        pi: *mut f64,
        n: usize,
        mask: usize,
        g: &[C64; 4],
        chain: Chain1q,
    ) {
        match chain {
            Chain1q::Full => short_call!(tier, mask, short_1q::<FULL>(pr, pi, n, g)),
            Chain1q::Cross => short_call!(tier, mask, short_1q::<CROSS>(pr, pi, n, g)),
            Chain1q::Real => short_call!(tier, mask, short_1q::<REAL>(pr, pi, n, g)),
        }
    }

    /// Checks the short-orbit shape the kernels rely on for their bits:
    /// whole blocks, and every orbit inside one block.
    fn check_short(tier: SimdTier, n: usize, mask: usize) {
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD sweep called with Scalar tier");
        assert!(
            mask <= tier.lanes(),
            "mask {mask} is no short orbit at {tier:?}"
        );
        assert!(
            n.is_multiple_of(2 * tier.lanes()),
            "a short-orbit sweep takes whole two-vector blocks"
        );
    }

    /// Serial dense-1q sweep over whole (sub-)planes: a short orbit
    /// (`mask ≤ lanes`; the plane a multiple of the tier's two-vector
    /// block) runs the short-orbit kernel, a long one walks `2·mask`
    /// blocks and runs the contiguous-run kernel on each half pair.
    pub(crate) fn sweep_1q(
        tier: SimdTier,
        re: &mut [f64],
        im: &mut [f64],
        mask: usize,
        g: &[C64; 4],
        chain: Chain1q,
    ) {
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        debug_assert!(mask.is_power_of_two(), "orbit mask must be a power of two");
        debug_assert!(re.len().is_multiple_of(mask << 1), "plane length must be a multiple of 2·mask");
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD sweep called with Scalar tier");
        let n = re.len().min(im.len());
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        if mask <= tier.lanes() {
            check_short(tier, n, mask);
            // SAFETY: `pr`/`pi` cover `n` in-bounds f64s of two disjoint
            // `&mut` slices; `n` is a multiple of the block (checked);
            // `tier` comes from runtime detection, so the kernel's target
            // features are present.
            unsafe { short_1q_raw(tier, pr, pi, n, mask, g, chain) };
            return;
        }
        let align = mask << 1;
        let mut base = 0usize;
        while base + align <= n {
            // SAFETY: `base + align <= n`: the lo run `[base, base+mask)`
            // and hi run `[base+mask, base+2·mask)` are in-bounds and
            // disjoint in each plane, and the re/im planes are themselves
            // disjoint `&mut` slices; `tier` comes from runtime detection.
            unsafe {
                let lr = pr.add(base);
                let li = pi.add(base);
                run_1q_raw(tier, lr, li, lr.add(mask), li.add(mask), mask, g, chain);
            }
            base += align;
        }
    }

    /// One contiguous dense-1q run over four explicit disjoint streams —
    /// the top-bit `par_zip4_chunks_mut` shape and the block-diagonal
    /// sub-run shape.
    pub(crate) fn run_1q(
        tier: SimdTier,
        lre: &mut [f64],
        lim: &mut [f64],
        hre: &mut [f64],
        him: &mut [f64],
        g: &[C64; 4],
        chain: Chain1q,
    ) {
        let len = lre.len();
        assert!(
            lim.len() == len && hre.len() == len && him.len() == len,
            "all four streams must have equal lengths"
        );
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD run called with Scalar tier");
        // SAFETY: four disjoint `&mut` slices of asserted-equal length
        // `len`; `tier` comes from runtime detection.
        unsafe {
            run_1q_raw(
                tier,
                lre.as_mut_ptr(),
                lim.as_mut_ptr(),
                hre.as_mut_ptr(),
                him.as_mut_ptr(),
                len,
                g,
                chain,
            )
        };
    }

    /// Block-diagonal sweep `|0⟩⟨0| ⊗ a + |1⟩⟨1| ⊗ b` (control `cmask`)
    /// whose target `tmask` is a short orbit at `tier`. A short control
    /// runs the per-lane kernel over the whole plane (`b` on control-set
    /// lanes, `a` on the others, or their amplitudes kept when `a` is the
    /// identity); a long one makes the plane alternating `cmask`-length
    /// segments of constant control bit — each a whole number of blocks —
    /// and sweeps each selected segment with the short 1q kernel. Chains
    /// are classified with `allow_real = false` because the scalar
    /// block-diagonal kernel always runs `complex_pair`; mixed lanes run
    /// Cross only when both blocks are Cross-shaped.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_ctrl(
        tier: SimdTier,
        re: &mut [f64],
        im: &mut [f64],
        cmask: usize,
        tmask: usize,
        a: &[C64; 4],
        b: &[C64; 4],
        identity_a: bool,
    ) {
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        debug_assert!(
            cmask.is_power_of_two() && cmask != tmask,
            "control must be another bit"
        );
        let n = re.len().min(im.len());
        check_short(tier, n, tmask);
        assert!(
            n.is_multiple_of(cmask << 1),
            "plane length must be a multiple of 2·cmask"
        );
        let (ca, cb) = (classify_1q(a, false), classify_1q(b, false));
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        if cmask > tier.lanes() {
            // `cmask` is a power of two above one vector, so each segment
            // is a whole number of blocks.
            let mut s = 0usize;
            while s < n {
                // SAFETY: `n` is a multiple of `2·cmask`, so the segments
                // `[s, s+cmask)` and `[s+cmask, s+2·cmask)` are in-bounds
                // of both (disjoint) planes, and `cmask` is a multiple of
                // the block; `tier` comes from runtime detection.
                unsafe {
                    if !identity_a {
                        short_1q_raw(tier, pr.add(s), pi.add(s), cmask, tmask, a, ca);
                    }
                    let (hr, hi) = (pr.add(s + cmask), pi.add(s + cmask));
                    short_1q_raw(tier, hr, hi, cmask, tmask, b, cb);
                }
                s += cmask << 1;
            }
            return;
        }
        let cross = cb == Chain1q::Cross && (identity_a || ca == Chain1q::Cross);
        // SAFETY: `pr`/`pi` cover `n` in-bounds f64s of two disjoint `&mut`
        // slices, `n` a multiple of the block (checked); both masks fit in
        // one vector; `tier` comes from runtime detection.
        unsafe {
            match (cross, identity_a) {
                (true, true) => {
                    short_call!(tier, tmask, short_ctrl::<CROSS, true>(pr, pi, n, cmask, a, b))
                }
                (true, false) => {
                    short_call!(tier, tmask, short_ctrl::<CROSS, false>(pr, pi, n, cmask, a, b))
                }
                (false, true) => {
                    short_call!(tier, tmask, short_ctrl::<FULL, true>(pr, pi, n, cmask, a, b))
                }
                (false, false) => {
                    short_call!(tier, tmask, short_ctrl::<FULL, false>(pr, pi, n, cmask, a, b))
                }
            }
        }
    }

    /// Diagonal 1q sweep `diag(d0, d1)` on the short orbit `mask` — even
    /// runs of `mask` amplitudes scale by `d0`, odd runs by `d1`, each lane
    /// on the scalar kernel's branch for its entry (`kind`, from
    /// [`super::classify_diag`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_diag(
        tier: SimdTier,
        re: &mut [f64],
        im: &mut [f64],
        mask: usize,
        d0: C64,
        d1: C64,
        kind: DiagKind,
    ) {
        debug_assert_eq!(kind, super::classify_diag(d0, d1), "diagonal branch mismatch");
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        let n = re.len().min(im.len());
        check_short(tier, n, mask);
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        // SAFETY: `pr`/`pi` cover `n` in-bounds f64s of two disjoint `&mut`
        // slices, `n` a multiple of the block (checked); `tier` comes from
        // runtime detection.
        unsafe {
            match (tier, kind) {
                (SimdTier::Avx512, DiagKind::Real) => {
                    avx512k::short_diag::<REAL>(pr, pi, n, mask, d0, d1)
                }
                (SimdTier::Avx512, DiagKind::Complex) => {
                    avx512k::short_diag::<FULL>(pr, pi, n, mask, d0, d1)
                }
                (SimdTier::Avx512, DiagKind::Mixed) => {
                    avx512k::short_diag::<MIXED>(pr, pi, n, mask, d0, d1)
                }
                (SimdTier::Avx2, DiagKind::Real) => {
                    avx2k::short_diag::<REAL>(pr, pi, n, mask, d0, d1)
                }
                (SimdTier::Avx2, DiagKind::Complex) => {
                    avx2k::short_diag::<FULL>(pr, pi, n, mask, d0, d1)
                }
                (SimdTier::Avx2, DiagKind::Mixed) => {
                    avx2k::short_diag::<MIXED>(pr, pi, n, mask, d0, d1)
                }
                (SimdTier::Scalar, _) => unreachable!("SIMD dispatch reached with Scalar tier"),
            }
        }
    }

    /// One dense-2q innermost run of `len` consecutive bases at
    /// `base + off[b]` stream offsets.
    pub(crate) fn run_2q(
        tier: SimdTier,
        re: &mut [f64],
        im: &mut [f64],
        base: usize,
        off: &[usize; 4],
        mm: &[C64; 16],
        len: usize,
    ) {
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        // `off = [0, mask1, mask0, mask0|mask1]`: the OR entry is the
        // maximum, so it bounds every stream.
        debug_assert!(base + off[3] + len <= re.len(), "2q run out of bounds");
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD run called with Scalar tier");
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        // SAFETY: every touched index is `base + off[b] + j` with `j <
        // len`, bounded by the assert above; `base` has zeros in both mask
        // bits and `len <= min(mask0, mask1)` by construction at the call
        // site, so the four streams are disjoint; planes are disjoint
        // `&mut` slices; `tier` comes from runtime detection.
        unsafe {
            match tier {
                SimdTier::Avx512 => avx512k::run_2q(pr.add(base), pi.add(base), off, mm, len),
                SimdTier::Avx2 => avx2k::run_2q(pr.add(base), pi.add(base), off, mm, len),
                SimdTier::Scalar => unreachable!("SIMD dispatch reached with Scalar tier"),
            }
        }
    }

    /// One k ≥ 3 dense innermost run of `len` consecutive bases at
    /// `base + offsets[b]` stream offsets (`offsets.len() = 2^k ≤ 32`).
    pub(crate) fn run_kq(
        tier: SimdTier,
        re: &mut [f64],
        im: &mut [f64],
        base: usize,
        offsets: &[usize],
        md: &[C64],
        len: usize,
    ) {
        let dim = offsets.len();
        debug_assert!((8..=32).contains(&dim), "run_kq handles k in 3..=5");
        debug_assert_eq!(md.len(), dim * dim, "matrix must be dim×dim");
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        // The last offset has every target mask set, so it is the maximum.
        debug_assert!(base + offsets[dim - 1] + len <= re.len(), "kq run out of bounds");
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD run called with Scalar tier");
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        // SAFETY: every touched index is `base + offsets[b] + j` with `j <
        // len`, bounded by the assert above; `base` has zeros in all k mask
        // bits and `len <= 2^bits[0]` at the call site, so the `dim`
        // streams are disjoint; planes are disjoint `&mut` slices; `tier`
        // comes from runtime detection.
        unsafe {
            match tier {
                SimdTier::Avx512 => avx512k::run_kq(pr.add(base), pi.add(base), offsets, md, len),
                SimdTier::Avx2 => avx2k::run_kq(pr.add(base), pi.add(base), offsets, md, len),
                SimdTier::Scalar => unreachable!("SIMD dispatch reached with Scalar tier"),
            }
        }
    }

    /// Folds `re[i]² + im[i]²` into `acc[i % 4]` for an aligned whole
    /// block, preserving the LANES=4 index-partition combine tree bitwise
    /// (the partials ride one AVX2 vector at every tier — see
    /// [`lane_acc`]).
    pub(crate) fn accumulate_lanes(tier: SimdTier, acc: &mut [f64; 4], re: &[f64], im: &[f64]) {
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        debug_assert!(re.len().is_multiple_of(4), "lane accumulator needs a multiple-of-4 length");
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD accumulate called with Scalar tier");
        // SAFETY: equal-length slices with length a multiple of 4; any
        // non-Scalar tier implies AVX2+FMA were runtime-detected.
        unsafe { lane_acc(acc, re.as_ptr(), im.as_ptr(), re.len()) };
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
pub(crate) use x86::{accumulate_lanes, run_1q, run_2q, run_kq, sweep_1q, sweep_ctrl, sweep_diag};

/// Stub backend for non-x86_64 targets and Miri: [`active_tier`] is always
/// [`SimdTier::Scalar`] there (see [`detect`]), and every kernel dispatch
/// in `kernels.rs`/`lanes.rs` guards on a non-Scalar tier before calling
/// in, so these bodies are unreachable — they exist only so the dispatch
/// sites compile unchanged.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
mod fallback {
    use super::{Chain1q, DiagKind, SimdTier};
    use qdp_linalg::C64;

    pub(crate) fn sweep_1q(
        _tier: SimdTier,
        _re: &mut [f64],
        _im: &mut [f64],
        _mask: usize,
        _g: &[C64; 4],
        _chain: Chain1q,
    ) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    pub(crate) fn run_1q(
        _tier: SimdTier,
        _lre: &mut [f64],
        _lim: &mut [f64],
        _hre: &mut [f64],
        _him: &mut [f64],
        _g: &[C64; 4],
        _chain: Chain1q,
    ) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_ctrl(
        _tier: SimdTier,
        _re: &mut [f64],
        _im: &mut [f64],
        _cmask: usize,
        _tmask: usize,
        _a: &[C64; 4],
        _b: &[C64; 4],
        _identity_a: bool,
    ) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_diag(
        _tier: SimdTier,
        _re: &mut [f64],
        _im: &mut [f64],
        _mask: usize,
        _d0: C64,
        _d1: C64,
        _kind: DiagKind,
    ) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_2q(
        _tier: SimdTier,
        _re: &mut [f64],
        _im: &mut [f64],
        _base: usize,
        _off: &[usize; 4],
        _mm: &[C64; 16],
        _len: usize,
    ) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_kq(
        _tier: SimdTier,
        _re: &mut [f64],
        _im: &mut [f64],
        _base: usize,
        _offsets: &[usize],
        _md: &[C64],
        _len: usize,
    ) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    pub(crate) fn accumulate_lanes(_tier: SimdTier, _acc: &mut [f64; 4], _re: &[f64], _im: &[f64]) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
pub(crate) use fallback::{
    accumulate_lanes, run_1q, run_2q, run_kq, sweep_1q, sweep_ctrl, sweep_diag,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ordering_supports_min_capping() {
        assert!(SimdTier::Scalar < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        assert_eq!(SimdTier::Avx512.min(SimdTier::Avx2), SimdTier::Avx2);
        assert_eq!(SimdTier::Scalar.min(SimdTier::Avx512), SimdTier::Scalar);
    }

    #[test]
    fn short_orbits_take_the_widest_tier_whose_block_fits() {
        use SimdTier::*;
        // At AVX-512 masks up to 8 are short, on planes of whole 16-blocks.
        for mask in [1, 2, 4, 8] {
            assert_eq!(short_tier(Avx512, 256, mask), Some(Avx512), "mask {mask}");
        }
        assert_eq!(short_tier(Avx512, 256, 16), None, "mask 16 is a long orbit");
        // A plane shorter than one 16-block drops to the AVX2 block, then
        // to the scalar loop.
        assert_eq!(short_tier(Avx512, 8, 4), Some(Avx2));
        assert_eq!(short_tier(Avx512, 4, 1), None);
        // At AVX2 masks up to 4 are short; mask 8 runs as contiguous runs.
        assert_eq!(short_tier(Avx2, 256, 4), Some(Avx2));
        assert_eq!(short_tier(Avx2, 256, 8), None);
        assert_eq!(orbit_tier(Avx2, 256, 8), Some(Avx2));
        assert_eq!(orbit_tier(Avx512, 4, 2), None);
        for mask in [1, 2, 64] {
            assert_eq!(short_tier(Scalar, 256, mask), None);
            assert_eq!(orbit_tier(Scalar, 256, mask), None);
        }
    }

    #[test]
    fn classify_mirrors_scalar_dispatch() {
        let c = 0.9f64;
        let s = 0.1f64;
        // RX shape: real diagonal, imaginary off-diagonal, +0.0 elsewhere.
        let rx = [C64::new(c, 0.0), C64::new(0.0, -s), C64::new(0.0, -s), C64::new(c, 0.0)];
        assert_eq!(classify_1q(&rx, true), Chain1q::Cross);
        assert_eq!(classify_1q(&rx, false), Chain1q::Cross);
        // All-real gate: Real on the dense path (checked first, like the
        // scalar dispatch), never Real on the block-diagonal path.
        let h = [C64::new(c, 0.0), C64::new(s, 0.0), C64::new(s, 0.0), C64::new(-c, 0.0)];
        assert_eq!(classify_1q(&h, true), Chain1q::Real);
        assert_eq!(classify_1q(&h, false), Chain1q::Full);
        // All-real accepts -0.0 imaginary parts, exactly like `im == 0.0`.
        let hneg =
            [C64::new(c, -0.0), C64::new(s, 0.0), C64::new(s, -0.0), C64::new(-c, 0.0)];
        assert_eq!(classify_1q(&hneg, true), Chain1q::Real);
        // ... but a -0.0 dead component defeats the Cross reduction: the
        // dropped product would carry the wrong zero sign.
        let rxneg =
            [C64::new(c, -0.0), C64::new(0.0, -s), C64::new(0.0, -s), C64::new(c, 0.0)];
        assert_eq!(classify_1q(&rxneg, false), Chain1q::Full);
        // Generic complex gate.
        let g = [C64::new(c, s), C64::new(s, c), C64::new(-s, c), C64::new(c, -s)];
        assert_eq!(classify_1q(&g, true), Chain1q::Full);
    }

    #[test]
    fn classify_diag_follows_the_scalar_branches() {
        let r = C64::new(0.5, 0.0);
        let z = C64::new(0.3, 0.4);
        assert_eq!(classify_diag(r, C64::new(-1.0, -0.0)), DiagKind::Real);
        assert_eq!(classify_diag(z, C64::new(0.0, 1.0)), DiagKind::Complex);
        assert_eq!(classify_diag(C64::ONE, z), DiagKind::Mixed, "identity lanes are kept");
        assert_eq!(classify_diag(r, C64::ONE), DiagKind::Mixed);
        assert_eq!(classify_diag(r, z), DiagKind::Mixed, "real and complex lanes differ");
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    mod kernel_pins {
        use super::super::*;
        use crate::kernels::complex_pair;

        /// Random planes salted with `-0.0` components, so every pin also
        /// covers the kernels' signed-zero handling.
        fn planes(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let mut re: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut im: Vec<f64> = (0..n).map(|_| next()).collect();
            for i in (0..n).step_by(5) {
                re[i] = -0.0;
            }
            for i in (3..n).step_by(7) {
                im[i] = -0.0;
            }
            (re, im)
        }

        fn tiers() -> Vec<SimdTier> {
            [SimdTier::Avx2, SimdTier::Avx512]
                .into_iter()
                .filter(|&t| t <= detected_tier())
                .collect()
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// The scalar orbit update of `g`: the real fast path or
        /// `complex_pair`, as the plane kernels write them.
        fn scalar_pair(g: &[C64; 4], real: bool, a: (f64, f64, f64, f64)) -> (f64, f64, f64, f64) {
            let (a0r, a0i, a1r, a1i) = a;
            if real {
                (
                    g[0].re * a0r + g[1].re * a1r,
                    g[0].re * a0i + g[1].re * a1i,
                    g[2].re * a0r + g[3].re * a1r,
                    g[2].re * a0i + g[3].re * a1i,
                )
            } else {
                complex_pair(g[0], g[1], g[2], g[3], a0r, a0i, a1r, a1i)
            }
        }

        /// Applies `update` to every orbit `(i, i | mask)` of the planes.
        fn scalar_orbits(
            re: &mut [f64],
            im: &mut [f64],
            mask: usize,
            update: impl Fn(usize, (f64, f64, f64, f64)) -> Option<(f64, f64, f64, f64)>,
        ) {
            for i in (0..re.len()).filter(|i| i & mask == 0) {
                let j = i | mask;
                if let Some((lr, li, hr, hi)) = update(i, (re[i], im[i], re[j], im[j])) {
                    re[i] = lr;
                    im[i] = li;
                    re[j] = hr;
                    im[j] = hi;
                }
            }
        }

        fn assert_planes(want: (&[f64], &[f64]), got: (&[f64], &[f64]), what: &str) {
            assert_eq!(bits(want.0), bits(got.0), "re {what}");
            assert_eq!(bits(want.1), bits(got.1), "im {what}");
        }

        /// Cross (RX shape), Real, and Full gates, with the `allow_real`
        /// flag of the dense path.
        fn dense_gates() -> [([C64; 4], bool); 3] {
            let c = (0.35f64).cos();
            let s = (0.35f64).sin();
            [
                ([C64::new(c, 0.0), C64::new(0.0, -s), C64::new(0.0, -s), C64::new(c, 0.0)], false),
                ([C64::new(c, 0.0), C64::new(s, 0.0), C64::new(s, 0.0), C64::new(-c, 0.0)], true),
                ([C64::new(c, s), C64::new(s, -c), C64::new(-s, c), C64::new(c, -s)], false),
            ]
        }

        /// `short_1q` for every short mask of each tier, and the long-run
        /// sweep above it, against the scalar orbit loop.
        #[test]
        fn dense_1q_sweeps_match_scalar_bitwise() {
            for tier in tiers() {
                for (g, real) in &dense_gates() {
                    let chain = classify_1q(g, *real);
                    for mask in [1usize, 2, 4, 8, 16, 32] {
                        let block = (mask << 1).max(2 * tier.lanes());
                        for blocks in [1usize, 3, 5] {
                            let n = block * blocks;
                            let (re0, im0) = planes(n, (mask * 7 + blocks) as u64);
                            let (mut re_s, mut im_s) = (re0.clone(), im0.clone());
                            scalar_orbits(&mut re_s, &mut im_s, mask, |_, a| {
                                Some(scalar_pair(g, *real, a))
                            });
                            let (mut re_v, mut im_v) = (re0, im0);
                            sweep_1q(tier, &mut re_v, &mut im_v, mask, g, chain);
                            let what = format!("tier={tier:?} mask={mask} n={n} chain={chain:?}");
                            assert_planes((&re_s, &im_s), (&re_v, &im_v), &what);
                        }
                    }
                }
            }
        }

        /// `run` with lengths that leave every remainder size, so the
        /// one-tier-down tails are pinned too.
        #[test]
        fn dense_1q_runs_match_scalar_bitwise() {
            for tier in tiers() {
                for (g, real) in &dense_gates() {
                    let chain = classify_1q(g, *real);
                    for len in [1usize, 3, 4, 7, 8, 13, 16, 19] {
                        let (re0, im0) = planes(2 * len, len as u64 + 3);
                        let (mut re_s, mut im_s) = (re0.clone(), im0.clone());
                        for i in 0..len {
                            let a = (re_s[i], im_s[i], re_s[len + i], im_s[len + i]);
                            let (lr, li, hr, hi) = scalar_pair(g, *real, a);
                            (re_s[i], im_s[i], re_s[len + i], im_s[len + i]) = (lr, li, hr, hi);
                        }
                        let (mut re_v, mut im_v) = (re0, im0);
                        let (lre, hre) = re_v.split_at_mut(len);
                        let (lim, him) = im_v.split_at_mut(len);
                        run_1q(tier, lre, lim, hre, him, g, chain);
                        let what = format!("tier={tier:?} len={len} chain={chain:?}");
                        assert_planes((&re_s, &im_s), (&re_v, &im_v), &what);
                    }
                }
            }
        }

        /// `short_ctrl` (short control) and the control-segment sweep (long
        /// control) for every short target, with and without the identity
        /// block, against the scalar orbit loop.
        #[test]
        fn ctrl_sweeps_match_scalar_bitwise() {
            let (c, s) = ((0.7f64).cos(), (0.7f64).sin());
            let full = [C64::new(c, s), C64::new(s, -c), C64::new(-s, c), C64::new(c, -s)];
            let cross = [C64::new(c, 0.0), C64::new(0.0, -s), C64::new(0.0, -s), C64::new(c, 0.0)];
            let x = [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO];
            let id = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];
            // (a, b, identity_a): every chain pairing the dispatch picks.
            let blocks = [
                (full, cross, false),
                (cross, cross, false),
                (id, x, true),
                (id, cross, true),
            ];
            for tier in tiers() {
                for tmask in (0..4).map(|b| 1usize << b).filter(|&m| m <= tier.lanes()) {
                    for cmask in (0..6).map(|b| 1usize << b).filter(|&m| m != tmask) {
                        for (a, b, identity_a) in &blocks {
                            let n = 3 * (cmask << 1).max(tmask << 1).max(2 * tier.lanes());
                            let (re0, im0) = planes(n, (cmask * 31 + tmask) as u64);
                            let (mut re_s, mut im_s) = (re0.clone(), im0.clone());
                            scalar_orbits(&mut re_s, &mut im_s, tmask, |i, v| {
                                let ctrl = i & cmask != 0;
                                (ctrl || !identity_a)
                                    .then(|| scalar_pair(if ctrl { b } else { a }, false, v))
                            });
                            let (mut re_v, mut im_v) = (re0, im0);
                            sweep_ctrl(tier, &mut re_v, &mut im_v, cmask, tmask, a, b, *identity_a);
                            let what = format!(
                                "tier={tier:?} cmask={cmask} tmask={tmask} id_a={identity_a}"
                            );
                            assert_planes((&re_s, &im_s), (&re_v, &im_v), &what);
                        }
                    }
                }
            }
        }

        /// `short_diag` on every branch mix against the scalar
        /// `scale_run` arithmetic: identity entries untouched, real entries
        /// one multiply per plane, complex entries the complex product.
        #[test]
        fn diag_sweeps_match_scalar_bitwise() {
            let r = C64::new(0.8, 0.0);
            let q = C64::new(-1.25, -0.0);
            let z = C64::new(0.6, -0.8);
            let w = C64::new(0.6, 0.8);
            let pairs = [(r, q), (z, w), (C64::ONE, C64::ZERO), (C64::ONE, w), (r, z)];
            for tier in tiers() {
                for mask in (0..4).map(|b| 1usize << b).filter(|&m| m <= tier.lanes()) {
                    for (d0, d1) in pairs {
                        let n = 6 * tier.lanes();
                        let (re0, im0) = planes(n, mask as u64 + 11);
                        let (mut re_s, mut im_s) = (re0.clone(), im0.clone());
                        for i in 0..n {
                            let d = if i & mask == 0 { d0 } else { d1 };
                            let (r0, i0) = (re_s[i], im_s[i]);
                            if d == C64::ONE {
                                continue;
                            } else if d.im == 0.0 {
                                (re_s[i], im_s[i]) = (r0 * d.re, i0 * d.re);
                            } else {
                                (re_s[i], im_s[i]) = (r0 * d.re - i0 * d.im, r0 * d.im + i0 * d.re);
                            }
                        }
                        let (mut re_v, mut im_v) = (re0, im0);
                        let kind = classify_diag(d0, d1);
                        sweep_diag(tier, &mut re_v, &mut im_v, mask, d0, d1, kind);
                        let what = format!("tier={tier:?} mask={mask} d=({d0:?}, {d1:?})");
                        assert_planes((&re_s, &im_s), (&re_v, &im_v), &what);
                    }
                }
            }
        }

        #[test]
        fn run_2q_matches_scalar_chain_bitwise() {
            // A 2q layout with mask1=4 (b_lo=2), mask0=16: runs of 4 bases.
            let (mask1, mask0) = (4usize, 16usize);
            let off = [0usize, mask1, mask0, mask0 | mask1];
            let (re0, im0) = planes(64, 77);
            let mm: [C64; 16] = core::array::from_fn(|j| {
                C64::new(0.1 * (j as f64) - 0.6, 0.07 * (j as f64 % 5.0) - 0.2)
            });
            for tier in tiers() {
                for len in [4usize, 3, 1] {
                    for base in [0usize, 8, 40] {
                        let mut re_s = re0.clone();
                        let mut im_s = im0.clone();
                        for j in 0..len {
                            let mut sr = [0.0f64; 4];
                            let mut si = [0.0f64; 4];
                            for bidx in 0..4 {
                                sr[bidx] = re_s[base + off[bidx] + j];
                                si[bidx] = im_s[base + off[bidx] + j];
                            }
                            for a in 0..4 {
                                let row = 4 * a;
                                let mut zr = 0.0f64;
                                let mut zi = 0.0f64;
                                for bidx in 0..4 {
                                    let m = mm[row + bidx];
                                    zr = (zr + m.re * sr[bidx]) - m.im * si[bidx];
                                    zi = (zi + m.re * si[bidx]) + m.im * sr[bidx];
                                }
                                re_s[base + off[a] + j] = zr;
                                im_s[base + off[a] + j] = zi;
                            }
                        }
                        let mut re_v = re0.clone();
                        let mut im_v = im0.clone();
                        run_2q(tier, &mut re_v, &mut im_v, base, &off, &mm, len);
                        assert_eq!(bits(&re_s), bits(&re_v), "re tier={tier:?} len={len}");
                        assert_eq!(bits(&im_s), bits(&im_v), "im tier={tier:?} len={len}");
                    }
                }
            }
        }

        #[test]
        fn run_kq_matches_scalar_chain_bitwise() {
            // k=3 with target bits {2,4,5} on an n=7 plane: runs of 4.
            let masks = [32usize, 16, 4];
            let mut offsets = [0usize; 8];
            for (a, off) in offsets.iter_mut().enumerate() {
                for (j, m) in masks.iter().enumerate() {
                    if a & (1 << (2 - j)) != 0 {
                        *off |= m;
                    }
                }
            }
            let md: Vec<C64> = (0..64)
                .map(|j| C64::new(0.05 * (j as f64) - 1.3, 0.03 * (j as f64 % 7.0) - 0.1))
                .collect();
            let (re0, im0) = planes(128, 99);
            for tier in tiers() {
                for (base, len) in [(0usize, 4usize), (8, 4), (64, 3), (72, 1)] {
                    let mut re_s = re0.clone();
                    let mut im_s = im0.clone();
                    for j in 0..len {
                        let mut sr = [0.0f64; 8];
                        let mut si = [0.0f64; 8];
                        for bidx in 0..8 {
                            sr[bidx] = re_s[base + offsets[bidx] + j];
                            si[bidx] = im_s[base + offsets[bidx] + j];
                        }
                        for a in 0..8 {
                            let row = 8 * a;
                            let mut zr = 0.0f64;
                            let mut zi = 0.0f64;
                            for bidx in 0..8 {
                                let m = md[row + bidx];
                                zr = (zr + m.re * sr[bidx]) - m.im * si[bidx];
                                zi = (zi + m.re * si[bidx]) + m.im * sr[bidx];
                            }
                            re_s[base + offsets[a] + j] = zr;
                            im_s[base + offsets[a] + j] = zi;
                        }
                    }
                    let mut re_v = re0.clone();
                    let mut im_v = im0.clone();
                    run_kq(tier, &mut re_v, &mut im_v, base, &offsets, &md, len);
                    assert_eq!(bits(&re_s), bits(&re_v), "re tier={tier:?} base={base} len={len}");
                    assert_eq!(bits(&im_s), bits(&im_v), "im tier={tier:?} base={base} len={len}");
                }
            }
        }

        #[test]
        fn lane_accumulator_matches_scalar_partials_bitwise() {
            for tier in tiers() {
                for n in [4usize, 32, 100] {
                    let (re, im) = planes(n, n as u64 + 51);
                    let mut acc_s = [0.1f64, -0.2, 0.3, 0.04];
                    for (r4, i4) in re.chunks_exact(4).zip(im.chunks_exact(4)) {
                        acc_s[0] += r4[0] * r4[0] + i4[0] * i4[0];
                        acc_s[1] += r4[1] * r4[1] + i4[1] * i4[1];
                        acc_s[2] += r4[2] * r4[2] + i4[2] * i4[2];
                        acc_s[3] += r4[3] * r4[3] + i4[3] * i4[3];
                    }
                    let mut acc_v = [0.1f64, -0.2, 0.3, 0.04];
                    let main = n & !3;
                    accumulate_lanes(tier, &mut acc_v, &re[..main], &im[..main]);
                    for j in 0..4 {
                        assert_eq!(
                            acc_s[j].to_bits(),
                            acc_v[j].to_bits(),
                            "lane {j} tier={tier:?} n={n}"
                        );
                    }
                }
            }
        }
    }
}
