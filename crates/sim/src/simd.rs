//! Explicit `core::arch::x86_64` SIMD kernels under the kernel seam.
//!
//! PR 7 split the state into SoA re/im planes precisely so this layer could
//! exist; this module is the explicit-vector half of that bargain. It holds
//! hand-written AVX2+FMA and AVX-512F kernels for the hot dispatch classes
//! where the autovectorizer tops out (see ROADMAP item 1 follow-ups):
//!
//! * the dense-1q contiguous-run sweep (`run_*`/`sweep_1q`) — 4 (AVX2) or
//!   8 (AVX-512) amplitude pairs per iteration on the re/im planes;
//! * the `mask = 1` (last-qubit target) orbit (`mask1_*`) — stride-2 pair
//!   access defeats contiguous vector loads in every layout, so this kernel
//!   loads full vectors and deinterleaves in-register
//!   (`_mm256_unpacklo/hi_pd`, `_mm512_permutex2var_pd`), covering the
//!   dense, diagonal, and block-diagonal dispatch classes;
//! * the chunked-run dense 2q path and the k ≥ 3 fallback (`run_2q`,
//!   `run_kq`) — hoisted base enumeration with vector loads on the
//!   innermost contiguous runs;
//! * the `lanes.rs` |amp|² reduction accumulator (`accumulate_lanes`) —
//!   the four LANES partials ride one AVX2 register, preserving the
//!   index-partition combine tree bitwise.
//!
//! # The bitwise-oracle contract
//!
//! Every kernel here transcribes the scalar plane kernels' floating-point
//! operation sequence **intrinsic for intrinsic**: `_mm*_mul_pd` +
//! `_mm*_add_pd`/`_mm*_sub_pd` in the exact order and association of the
//! two-rounding [`qdp_linalg::C64::mul_add`] chain ([`complex_pair`] in
//! `kernels.rs`), leading `0.0 +` flush terms included. No FMA contraction
//! is performed (the `fma` target feature is enabled for the detection
//! contract, but no `vfmadd` intrinsic is emitted) — results agree **bit
//! for bit** with the scalar plane kernels for every input, and hence with
//! the reference scan (`kernels::apply_matrix_reference`) up to the sign of
//! zero (see the `kernels` module docs).
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
//! terms change the result; poisoned planes are still caught by the health
//! monitor's reductions, which never use this chain. Vector-loop
//! remainders always use the exact generic chain.
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

/// Whether the k=1 `run == 1` diagonal sweep can use the interleaved
/// vector kernel: the scalar `scale_run` skips `C64::ONE` entries entirely
/// and branches real/complex per entry, so vectorizing requires neither
/// entry to be the identity and both to sit on the same branch.
pub(crate) fn diag1_vectorizable(d0: C64, d1: C64) -> bool {
    d0 != C64::ONE && d1 != C64::ONE && (d0.im == 0.0) == (d1.im == 0.0)
}

// ---------------------------------------------------------------------------
// x86_64 kernel backend
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use super::{Chain1q, SimdTier};
    use qdp_linalg::C64;

    /// In-register shuffles for the AVX2 width. `deint` splits two
    /// interleaved vectors `[e0 o0 e1 o1] [e2 o2 e3 o3]` into
    /// `(evens, odds)` — in the permuted-but-consistent unpack order
    /// `[e0 e2 e1 e3]`, which is harmless because every chain is
    /// elementwise — and `inter` is its exact inverse.
    mod shuf256 {
        use std::arch::x86_64::*;

        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn deint(v0: __m256d, v1: __m256d) -> (__m256d, __m256d) {
            (_mm256_unpacklo_pd(v0, v1), _mm256_unpackhi_pd(v0, v1))
        }

        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn inter(lo: __m256d, hi: __m256d) -> (__m256d, __m256d) {
            (_mm256_unpacklo_pd(lo, hi), _mm256_unpackhi_pd(lo, hi))
        }

        /// `[a, b, a, b]` — the interleaved two-coefficient pattern of the
        /// `run == 1` diagonal sweep.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(super) fn pair2(a: f64, b: f64) -> __m256d {
            _mm256_setr_pd(a, b, a, b)
        }
    }

    /// In-register shuffles for the AVX-512 width, via two-source lane
    /// permutes. Unlike the unpack order, `deint` here is index-exact
    /// (`[e0..e7]`) and `inter` restores the original interleaving.
    mod shuf512 {
        use std::arch::x86_64::*;

        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn deint(v0: __m512d, v1: __m512d) -> (__m512d, __m512d) {
            let idx_even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            let idx_odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            (
                _mm512_permutex2var_pd(v0, idx_even, v1),
                _mm512_permutex2var_pd(v0, idx_odd, v1),
            )
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn inter(lo: __m512d, hi: __m512d) -> (__m512d, __m512d) {
            let idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
            let idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
            (
                _mm512_permutex2var_pd(lo, idx_lo, hi),
                _mm512_permutex2var_pd(lo, idx_hi, hi),
            )
        }

        /// `[a, b, a, b, a, b, a, b]`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        pub(super) fn pair2(a: f64, b: f64) -> __m512d {
            _mm512_setr_pd(a, b, a, b, a, b, a, b)
        }
    }

    /// Scalar remainder kernels: raw-pointer loops running the **exact**
    /// scalar plane chains (`complex_pair` and the real chain), shared as
    /// the tail of every vector loop so remainders always carry the same
    /// bits as the scalar kernels — including for non-finite inputs, where
    /// the Cross vector body diverges (remainders never use the reduced
    /// chain).
    ///
    /// Every fn here has the contract: all `ptr.add(idx)` touched for
    /// `idx` in the documented range must be in-bounds of a live `f64`
    /// allocation the caller has exclusive access to. The safe wrappers at
    /// the bottom of this module establish that from `&mut [f64]` slices.
    mod tails {
        use crate::kernels::complex_pair;
        use qdp_linalg::C64;

        /// # Safety
        /// `lr/li/hr/hi + 0..len` must be in-bounds and mutually disjoint.
        pub(super) unsafe fn run_full(
            lr: *mut f64,
            li: *mut f64,
            hr: *mut f64,
            hi: *mut f64,
            len: usize,
            g: &[C64; 4],
        ) {
            let mut i = 0usize;
            while i < len {
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
                i += 1;
            }
        }

        /// # Safety
        /// `lr/li/hr/hi + 0..len` must be in-bounds and mutually disjoint.
        pub(super) unsafe fn run_real(
            lr: *mut f64,
            li: *mut f64,
            hr: *mut f64,
            hi: *mut f64,
            len: usize,
            g: &[C64; 4],
        ) {
            let (r00, r01, r10, r11) = (g[0].re, g[1].re, g[2].re, g[3].re);
            let mut i = 0usize;
            while i < len {
                let (a0r, a0i, a1r, a1i) = (*lr.add(i), *li.add(i), *hr.add(i), *hi.add(i));
                *lr.add(i) = r00 * a0r + r01 * a1r;
                *li.add(i) = r00 * a0i + r01 * a1i;
                *hr.add(i) = r10 * a0r + r11 * a1r;
                *hi.add(i) = r10 * a0i + r11 * a1i;
                i += 1;
            }
        }

        /// # Safety
        /// `pr/pi + 0..n` must be in-bounds, disjoint; `n` even.
        pub(super) unsafe fn mask1_full(pr: *mut f64, pi: *mut f64, n: usize, g: &[C64; 4]) {
            let mut idx = 0usize;
            while idx < n {
                let (a, b, c, d) = complex_pair(
                    g[0],
                    g[1],
                    g[2],
                    g[3],
                    *pr.add(idx),
                    *pi.add(idx),
                    *pr.add(idx + 1),
                    *pi.add(idx + 1),
                );
                *pr.add(idx) = a;
                *pi.add(idx) = b;
                *pr.add(idx + 1) = c;
                *pi.add(idx + 1) = d;
                idx += 2;
            }
        }

        /// # Safety
        /// `pr/pi + 0..n` must be in-bounds, disjoint; `n` even.
        pub(super) unsafe fn mask1_real(pr: *mut f64, pi: *mut f64, n: usize, g: &[C64; 4]) {
            let (r00, r01, r10, r11) = (g[0].re, g[1].re, g[2].re, g[3].re);
            let mut idx = 0usize;
            while idx < n {
                let (a0r, a0i) = (*pr.add(idx), *pi.add(idx));
                let (a1r, a1i) = (*pr.add(idx + 1), *pi.add(idx + 1));
                *pr.add(idx) = r00 * a0r + r01 * a1r;
                *pi.add(idx) = r00 * a0i + r01 * a1i;
                *pr.add(idx + 1) = r10 * a0r + r11 * a1r;
                *pi.add(idx + 1) = r10 * a0i + r11 * a1i;
                idx += 2;
            }
        }

        /// # Safety
        /// `pr/pi + 0..n` must be in-bounds, disjoint; `n` even.
        pub(super) unsafe fn diag1_real(pr: *mut f64, pi: *mut f64, n: usize, s0: f64, s1: f64) {
            let mut idx = 0usize;
            while idx < n {
                *pr.add(idx) *= s0;
                *pi.add(idx) *= s0;
                *pr.add(idx + 1) *= s1;
                *pi.add(idx + 1) *= s1;
                idx += 2;
            }
        }

        /// # Safety
        /// `pr/pi + 0..n` must be in-bounds, disjoint; `n` even.
        pub(super) unsafe fn diag1_complex(pr: *mut f64, pi: *mut f64, n: usize, d0: C64, d1: C64) {
            let mut idx = 0usize;
            while idx < n {
                let (r0, i0) = (*pr.add(idx), *pi.add(idx));
                *pr.add(idx) = r0 * d0.re - i0 * d0.im;
                *pi.add(idx) = r0 * d0.im + i0 * d0.re;
                let (r1, i1) = (*pr.add(idx + 1), *pi.add(idx + 1));
                *pr.add(idx + 1) = r1 * d1.re - i1 * d1.im;
                *pi.add(idx + 1) = r1 * d1.im + i1 * d1.re;
                idx += 2;
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
    /// set, `$W` the f64 lane count, the intrinsic paths the width's
    /// arithmetic, `$shuf` the width's shuffle helpers, and `$tails` the
    /// module handling the `len % $W` vector-loop remainder — the scalar
    /// `tails` for AVX2, the AVX2 module itself for AVX-512, so remainders
    /// degrade one tier at a time and always end on the exact scalar chain.
    ///
    /// Every kernel is `# Safety`: caller must guarantee the pointer
    /// ranges documented on the matching `tails` fn **and** that the
    /// `$feat` target features are available (the safe wrappers below
    /// guarantee both).
    macro_rules! simd_width_kernels {
        ($modname:ident, $feat:literal, $W:literal,
         $set1:ident, $zero:ident, $load:ident, $store:ident,
         $add:ident, $sub:ident, $mul:ident,
         $shuf:ident, $tails:ident) => {
            mod $modname {
                use qdp_linalg::C64;
                use std::arch::x86_64::*;

                /// Generic 28-op `complex_pair` chain over one contiguous
                /// run of `len` orbit pairs at four disjoint streams.
                ///
                /// # Safety
                /// See module docs of the enclosing macro.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(in super::super) unsafe fn run_full(
                    lr: *mut f64,
                    li: *mut f64,
                    hr: *mut f64,
                    hi: *mut f64,
                    len: usize,
                    g: &[C64; 4],
                ) {
                    let g00r = $set1(g[0].re);
                    let g00i = $set1(g[0].im);
                    let g01r = $set1(g[1].re);
                    let g01i = $set1(g[1].im);
                    let g10r = $set1(g[2].re);
                    let g10i = $set1(g[2].im);
                    let g11r = $set1(g[3].re);
                    let g11i = $set1(g[3].im);
                    let zero = $zero();
                    let mut i = 0usize;
                    while i + $W <= len {
                        let a0r = $load(lr.add(i));
                        let a0i = $load(li.add(i));
                        let a1r = $load(hr.add(i));
                        let a1i = $load(hi.add(i));
                        let s0r = $sub($add(zero, $mul(g00r, a0r)), $mul(g00i, a0i));
                        let s0i = $add($add(zero, $mul(g00r, a0i)), $mul(g00i, a0r));
                        let lor = $sub($add(s0r, $mul(g01r, a1r)), $mul(g01i, a1i));
                        let loi = $add($add(s0i, $mul(g01r, a1i)), $mul(g01i, a1r));
                        let s1r = $sub($add(zero, $mul(g10r, a0r)), $mul(g10i, a0i));
                        let s1i = $add($add(zero, $mul(g10r, a0i)), $mul(g10i, a0r));
                        let hir = $sub($add(s1r, $mul(g11r, a1r)), $mul(g11i, a1i));
                        let hii = $add($add(s1i, $mul(g11r, a1i)), $mul(g11i, a1r));
                        $store(lr.add(i), lor);
                        $store(li.add(i), loi);
                        $store(hr.add(i), hir);
                        $store(hi.add(i), hii);
                        i += $W;
                    }
                    if i < len {
                        super::$tails::run_full(
                            lr.add(i),
                            li.add(i),
                            hr.add(i),
                            hi.add(i),
                            len - i,
                            g,
                        );
                    }
                }

                /// Reduced 16-op cross chain (real diagonal, imaginary
                /// off-diagonal, dead components `+0.0`) — bitwise equal to
                /// [`run_full`] on finite inputs; the remainder always runs
                /// the generic chain.
                ///
                /// # Safety
                /// See module docs of the enclosing macro.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(in super::super) unsafe fn run_cross(
                    lr: *mut f64,
                    li: *mut f64,
                    hr: *mut f64,
                    hi: *mut f64,
                    len: usize,
                    g: &[C64; 4],
                ) {
                    let g00r = $set1(g[0].re);
                    let g01i = $set1(g[1].im);
                    let g10i = $set1(g[2].im);
                    let g11r = $set1(g[3].re);
                    let zero = $zero();
                    let mut i = 0usize;
                    while i + $W <= len {
                        let a0r = $load(lr.add(i));
                        let a0i = $load(li.add(i));
                        let a1r = $load(hr.add(i));
                        let a1i = $load(hi.add(i));
                        let lor = $sub($add(zero, $mul(g00r, a0r)), $mul(g01i, a1i));
                        let loi = $add($add(zero, $mul(g00r, a0i)), $mul(g01i, a1r));
                        let hir = $add($sub(zero, $mul(g10i, a0i)), $mul(g11r, a1r));
                        let hii = $add($add(zero, $mul(g10i, a0r)), $mul(g11r, a1i));
                        $store(lr.add(i), lor);
                        $store(li.add(i), loi);
                        $store(hr.add(i), hir);
                        $store(hi.add(i), hii);
                        i += $W;
                    }
                    if i < len {
                        super::$tails::run_full(
                            lr.add(i),
                            li.add(i),
                            hr.add(i),
                            hi.add(i),
                            len - i,
                            g,
                        );
                    }
                }

                /// 8-op all-real chain, transcribing the scalar real fast
                /// path `r00*a0r + r01*a1r` (and friends) exactly.
                ///
                /// # Safety
                /// See module docs of the enclosing macro.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(in super::super) unsafe fn run_real(
                    lr: *mut f64,
                    li: *mut f64,
                    hr: *mut f64,
                    hi: *mut f64,
                    len: usize,
                    g: &[C64; 4],
                ) {
                    let r00 = $set1(g[0].re);
                    let r01 = $set1(g[1].re);
                    let r10 = $set1(g[2].re);
                    let r11 = $set1(g[3].re);
                    let mut i = 0usize;
                    while i + $W <= len {
                        let a0r = $load(lr.add(i));
                        let a0i = $load(li.add(i));
                        let a1r = $load(hr.add(i));
                        let a1i = $load(hi.add(i));
                        $store(lr.add(i), $add($mul(r00, a0r), $mul(r01, a1r)));
                        $store(li.add(i), $add($mul(r00, a0i), $mul(r01, a1i)));
                        $store(hr.add(i), $add($mul(r10, a0r), $mul(r11, a1r)));
                        $store(hi.add(i), $add($mul(r10, a0i), $mul(r11, a1i)));
                        i += $W;
                    }
                    if i < len {
                        super::$tails::run_real(
                            lr.add(i),
                            li.add(i),
                            hr.add(i),
                            hi.add(i),
                            len - i,
                            g,
                        );
                    }
                }

                /// `mask = 1` orbit, generic chain: loads `2·$W` stride-2
                /// pairs as full vectors, deinterleaves in-register,
                /// applies the chain, re-interleaves.
                ///
                /// # Safety
                /// See module docs of the enclosing macro; `n` even.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn mask1_full(
                    pr0: *mut f64,
                    pi0: *mut f64,
                    n: usize,
                    g: &[C64; 4],
                ) {
                    let g00r = $set1(g[0].re);
                    let g00i = $set1(g[0].im);
                    let g01r = $set1(g[1].re);
                    let g01i = $set1(g[1].im);
                    let g10r = $set1(g[2].re);
                    let g10i = $set1(g[2].im);
                    let g11r = $set1(g[3].re);
                    let g11i = $set1(g[3].im);
                    let zero = $zero();
                    let mut idx = 0usize;
                    while idx + 2 * $W <= n {
                        let pr = pr0.add(idx);
                        let pi = pi0.add(idx);
                        let r0 = $load(pr);
                        let r1 = $load(pr.add($W));
                        let i0 = $load(pi);
                        let i1 = $load(pi.add($W));
                        let (a0r, a1r) = super::$shuf::deint(r0, r1);
                        let (a0i, a1i) = super::$shuf::deint(i0, i1);
                        let s0r = $sub($add(zero, $mul(g00r, a0r)), $mul(g00i, a0i));
                        let s0i = $add($add(zero, $mul(g00r, a0i)), $mul(g00i, a0r));
                        let lor = $sub($add(s0r, $mul(g01r, a1r)), $mul(g01i, a1i));
                        let loi = $add($add(s0i, $mul(g01r, a1i)), $mul(g01i, a1r));
                        let s1r = $sub($add(zero, $mul(g10r, a0r)), $mul(g10i, a0i));
                        let s1i = $add($add(zero, $mul(g10r, a0i)), $mul(g10i, a0r));
                        let hir = $sub($add(s1r, $mul(g11r, a1r)), $mul(g11i, a1i));
                        let hii = $add($add(s1i, $mul(g11r, a1i)), $mul(g11i, a1r));
                        let (o0, o1) = super::$shuf::inter(lor, hir);
                        $store(pr, o0);
                        $store(pr.add($W), o1);
                        let (q0, q1) = super::$shuf::inter(loi, hii);
                        $store(pi, q0);
                        $store(pi.add($W), q1);
                        idx += 2 * $W;
                    }
                    if idx < n {
                        super::$tails::mask1_full(pr0.add(idx), pi0.add(idx), n - idx, g);
                    }
                }

                /// `mask = 1` orbit, reduced cross chain (see [`run_cross`]).
                ///
                /// # Safety
                /// See module docs of the enclosing macro; `n` even.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn mask1_cross(
                    pr0: *mut f64,
                    pi0: *mut f64,
                    n: usize,
                    g: &[C64; 4],
                ) {
                    let g00r = $set1(g[0].re);
                    let g01i = $set1(g[1].im);
                    let g10i = $set1(g[2].im);
                    let g11r = $set1(g[3].re);
                    let zero = $zero();
                    let mut idx = 0usize;
                    while idx + 2 * $W <= n {
                        let pr = pr0.add(idx);
                        let pi = pi0.add(idx);
                        let r0 = $load(pr);
                        let r1 = $load(pr.add($W));
                        let i0 = $load(pi);
                        let i1 = $load(pi.add($W));
                        let (a0r, a1r) = super::$shuf::deint(r0, r1);
                        let (a0i, a1i) = super::$shuf::deint(i0, i1);
                        let lor = $sub($add(zero, $mul(g00r, a0r)), $mul(g01i, a1i));
                        let loi = $add($add(zero, $mul(g00r, a0i)), $mul(g01i, a1r));
                        let hir = $add($sub(zero, $mul(g10i, a0i)), $mul(g11r, a1r));
                        let hii = $add($add(zero, $mul(g10i, a0r)), $mul(g11r, a1i));
                        let (o0, o1) = super::$shuf::inter(lor, hir);
                        $store(pr, o0);
                        $store(pr.add($W), o1);
                        let (q0, q1) = super::$shuf::inter(loi, hii);
                        $store(pi, q0);
                        $store(pi.add($W), q1);
                        idx += 2 * $W;
                    }
                    if idx < n {
                        super::$tails::mask1_full(pr0.add(idx), pi0.add(idx), n - idx, g);
                    }
                }

                /// `mask = 1` orbit, all-real chain (see [`run_real`]).
                ///
                /// # Safety
                /// See module docs of the enclosing macro; `n` even.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn mask1_real(
                    pr0: *mut f64,
                    pi0: *mut f64,
                    n: usize,
                    g: &[C64; 4],
                ) {
                    let r00 = $set1(g[0].re);
                    let r01 = $set1(g[1].re);
                    let r10 = $set1(g[2].re);
                    let r11 = $set1(g[3].re);
                    let mut idx = 0usize;
                    while idx + 2 * $W <= n {
                        let pr = pr0.add(idx);
                        let pi = pi0.add(idx);
                        let r0 = $load(pr);
                        let r1 = $load(pr.add($W));
                        let i0 = $load(pi);
                        let i1 = $load(pi.add($W));
                        let (a0r, a1r) = super::$shuf::deint(r0, r1);
                        let (a0i, a1i) = super::$shuf::deint(i0, i1);
                        let lor = $add($mul(r00, a0r), $mul(r01, a1r));
                        let loi = $add($mul(r00, a0i), $mul(r01, a1i));
                        let hir = $add($mul(r10, a0r), $mul(r11, a1r));
                        let hii = $add($mul(r10, a0i), $mul(r11, a1i));
                        let (o0, o1) = super::$shuf::inter(lor, hir);
                        $store(pr, o0);
                        $store(pr.add($W), o1);
                        let (q0, q1) = super::$shuf::inter(loi, hii);
                        $store(pi, q0);
                        $store(pi.add($W), q1);
                        idx += 2 * $W;
                    }
                    if idx < n {
                        super::$tails::mask1_real(pr0.add(idx), pi0.add(idx), n - idx, g);
                    }
                }

                /// `run == 1` real-diagonal sweep: interleaved `[s0, s1,
                /// s0, s1, …]` coefficient vector, one multiply per plane.
                ///
                /// # Safety
                /// See module docs of the enclosing macro; `n` even.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn diag1_real(
                    pr: *mut f64,
                    pi: *mut f64,
                    n: usize,
                    s0: f64,
                    s1: f64,
                ) {
                    let sv = super::$shuf::pair2(s0, s1);
                    let mut i = 0usize;
                    while i + $W <= n {
                        $store(pr.add(i), $mul($load(pr.add(i)), sv));
                        $store(pi.add(i), $mul($load(pi.add(i)), sv));
                        i += $W;
                    }
                    if i < n {
                        super::$tails::diag1_real(pr.add(i), pi.add(i), n - i, s0, s1);
                    }
                }

                /// `run == 1` complex-diagonal sweep, transcribing the
                /// scalar `r0*dr - i0*di` / `r0*di + i0*dr` pair.
                ///
                /// # Safety
                /// See module docs of the enclosing macro; `n` even.
                #[target_feature(enable = $feat)]
                pub(in super::super) unsafe fn diag1_complex(
                    pr: *mut f64,
                    pi: *mut f64,
                    n: usize,
                    d0: C64,
                    d1: C64,
                ) {
                    let drv = super::$shuf::pair2(d0.re, d1.re);
                    let div = super::$shuf::pair2(d0.im, d1.im);
                    let mut i = 0usize;
                    while i + $W <= n {
                        let r = $load(pr.add(i));
                        let im = $load(pi.add(i));
                        $store(pr.add(i), $sub($mul(r, drv), $mul(im, div)));
                        $store(pi.add(i), $add($mul(r, div), $mul(im, drv)));
                        i += $W;
                    }
                    if i < n {
                        super::$tails::diag1_complex(pr.add(i), pi.add(i), n - i, d0, d1);
                    }
                }

                /// Dense 2q innermost run: four disjoint streams at
                /// `off[b] + 0..len`, per-row left-associated
                /// `C64::ZERO.mul_add` chain, all 8 stream vectors loaded
                /// before any row stores.
                ///
                /// # Safety
                /// See module docs of the enclosing macro.
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
                /// See module docs of the enclosing macro.
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
    /// Pointer contracts of `tails::run_full`; `tier` must be a
    /// runtime-detected non-Scalar tier (its target features present).
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
            (SimdTier::Avx512, Chain1q::Full) => avx512k::run_full(lr, li, hr, hi, len, g),
            (SimdTier::Avx512, Chain1q::Cross) => avx512k::run_cross(lr, li, hr, hi, len, g),
            (SimdTier::Avx512, Chain1q::Real) => avx512k::run_real(lr, li, hr, hi, len, g),
            (SimdTier::Avx2, Chain1q::Full) => avx2k::run_full(lr, li, hr, hi, len, g),
            (SimdTier::Avx2, Chain1q::Cross) => avx2k::run_cross(lr, li, hr, hi, len, g),
            (SimdTier::Avx2, Chain1q::Real) => avx2k::run_real(lr, li, hr, hi, len, g),
            (SimdTier::Scalar, _) => unreachable!("SIMD dispatch reached with Scalar tier"),
        }
    }

    /// Tier × chain dispatch for one `mask = 1` span of `n` amplitudes.
    ///
    /// # Safety
    /// Pointer contracts of `tails::mask1_full` (`n` even); `tier` must be
    /// a runtime-detected non-Scalar tier.
    unsafe fn mask1_raw(
        tier: SimdTier,
        pr: *mut f64,
        pi: *mut f64,
        n: usize,
        g: &[C64; 4],
        chain: Chain1q,
    ) {
        match (tier, chain) {
            (SimdTier::Avx512, Chain1q::Full) => avx512k::mask1_full(pr, pi, n, g),
            (SimdTier::Avx512, Chain1q::Cross) => avx512k::mask1_cross(pr, pi, n, g),
            (SimdTier::Avx512, Chain1q::Real) => avx512k::mask1_real(pr, pi, n, g),
            (SimdTier::Avx2, Chain1q::Full) => avx2k::mask1_full(pr, pi, n, g),
            (SimdTier::Avx2, Chain1q::Cross) => avx2k::mask1_cross(pr, pi, n, g),
            (SimdTier::Avx2, Chain1q::Real) => avx2k::mask1_real(pr, pi, n, g),
            (SimdTier::Scalar, _) => unreachable!("SIMD dispatch reached with Scalar tier"),
        }
    }

    /// Serial dense-1q sweep over whole (sub-)planes: `mask = 1` goes to
    /// the deinterleave kernel, larger masks walk `2·mask` blocks and run
    /// the contiguous-run kernel on each half pair.
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
        let n = re.len();
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        if mask == 1 {
            // SAFETY: `pr`/`pi` cover `n` in-bounds f64s from two disjoint
            // `&mut` slices of asserted-equal length; `n` is even (multiple
            // of 2·mask = 2); `tier` comes from runtime detection, so the
            // kernel's target features are present.
            unsafe { mask1_raw(tier, pr, pi, n, g, chain) };
            return;
        }
        let align = mask << 1;
        let mut base = 0usize;
        while base < n {
            // SAFETY: `n` is a multiple of `align`, so `base + align <= n`:
            // the lo run `[base, base+mask)` and hi run `[base+mask,
            // base+2·mask)` are in-bounds and disjoint in each plane, and
            // the re/im planes are themselves disjoint `&mut` slices;
            // `tier` comes from runtime detection.
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
        debug_assert!(
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

    /// `run == 1` diagonal sweep: even indices scale by `d0`, odd by `d1`.
    /// Caller must have checked [`super::diag1_vectorizable`].
    pub(crate) fn sweep_diag1(tier: SimdTier, re: &mut [f64], im: &mut [f64], d0: C64, d1: C64) {
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        debug_assert!(re.len().is_multiple_of(2), "diag1 sweep needs an even plane length");
        debug_assert!(super::diag1_vectorizable(d0, d1), "diag1 sweep on unvectorizable entries");
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD sweep called with Scalar tier");
        let n = re.len();
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        // `diag1_vectorizable` guarantees both entries sit on the same
        // real/complex branch, mirroring the scalar per-entry split.
        if d0.im == 0.0 {
            // SAFETY: `pr`/`pi` cover `n` (even) in-bounds f64s from two
            // disjoint `&mut` slices; `tier` comes from runtime detection.
            unsafe {
                match tier {
                    SimdTier::Avx512 => avx512k::diag1_real(pr, pi, n, d0.re, d1.re),
                    SimdTier::Avx2 => avx2k::diag1_real(pr, pi, n, d0.re, d1.re),
                    SimdTier::Scalar => unreachable!("SIMD dispatch reached with Scalar tier"),
                }
            }
        } else {
            // SAFETY: as above.
            unsafe {
                match tier {
                    SimdTier::Avx512 => avx512k::diag1_complex(pr, pi, n, d0, d1),
                    SimdTier::Avx2 => avx2k::diag1_complex(pr, pi, n, d0, d1),
                    SimdTier::Scalar => unreachable!("SIMD dispatch reached with Scalar tier"),
                }
            }
        }
    }

    /// Block-diagonal sweep for `tmask == 1` (target on the last qubit):
    /// the plane is alternating `cmask`-length segments whose control bit
    /// is the segment parity (chunks are `2·cmask`-aligned), and each
    /// selected segment is exactly a `mask = 1` orbit span — `B` on
    /// control-set segments, `A` on control-clear ones unless `A` is the
    /// identity. Chains are classified with `allow_real = false` because
    /// the scalar block-diagonal kernel always runs `complex_pair`.
    pub(crate) fn sweep_blockdiag_t1(
        tier: SimdTier,
        re: &mut [f64],
        im: &mut [f64],
        cmask: usize,
        a: &[C64; 4],
        b: &[C64; 4],
        identity_a: bool,
    ) {
        debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
        debug_assert!(cmask >= 2 && cmask.is_power_of_two(), "tmask == 1 implies cmask >= 2");
        debug_assert!(re.len().is_multiple_of(cmask << 1), "plane length must be a multiple of 2·cmask");
        debug_assert_ne!(tier, SimdTier::Scalar, "SIMD sweep called with Scalar tier");
        let ca = super::classify_1q(a, false);
        let cb = super::classify_1q(b, false);
        let n = re.len();
        let pr = re.as_mut_ptr();
        let pi = im.as_mut_ptr();
        let mut s = 0usize;
        let mut ctrl_set = false;
        while s < n {
            if ctrl_set {
                // SAFETY: `n` is a multiple of `2·cmask`, so the segment
                // `[s, s+cmask)` is in-bounds of both (disjoint) planes and
                // `cmask` is even-length... `cmask >= 2` and a power of
                // two, so the span length is even as the kernel requires;
                // `tier` comes from runtime detection.
                unsafe { mask1_raw(tier, pr.add(s), pi.add(s), cmask, b, cb) };
            } else if !identity_a {
                // SAFETY: as above.
                unsafe { mask1_raw(tier, pr.add(s), pi.add(s), cmask, a, ca) };
            }
            s += cmask;
            ctrl_set = !ctrl_set;
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
pub(crate) use x86::{
    accumulate_lanes, run_1q, run_2q, run_kq, sweep_1q, sweep_blockdiag_t1, sweep_diag1,
};

/// Stub backend for non-x86_64 targets and Miri: [`active_tier`] is always
/// [`SimdTier::Scalar`] there (see [`detect`]), and every kernel dispatch
/// in `kernels.rs`/`lanes.rs` guards on a non-Scalar tier before calling
/// in, so these bodies are unreachable — they exist only so the dispatch
/// sites compile unchanged.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
mod fallback {
    use super::{Chain1q, SimdTier};
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

    pub(crate) fn sweep_diag1(_tier: SimdTier, _re: &mut [f64], _im: &mut [f64], _d0: C64, _d1: C64) {
        unreachable!("SIMD kernel called on a target with no SIMD backend");
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_blockdiag_t1(
        _tier: SimdTier,
        _re: &mut [f64],
        _im: &mut [f64],
        _cmask: usize,
        _a: &[C64; 4],
        _b: &[C64; 4],
        _identity_a: bool,
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
    accumulate_lanes, run_1q, run_2q, run_kq, sweep_1q, sweep_blockdiag_t1, sweep_diag1,
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
    fn diag1_vectorizable_requires_shared_branch_and_no_identity() {
        let one = C64::ONE;
        let r = C64::new(0.5, 0.0);
        let z = C64::new(0.3, 0.4);
        assert!(diag1_vectorizable(r, C64::new(-1.0, 0.0)));
        assert!(diag1_vectorizable(z, C64::new(0.0, 1.0)));
        assert!(!diag1_vectorizable(one, z), "identity entries keep the scalar skip");
        assert!(!diag1_vectorizable(r, one));
        assert!(!diag1_vectorizable(r, z), "mixed real/complex branches stay scalar");
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    mod kernel_pins {
        use super::super::*;
        use crate::kernels::complex_pair;

        fn planes(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let re: Vec<f64> = (0..n).map(|_| next()).collect();
            let im: Vec<f64> = (0..n).map(|_| next()).collect();
            (re, im)
        }

        fn tiers() -> Vec<SimdTier> {
            let mut t = Vec::new();
            if detected_tier() >= SimdTier::Avx2 {
                t.push(SimdTier::Avx2);
            }
            if detected_tier() >= SimdTier::Avx512 {
                t.push(SimdTier::Avx512);
            }
            t
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// The scalar dense-1q sweep: the same chain selection the SIMD
        /// dispatch uses, written as the plane kernels write it.
        fn scalar_sweep(re: &mut [f64], im: &mut [f64], mask: usize, g: &[C64; 4], real: bool) {
            let align = mask << 1;
            let mut base = 0usize;
            while base < re.len() {
                for i in base..base + mask {
                    let (a0r, a0i, a1r, a1i) = (re[i], im[i], re[i + mask], im[i + mask]);
                    let (lr, li, hr, hi) = if real {
                        (
                            g[0].re * a0r + g[1].re * a1r,
                            g[0].re * a0i + g[1].re * a1i,
                            g[2].re * a0r + g[3].re * a1r,
                            g[2].re * a0i + g[3].re * a1i,
                        )
                    } else {
                        complex_pair(g[0], g[1], g[2], g[3], a0r, a0i, a1r, a1i)
                    };
                    re[i] = lr;
                    im[i] = li;
                    re[i + mask] = hr;
                    im[i + mask] = hi;
                }
                base += align;
            }
        }

        #[test]
        fn dense_1q_sweeps_match_scalar_bitwise() {
            let c = (0.35f64).cos();
            let s = (0.35f64).sin();
            let gates: [([C64; 4], bool); 3] = [
                // Cross (RX shape).
                (
                    [C64::new(c, 0.0), C64::new(0.0, -s), C64::new(0.0, -s), C64::new(c, 0.0)],
                    false,
                ),
                // Real.
                ([C64::new(c, 0.0), C64::new(s, 0.0), C64::new(s, 0.0), C64::new(-c, 0.0)], true),
                // Full complex.
                ([C64::new(c, s), C64::new(s, -c), C64::new(-s, c), C64::new(c, -s)], false),
            ];
            for tier in tiers() {
                for (g, real) in &gates {
                    let chain = classify_1q(g, *real);
                    for mask in [1usize, 2, 4, 8, 16] {
                        // Lengths exercising both full vectors and tails.
                        for blocks in [1usize, 3, 5] {
                            let n = (mask << 1) * blocks;
                            let (re0, im0) = planes(n, (mask * 7 + blocks) as u64);
                            let mut re_s = re0.clone();
                            let mut im_s = im0.clone();
                            scalar_sweep(&mut re_s, &mut im_s, mask, g, *real);
                            let mut re_v = re0.clone();
                            let mut im_v = im0.clone();
                            sweep_1q(tier, &mut re_v, &mut im_v, mask, g, chain);
                            assert_eq!(
                                bits(&re_s),
                                bits(&re_v),
                                "re tier={tier:?} mask={mask} n={n} chain={chain:?}"
                            );
                            assert_eq!(
                                bits(&im_s),
                                bits(&im_v),
                                "im tier={tier:?} mask={mask} n={n} chain={chain:?}"
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn diag1_sweeps_match_scalar_bitwise() {
            for tier in tiers() {
                for n in [2usize, 6, 8, 20, 34] {
                    let (re0, im0) = planes(n, n as u64 + 11);
                    // Real pair.
                    let (s0, s1) = (0.8f64, -1.25f64);
                    let mut re_s = re0.clone();
                    let mut im_s = im0.clone();
                    for i in (0..n).step_by(2) {
                        re_s[i] *= s0;
                        im_s[i] *= s0;
                        re_s[i + 1] *= s1;
                        im_s[i + 1] *= s1;
                    }
                    let mut re_v = re0.clone();
                    let mut im_v = im0.clone();
                    sweep_diag1(
                        tier,
                        &mut re_v,
                        &mut im_v,
                        C64::new(s0, 0.0),
                        C64::new(s1, 0.0),
                    );
                    assert_eq!(bits(&re_s), bits(&re_v), "real re tier={tier:?} n={n}");
                    assert_eq!(bits(&im_s), bits(&im_v), "real im tier={tier:?} n={n}");
                    // Complex pair (RZ shape).
                    let d0 = C64::new(0.6, -0.8);
                    let d1 = C64::new(0.6, 0.8);
                    let mut re_s = re0.clone();
                    let mut im_s = im0.clone();
                    for i in 0..n {
                        let d = if i % 2 == 0 { d0 } else { d1 };
                        let (r0, i0) = (re_s[i], im_s[i]);
                        re_s[i] = r0 * d.re - i0 * d.im;
                        im_s[i] = r0 * d.im + i0 * d.re;
                    }
                    let mut re_v = re0.clone();
                    let mut im_v = im0.clone();
                    sweep_diag1(tier, &mut re_v, &mut im_v, d0, d1);
                    assert_eq!(bits(&re_s), bits(&re_v), "complex re tier={tier:?} n={n}");
                    assert_eq!(bits(&im_s), bits(&im_v), "complex im tier={tier:?} n={n}");
                }
            }
        }

        #[test]
        fn blockdiag_t1_matches_scalar_bitwise() {
            let c = (0.7f64).cos();
            let s = (0.7f64).sin();
            let a = [C64::new(c, s), C64::new(s, -c), C64::new(-s, c), C64::new(c, -s)];
            let b = [C64::new(c, 0.0), C64::new(0.0, -s), C64::new(0.0, -s), C64::new(c, 0.0)];
            for tier in tiers() {
                for cmask in [2usize, 4, 8, 16] {
                    for identity_a in [false, true] {
                        let n = cmask * 6;
                        let (re0, im0) = planes(n, cmask as u64 + 29);
                        let mut re_s = re0.clone();
                        let mut im_s = im0.clone();
                        for p in (0..n).step_by(2) {
                            let ctrl = p & cmask != 0;
                            if !ctrl && identity_a {
                                continue;
                            }
                            let g = if ctrl { &b } else { &a };
                            let (lr, li, hr, hi) = complex_pair(
                                g[0], g[1], g[2], g[3], re_s[p], im_s[p], re_s[p + 1],
                                im_s[p + 1],
                            );
                            re_s[p] = lr;
                            im_s[p] = li;
                            re_s[p + 1] = hr;
                            im_s[p + 1] = hi;
                        }
                        let mut re_v = re0.clone();
                        let mut im_v = im0.clone();
                        sweep_blockdiag_t1(tier, &mut re_v, &mut im_v, cmask, &a, &b, identity_a);
                        assert_eq!(
                            bits(&re_s),
                            bits(&re_v),
                            "re tier={tier:?} cmask={cmask} id_a={identity_a}"
                        );
                        assert_eq!(
                            bits(&im_s),
                            bits(&im_v),
                            "im tier={tier:?} cmask={cmask} id_a={identity_a}"
                        );
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
