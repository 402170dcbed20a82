//! Fixed-width lane-split reductions over split-plane amplitude data.
//!
//! Every `|amp|²` reduction in the simulator — state norms, batched row
//! norms, measurement probability buckets — runs through this module so the
//! floating-point summation order is defined in exactly one place.
//!
//! # The re-pinned determinism contract (PR 7)
//!
//! A reduction over amplitudes `0..len` maintains [`LANES`] independent
//! partial sums; amplitude `i` contributes `re[i]² + im[i]²` (the exact
//! [`qdp_linalg::C64::norm_sqr`] expression) to partial `i % LANES`, in
//! ascending `i` order, and the partials are combined by the fixed tree
//! `(p0 + p1) + (p2 + p3)`. The lane of an amplitude is a function of its
//! **global index alone** — never of a chunk offset, thread id, or bucket —
//! so:
//!
//! * results are bit-identical under any thread count (parallel callers
//!   reduce serially; only gate kernels parallelise, elementwise),
//! * a bucketed sweep that partitions indices over outcome buckets produces
//!   for each bucket exactly the bits a post-collapse norm of that bucket's
//!   members produces, because the non-members contribute exact `+0.0`
//!   terms that are additive identities on the non-negative partials, and
//! * the independent partials break the loop-carried dependency of a naive
//!   serial sum, which is what lets the autovectorizer keep [`LANES`]
//!   accumulators in one vector register.
//!
//! The pre-PR-7 contract summed serially in index order; the absolute
//! values differ from that order by ordinary rounding (≤ a few ulps on
//! normalised states), and every oracle that pinned the old order has been
//! re-pinned against this one (see `crates/sim/tests/layout_differential.rs`).

/// Number of independent partial sums in every lane-split reduction.
pub(crate) const LANES: usize = 4;

/// Minimum aligned-run length worth handing to the explicit vector
/// accumulator ([`crate::simd::accumulate_lanes`]). The bits are identical
/// either way — this only decides who runs. `#[target_feature]` kernels
/// cannot inline into their callers, so short runs (the block-measurement
/// sweeps fold mask-length runs of 32–128 amplitudes) pay a call + dispatch
/// per run that outweighs the vector win; they stay on the inlined scalar
/// block loop, which the autovectorizer already packs.
const SIMD_MIN_LEN: usize = 256;

/// The fixed combine tree over the four partials.
#[inline(always)]
pub(crate) fn combine(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Lane-split `Σᵢ re[i]² + im[i]²` over whole planes.
///
/// # Panics
///
/// Debug-asserts equal plane lengths.
pub(crate) fn sum_norm_sqr(re: &[f64], im: &[f64]) -> f64 {
    debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
    combine(lane_partials(re, im, 0))
}

/// The raw partials of a lane-split norm reduction, with amplitude `i`
/// assigned to lane `(start + i) % LANES` — `start` is the slice's global
/// offset, so sub-slice reductions can keep the whole-array lane labels.
#[inline]
pub(crate) fn lane_partials(re: &[f64], im: &[f64], start: usize) -> [f64; LANES] {
    debug_assert_eq!(re.len(), im.len(), "re/im planes must have equal lengths");
    let mut acc = [0.0f64; LANES];
    let n = re.len();
    if start.is_multiple_of(LANES) {
        // Aligned fast path: lane j of a 4-wide block is j, every block.
        // `chunks_exact` hands the loop panic-free fixed-size blocks —
        // indexed `re[i + 3]` accesses carry bounds checks that force the
        // codegen scalar and spill the partials every element.
        let main = n & !(LANES - 1);
        // Length gate first: short runs skip the tier dispatch entirely
        // (its atomic loads are per-call overhead on the run-folding paths).
        let tier = if main >= SIMD_MIN_LEN {
            crate::simd::active_tier()
        } else {
            crate::simd::SimdTier::Scalar
        };
        if tier != crate::simd::SimdTier::Scalar {
            // The explicit 4-lane vector accumulator carries the exact
            // per-lane fold bits, so the re-pinned contract is unchanged.
            crate::simd::accumulate_lanes(tier, &mut acc, &re[..main], &im[..main]);
        } else {
            for (r4, i4) in re[..main].chunks_exact(LANES).zip(im[..main].chunks_exact(LANES)) {
                acc[0] += r4[0] * r4[0] + i4[0] * i4[0];
                acc[1] += r4[1] * r4[1] + i4[1] * i4[1];
                acc[2] += r4[2] * r4[2] + i4[2] * i4[2];
                acc[3] += r4[3] * r4[3] + i4[3] * i4[3];
            }
        }
        for j in main..n {
            acc[j % LANES] += re[j] * re[j] + im[j] * im[j];
        }
    } else {
        for j in 0..n {
            acc[(start + j) % LANES] += re[j] * re[j] + im[j] * im[j];
        }
    }
    acc
}

/// Adds the lane-split norm contributions of the run `[start, start+len)`
/// of the planes into `acc`, lanes labelled by global index. Bucketed
/// probability sweeps call this once per constant-outcome run; summing a
/// bucket's runs in ascending order reproduces, bit for bit, what
/// [`sum_norm_sqr`] would produce over the bucket's members alone padded
/// with `+0.0` non-members — the block-vs-collapsed-norm pin relies on it.
///
/// Each element is folded into its lane's running partial **one at a
/// time** (never via a run-local subtotal): the zero-padded sweep is a
/// strictly sequential per-lane fold, and `x + 0.0 == x` is only an exact
/// identity element-by-element — a run-local subtotal would regroup the
/// additions and change the bits for runs longer than [`LANES`].
#[inline]
pub(crate) fn add_run(acc: &mut [f64; LANES], re: &[f64], im: &[f64], start: usize, len: usize) {
    debug_assert!(start + len <= re.len() && start + len <= im.len(), "run out of bounds");
    let end = start + len;
    if start.is_multiple_of(LANES) {
        // Aligned fast path: one element per lane per 4-wide block, folded
        // straight into the caller's partials through panic-free
        // `chunks_exact` blocks (see [`lane_partials`]).
        let main = start + (len & !(LANES - 1));
        // Length gate first, as in [`lane_partials`]: the bucketed sweeps
        // fold thousands of short runs, so the dispatch must cost nothing
        // there.
        let tier = if main - start >= SIMD_MIN_LEN {
            crate::simd::active_tier()
        } else {
            crate::simd::SimdTier::Scalar
        };
        if tier != crate::simd::SimdTier::Scalar {
            // Same vector accumulator as [`lane_partials`]: identical
            // per-lane fold, folded into the caller's running partials.
            crate::simd::accumulate_lanes(tier, acc, &re[start..main], &im[start..main]);
        } else {
            for (r4, i4) in
                re[start..main].chunks_exact(LANES).zip(im[start..main].chunks_exact(LANES))
            {
                acc[0] += r4[0] * r4[0] + i4[0] * i4[0];
                acc[1] += r4[1] * r4[1] + i4[1] * i4[1];
                acc[2] += r4[2] * r4[2] + i4[2] * i4[2];
                acc[3] += r4[3] * r4[3] + i4[3] * i4[3];
            }
        }
        for j in main..end {
            acc[j % LANES] += re[j] * re[j] + im[j] * im[j];
        }
    } else {
        for j in start..end {
            acc[j % LANES] += re[j] * re[j] + im[j] * im[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let re: Vec<f64> = (0..n).map(|_| next()).collect();
        let im: Vec<f64> = (0..n).map(|_| next()).collect();
        (re, im)
    }

    /// The contract, written out naively: ascending index, lane = i % 4,
    /// fixed combine.
    fn contract_sum(re: &[f64], im: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..re.len() {
            acc[i % LANES] += re[i] * re[i] + im[i] * im[i];
        }
        combine(acc)
    }

    #[test]
    fn sum_matches_contract_at_all_lengths() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 1024, 1027] {
            let (re, im) = planes(n, n as u64 + 3);
            assert_eq!(
                sum_norm_sqr(&re, &im).to_bits(),
                contract_sum(&re, &im).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn run_accumulation_matches_zero_padded_whole_sweep() {
        // A bucket holding runs [0,4) and [8,12) of a 16-amp array must sum
        // to the same bits as a whole-array sweep where the other runs are
        // +0.0 — the bucket/collapse bitwise pin.
        let (re, im) = planes(16, 42);
        let mut acc = [0.0f64; LANES];
        add_run(&mut acc, &re, &im, 0, 4);
        add_run(&mut acc, &re, &im, 8, 4);
        let bucket = combine(acc);

        let mut padded_re = vec![0.0f64; 16];
        let mut padded_im = vec![0.0f64; 16];
        padded_re[0..4].copy_from_slice(&re[0..4]);
        padded_im[0..4].copy_from_slice(&im[0..4]);
        padded_re[8..12].copy_from_slice(&re[8..12]);
        padded_im[8..12].copy_from_slice(&im[8..12]);
        assert_eq!(bucket.to_bits(), sum_norm_sqr(&padded_re, &padded_im).to_bits());
    }

    #[test]
    fn unaligned_runs_keep_global_lane_labels() {
        // Runs of length 2 starting at odd-multiple-of-2 offsets: lanes must
        // still be labelled by global index, so interleaved buckets exactly
        // partition the whole-array partials.
        let (re, im) = planes(32, 7);
        let mut even = [0.0f64; LANES];
        let mut odd = [0.0f64; LANES];
        for start in (0..32).step_by(4) {
            add_run(&mut even, &re, &im, start, 2);
            add_run(&mut odd, &re, &im, start + 2, 2);
        }
        let mut both = [0.0f64; LANES];
        for j in 0..LANES {
            both[j] = even[j] + odd[j];
        }
        // Each lane's contributions arrive in ascending order within each
        // bucket, so the partition identity holds lane by lane only when
        // addition grouping matches; check the weaker but sufficient
        // property the engine relies on: each bucket equals its own
        // zero-padded whole-array sweep.
        let mut padded_re = vec![0.0f64; 32];
        let mut padded_im = vec![0.0f64; 32];
        for start in (0..32).step_by(4) {
            padded_re[start..start + 2].copy_from_slice(&re[start..start + 2]);
            padded_im[start..start + 2].copy_from_slice(&im[start..start + 2]);
        }
        assert_eq!(
            combine(even).to_bits(),
            sum_norm_sqr(&padded_re, &padded_im).to_bits()
        );
        let _ = both;
    }

    #[test]
    fn long_runs_match_zero_padded_whole_sweep() {
        // Runs longer than LANES put several elements in the same lane per
        // run; the fold must stay strictly sequential per lane (no run-local
        // subtotals) to match the zero-padded sweep bit for bit. This is the
        // k=1 measurement shape with mask 8 on a 32-amp row.
        let (re, im) = planes(32, 99);
        let mut acc = [0.0f64; LANES];
        add_run(&mut acc, &re, &im, 0, 8);
        add_run(&mut acc, &re, &im, 16, 8);
        let bucket = combine(acc);

        let mut padded_re = vec![0.0f64; 32];
        let mut padded_im = vec![0.0f64; 32];
        padded_re[0..8].copy_from_slice(&re[0..8]);
        padded_im[0..8].copy_from_slice(&im[0..8]);
        padded_re[16..24].copy_from_slice(&re[16..24]);
        padded_im[16..24].copy_from_slice(&im[16..24]);
        assert_eq!(bucket.to_bits(), sum_norm_sqr(&padded_re, &padded_im).to_bits());
    }

    #[test]
    fn empty_planes_sum_to_positive_zero() {
        assert_eq!(sum_norm_sqr(&[], &[]).to_bits(), 0.0f64.to_bits());
    }
}
