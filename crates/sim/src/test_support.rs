//! Shared helpers for this crate's unit tests.

use crate::state::StateVector;
use qdp_linalg::C64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic pseudo-random state with pure-imaginary, negative, and
/// negative-zero components — the inputs that expose signed-zero drift
/// between masked-copy fast paths and the gate kernels. One definition,
/// used by the measurement and sampling suites alike.
pub(crate) fn awkward_state(n: usize, seed: u64) -> StateVector {
    let mut s = seed;
    let mut next = || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let amps: Vec<C64> = (0..1usize << n)
        .map(|i| {
            if i % 5 == 0 {
                C64::new(0.0, next())
            } else if i % 7 == 0 {
                C64::new(next(), -0.0)
            } else {
                C64::new(next(), next())
            }
        })
        .collect();
    StateVector::from_amplitudes(n, amps)
}

/// Crafted `(total, probs)` rows for the selection oracles: plain
/// rows, slack (probabilities summing below `total`), zero-probability
/// leading and trailing outcomes, slightly negative and NaN entries.
pub(crate) fn crafted_rows() -> Vec<(f64, Vec<f64>)> {
    let mut rows = vec![
        (1.0, vec![0.3, 0.7]),
        (1.0, vec![0.5, 0.5]),
        (1.0, vec![1.0, 0.0]),
        (1.0, vec![0.0, 1.0]),
        (1.0, vec![0.25, 0.25, 0.0, 0.0]),
        (1.0, vec![0.0, 0.0, 0.5, 0.5]),
        (1.0, vec![0.0, 0.4, 0.0, 0.3, 0.0, 0.0, 0.3, 0.0]),
        (1.0 + 1e-15, vec![0.5, 0.5]),
        (0.3, vec![0.1, 0.2 - 1e-17]),
        (1.0, vec![-1e-17, 0.6, 0.4]),
        (1.0, vec![0.3, f64::NAN, 0.7]),
        (f64::NAN, vec![0.3, 0.7]),
        (1e-300, vec![5e-301, 5e-301]),
        (1.0, vec![0.1; 16]),
    ];
    // Rows of random widths and weights, with about a quarter of the
    // entries zero and a norm a little off the probabilities' sum.
    let mut rng = StdRng::seed_from_u64(0x5e1ec7);
    for _ in 0..64 {
        let width = rng.gen_range(1..9usize);
        let mut probs: Vec<f64> = (0..width)
            .map(|_| if rng.gen_range(0..4usize) == 0 { 0.0 } else { rng.gen::<f64>() })
            .collect();
        if probs.iter().all(|&p| p == 0.0) {
            probs[0] = 0.5;
        }
        let sum: f64 = probs.iter().sum();
        let total = sum * (1.0 + (rng.gen::<f64>() - 0.5) * 1e-12);
        rows.push((total, probs));
    }
    rows
}

/// Draws covering `[0, 1)` on a grid, its ends, and the values just
/// past each row's partial sums.
pub(crate) fn draws(total: f64, probs: &[f64]) -> Vec<f64> {
    let mut us: Vec<f64> = (0..=64).map(|k| k as f64 / 64.0).collect();
    us.push(1.0 - f64::EPSILON / 2.0);
    let mut acc = 0.0;
    for &p in probs {
        acc += p;
        let u = acc / total;
        us.extend([u, u.next_down(), u.next_up()].into_iter().filter(|u| (0.0..1.0).contains(u)));
    }
    us
}

/// The streams of `shots` shots of one seed, indices `0..shots`.
pub(crate) fn streams(seed: u64, shots: usize) -> Vec<crate::sampling::ShotStream> {
    (0..shots as u64).map(|index| crate::sampling::ShotStream { seed, index }).collect()
}

/// The serial oracle of a shot's draws: its stream's own sampler.
pub(crate) fn oracle_sampler(stream: crate::sampling::ShotStream) -> crate::sampling::ShotSampler {
    crate::sampling::ShotSampler::derived(stream.seed, stream.index)
}
