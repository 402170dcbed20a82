//! Order statistics over timing samples.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of unsorted samples: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples of a repeated job, kept per part: part `i` of every repetition
/// lands in slot `i`. Contention from other work on the host only ever
/// adds time, so a part's least sample is the closest reading of its own
/// cost, and a job split into short parts is read at its least contended
/// by [`Parts::sum_of_mins`].
#[derive(Clone, Debug, Default)]
pub struct Parts {
    samples: Vec<Vec<f64>>,
}

impl Parts {
    /// Records one sample of part `i`.
    pub fn push(&mut self, i: usize, x: f64) {
        if self.samples.len() <= i {
            self.samples.resize(i + 1, Vec::new());
        }
        self.samples[i].push(x);
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no part has a sample.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The fewest samples any part has.
    pub fn repetitions(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The sum over parts of each part's least sample.
    pub fn sum_of_mins(&self) -> f64 {
        self.samples
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .filter(|m| m.is_finite())
            .sum()
    }
}

/// The percentiles the tail rule may report, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The tail a sample set supports: the highest percentile on
/// [`TAIL_LADDER`] with at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`); `None` when even the median
    /// has fewer than ten samples beyond it.
    pub percentile: Option<f64>,
    /// The sample at that percentile (0 when `percentile` is `None`).
    pub value: f64,
    /// How many samples the figure rests on.
    pub samples: usize,
}

/// Applies the tail rule: report the highest percentile that has at least
/// ten samples beyond it, together with the sample count.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let best = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n >= 1 && n - rank(n, p) >= 10);
    Tail {
        percentile: best,
        value: best.map_or(0.0, |p| percentile(samples, p)),
        samples: n,
    }
}
