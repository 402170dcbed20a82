//! Seeded open-loop arrival schedules.

/// SplitMix64: a tiny, well-mixed, seedable generator — enough for input
/// generation, and independent of the workspace's sampling streams.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Send offsets, in seconds from the start of the window, of a Poisson
/// process at `rate` arrivals per second over `seconds`, conditioned on
/// exactly `round(rate · seconds)` arrivals.
///
/// Conditioning on the count keeps the offered load identical across seeds
/// (only the spacing varies), so throughput figures compare between runs.
/// A Poisson process conditioned on its count is a sorted set of uniform
/// points; they are built here from normalised cumulative exponential gaps.
/// The same seed always yields the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut rng = SplitMix64::new(seed);
    let mut acc = 0.0;
    let mut points = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        // 1 − u lies in (0, 1], so the logarithm is finite.
        acc += -(1.0 - rng.next_f64()).ln();
        points.push(acc);
    }
    let total = acc;
    points.truncate(n);
    for t in &mut points {
        *t = *t / total * seconds;
    }
    points
}
