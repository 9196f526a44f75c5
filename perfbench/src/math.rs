//! The metric math: order statistics, the tail-percentile rule,
//! geometric means, failure tallies, per-round rates and digests.

/// Percentiles a latency may be reported at, lowest first.
const TAIL_PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Number of samples strictly beyond the nearest-rank `q`-quantile of
/// `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of the reportable percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// Nearest-rank `q`-quantile of `values` (need not be sorted).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// Median (nearest-rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; `None` for an empty slice or a
/// non-positive or non-finite member.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

/// `a / b`, or 0 when `b` is 0 (an unexercised layer).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Attempted and failed units of work of one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units of work attempted (cells, jobs, cases, plus the checks
    /// that stand alone, such as a missing result).
    pub attempted: u64,
    /// Units that failed any check.
    pub failed: u64,
}

impl Tally {
    /// Counts one unit of work, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts a failure of a unit that was already attempted (a second
    /// check failing on the same unit does not count it twice).
    pub fn fail_attempted(&mut self, already_failed: bool) {
        if !already_failed {
            self.failed += 1;
        }
    }

    /// Failed / attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// FNV-1a over byte strings: the simulated digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent input seeds from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(101, 0.9), 10);
        assert_eq!(beyond(109, 0.9), 10);
        assert_eq!(beyond(110, 0.9), 11);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[0.5, 2.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        let g = geomean(&[0.8, 0.8, 0.8]).unwrap();
        assert!((g - 0.8).abs() < 1e-12);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn tally_counts_each_unit_once() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (3, 1));
        // A second failing check on the already-failed unit: no change.
        t.fail_attempted(true);
        assert_eq!(t.failed, 1);
        // A later check failing a unit that had passed.
        t.fail_attempted(false);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!((t.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
