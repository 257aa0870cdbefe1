//! Performance counters and histograms.
//!
//! These are the model-side equivalents of the hardware performance counters
//! MAPLE exposes through its debug operations (Section 3.1 of the paper) and
//! of the core counters the FPGA evaluation reads (load counts in Figure 10,
//! average load latency in Figure 11).

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use maple_sim::stats::Counter;
///
/// let mut loads = Counter::default();
/// loads.inc();
/// loads.add(2);
/// assert_eq!(loads.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A histogram of `u64` samples with power-of-two buckets plus exact
/// sum/count/min/max, sized for latency distributions.
///
/// Bucket `i` covers values in `[2^i, 2^(i+1))`; bucket 0 covers `{0, 1}`.
///
/// # Example
///
/// ```
/// use maple_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(2);
/// h.record(300);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean(), 151.0);
/// assert_eq!(h.max(), Some(300));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Occupancy of the power-of-two bucket covering `[2^i, 2^(i+1))`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i.min(63)]
    }

    /// Approximate percentile (0.0–100.0) from bucket boundaries.
    ///
    /// Returns the upper bound of the bucket containing the requested rank,
    /// or `None` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }
}

/// Computes the geometric mean of a slice of ratios (used for the "geomean"
/// columns of every figure in the paper).
///
/// Returns 0.0 for an empty slice.
///
/// # Example
///
/// ```
/// use maple_sim::stats::geomean;
///
/// let g = geomean(&[2.0, 8.0]);
/// assert!((g - 4.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(2), 1); // 4
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 <= p99);
        assert!(p50 >= 500 / 2); // within bucket resolution
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 105);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn geomean_values() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_large_values_clamp() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.bucket(63), 1);
        assert_eq!(h.percentile(100.0), Some(u64::MAX));
    }
}
