//! Lightweight statistics accumulators used by every simulator component.

/// An online mean/min/max accumulator over `u64` samples.
///
/// # Examples
///
/// ```
/// use spcp_sim::MeanAccumulator;
///
/// let mut lat = MeanAccumulator::new();
/// lat.record(10);
/// lat.record(20);
/// assert_eq!(lat.mean(), 15.0);
/// assert_eq!(lat.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeanAccumulator {
    sum: u128,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for MeanAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl MeanAccumulator {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        MeanAccumulator {
            sum: 0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.sum += sample as u128;
        self.count += 1;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Rebuilds an accumulator from its raw moments, the inverse of
    /// reading `sum()`/`count()`/`min()`/`max()` — used by the sweep
    /// harness to round-trip statistics through spool files bit-exactly.
    ///
    /// `min`/`max` are the *raw* stored extremes: pass `u64::MAX`/`0`
    /// (their empty-state sentinels) when `count` is zero.
    pub const fn from_parts(sum: u128, count: u64, min: u64, max: u64) -> Self {
        MeanAccumulator {
            sum,
            count,
            min,
            max,
        }
    }

    /// The raw stored minimum (`u64::MAX` when empty); pairs with
    /// [`Self::from_parts`] for exact serialization.
    pub fn raw_min(&self) -> u64 {
        self.min
    }

    /// The raw stored maximum (`0` when empty); pairs with
    /// [`Self::from_parts`] for exact serialization.
    pub fn raw_max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MeanAccumulator) {
        self.sum += other.sum;
        self.count += other.count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples in `[bounds[i-1], bounds[i])`; the final
/// implicit bucket is unbounded. Used for miss-latency and hot-set-size
/// distributions.
///
/// # Examples
///
/// ```
/// use spcp_sim::Histogram;
///
/// let mut h = Histogram::with_bounds(&[10, 100]);
/// h.record(5);
/// h.record(50);
/// h.record(5000);
/// assert_eq!(h.bucket_counts(), &[1, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given strictly-increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Rebuilds a histogram from its bounds and per-bucket counts, the
    /// inverse of reading `bounds()`/`bucket_counts()` — used by the sweep
    /// harness to round-trip statistics through spool files bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing or `counts` does not
    /// have exactly one more entry than `bounds` (the overflow bucket).
    pub fn from_parts(bounds: &[u64], counts: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "histogram needs one count per bucket plus overflow"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
            total: counts.iter().sum(),
        }
    }

    /// Per-bucket counts (the last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket upper bounds as configured.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_accumulator_matches_new() {
        // A regression guard: a derived Default would zero `min` and make
        // every later `min()` report 0.
        let mut d = MeanAccumulator::default();
        d.record(162);
        assert_eq!(d.min(), Some(162));
        assert_eq!(d.max(), Some(162));
    }

    #[test]
    fn mean_accumulator_tracks_all_moments() {
        let mut m = MeanAccumulator::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.min(), None);
        for s in [4, 8, 12] {
            m.record(s);
        }
        assert_eq!(m.mean(), 8.0);
        assert_eq!(m.min(), Some(4));
        assert_eq!(m.max(), Some(12));
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum(), 24);
    }

    #[test]
    fn mean_accumulator_merge() {
        let mut a = MeanAccumulator::new();
        a.record(1);
        let mut b = MeanAccumulator::new();
        b.record(3);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(5));
    }

    #[test]
    fn merge_with_empty_keeps_minmax() {
        let mut a = MeanAccumulator::new();
        a.record(7);
        a.merge(&MeanAccumulator::new());
        assert_eq!(a.min(), Some(7));
        assert_eq!(a.max(), Some(7));
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::with_bounds(&[2, 4, 8]);
        for s in [0, 1, 2, 3, 4, 7, 8, 100] {
            h.record(s);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.bounds(), &[2, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        Histogram::with_bounds(&[5, 5]);
    }

    #[test]
    fn mean_accumulator_round_trips_through_parts() {
        let mut acc = MeanAccumulator::new();
        for s in [3, 99, 41] {
            acc.record(s);
        }
        let rebuilt =
            MeanAccumulator::from_parts(acc.sum(), acc.count(), acc.raw_min(), acc.raw_max());
        assert_eq!(rebuilt, acc);

        let empty = MeanAccumulator::new();
        let rebuilt = MeanAccumulator::from_parts(
            empty.sum(),
            empty.count(),
            empty.raw_min(),
            empty.raw_max(),
        );
        assert_eq!(rebuilt, empty);
        assert_eq!(rebuilt.min(), None);
    }

    #[test]
    fn histogram_round_trips_through_parts() {
        let mut h = Histogram::with_bounds(&[2, 4]);
        for s in [0, 3, 3, 100] {
            h.record(s);
        }
        let rebuilt = Histogram::from_parts(h.bounds(), h.bucket_counts());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.total(), 4);
    }

    #[test]
    #[should_panic(expected = "one count per bucket")]
    fn histogram_from_parts_rejects_bad_count_len() {
        Histogram::from_parts(&[2, 4], &[1, 2]);
    }
}
