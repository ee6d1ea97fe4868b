//! Per-destination communication counters and hot-set extraction (§3.3,
//! §4.2).

use spcp_sim::{CoreId, CoreSet};

/// The hot communication set of §3.3: every core whose entry of `volumes`
/// is at least `max(1, ceil(total × threshold))`, where `total` is the sum
/// of `volumes`. With a `max_size` cap only that many hottest cores
/// stay, ties broken by the lower core index for determinism.
///
/// # Examples
///
/// ```
/// use spcp_core::hot_set;
/// use spcp_sim::CoreSet;
///
/// // A total of 101: the cutoff is ceil(10.1) = 11, so only core 1 is hot.
/// assert_eq!(hot_set(&[10, 90, 1], 101, 0.10, None), CoreSet::from_bits(0b010));
/// assert!(hot_set(&[0, 0], 0, 0.10, None).is_empty());
/// ```
pub fn hot_set(volumes: &[u32], total: u64, threshold: f64, max_size: Option<usize>) -> CoreSet {
    if total == 0 {
        return CoreSet::empty();
    }
    let cutoff = ((total as f64 * threshold).ceil() as u64).max(1);
    let hot = volumes
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v as u64 >= cutoff);
    let Some(cap) = max_size else {
        return hot.map(|(i, _)| CoreId::new(i)).collect();
    };
    let mut hot: Vec<(u32, usize)> = hot.map(|(i, &v)| (v, i)).collect();
    hot.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    hot.truncate(cap);
    hot.into_iter().map(|(_, i)| CoreId::new(i)).collect()
}

/// Communication-volume counters for one core over one sync-epoch.
///
/// The L2 controller increments one counter per remote data response
/// (read/write misses serviced cache-to-cache) and per invalidation
/// acknowledgment. At epoch end the **hot communication set** is extracted:
/// every core that contributed at least `threshold` (default 10%) of the
/// epoch's total communication volume (§3.3).
///
/// # Examples
///
/// ```
/// use spcp_core::CommCounters;
/// use spcp_sim::CoreId;
///
/// let mut c = CommCounters::new(16);
/// for _ in 0..9 {
///     c.record(CoreId::new(5));
/// }
/// c.record(CoreId::new(2));
/// let hot = c.hot_set(0.10, None);
/// assert!(hot.contains(CoreId::new(5)));
/// assert!(hot.contains(CoreId::new(2))); // exactly 10% still qualifies
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommCounters {
    counts: Vec<u32>,
    total: u64,
}

impl CommCounters {
    /// Creates counters for a machine with `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0);
        CommCounters {
            counts: vec![0; num_cores],
            total: 0,
        }
    }

    /// Number of cores tracked.
    pub fn num_cores(&self) -> usize {
        self.counts.len()
    }

    /// Records one communication event towards `target` (a data response
    /// from, or an invalidation ack by, that core).
    pub fn record(&mut self, target: CoreId) {
        self.counts[target.index()] = self.counts[target.index()].saturating_add(1);
        self.total += 1;
    }

    /// Records one event towards every core in `targets` (an invalidation
    /// fan-out's ack set).
    pub fn record_set(&mut self, targets: CoreSet) {
        for t in targets.iter() {
            self.record(t);
        }
    }

    /// Total events recorded this epoch.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-core volume.
    pub fn volume(&self, target: CoreId) -> u32 {
        self.counts[target.index()]
    }

    /// Clears all counters (the epoch-begin reset of Table 2).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Extracts the hot communication set ([`hot_set`] over these
    /// counters), optionally capped to the `max_size` hottest cores (the
    /// bandwidth-bounding knob of §5.2).
    ///
    /// Returns the empty set when nothing was recorded.
    pub fn hot_set(&self, threshold: f64, max_size: Option<usize>) -> CoreSet {
        hot_set(&self.counts, self.total, threshold, max_size)
    }

    /// Cumulative fraction of total volume covered by the `k` hottest
    /// cores, for the Figure 4 locality curves.
    pub fn coverage_by_top(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut v: Vec<u32> = self.counts.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let covered: u64 = v.iter().take(k).map(|&x| x as u64).sum();
        covered as f64 / self.total as f64
    }

    /// The full sorted (descending) volume distribution, for
    /// characterization plots.
    pub fn sorted_volumes(&self) -> Vec<u32> {
        let mut v = self.counts.clone();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn empty_counters_have_empty_hot_set() {
        let c = CommCounters::new(16);
        assert!(c.hot_set(0.10, None).is_empty());
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn record_accumulates() {
        let mut c = CommCounters::new(16);
        c.record(core(3));
        c.record(core(3));
        c.record(core(1));
        assert_eq!(c.volume(core(3)), 2);
        assert_eq!(c.volume(core(1)), 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn record_set_counts_each_member() {
        let mut c = CommCounters::new(16);
        let set = CoreSet::from_bits(0b1011);
        c.record_set(set);
        assert_eq!(c.total(), 3);
        assert_eq!(c.volume(core(0)), 1);
        assert_eq!(c.volume(core(1)), 1);
        assert_eq!(c.volume(core(3)), 1);
    }

    #[test]
    fn threshold_selects_hot_cores() {
        let mut c = CommCounters::new(16);
        // 90 events to core 5, 10 to core 2, 1 to core 7 (101 total).
        for _ in 0..90 {
            c.record(core(5));
        }
        for _ in 0..10 {
            c.record(core(2));
        }
        c.record(core(7));
        let hot = c.hot_set(0.10, None);
        assert!(hot.contains(core(5)));
        assert!(!hot.contains(core(2)), "9.9% is below a 10% threshold");
        assert!(!hot.contains(core(7)));
    }

    #[test]
    fn exact_threshold_is_inclusive() {
        let mut c = CommCounters::new(16);
        for _ in 0..9 {
            c.record(core(0));
        }
        c.record(core(1)); // exactly 10% of 10
        let hot = c.hot_set(0.10, None);
        assert!(hot.contains(core(1)));
    }

    #[test]
    fn max_size_keeps_hottest() {
        let mut c = CommCounters::new(16);
        for (i, n) in [(0usize, 50u32), (1, 30), (2, 20)] {
            for _ in 0..n {
                c.record(core(i));
            }
        }
        let hot = c.hot_set(0.10, Some(2));
        assert_eq!(hot.len(), 2);
        assert!(hot.contains(core(0)));
        assert!(hot.contains(core(1)));
        assert!(!hot.contains(core(2)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = CommCounters::new(8);
        c.record(core(1));
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.volume(core(1)), 0);
        assert!(c.hot_set(0.1, None).is_empty());
    }

    #[test]
    fn coverage_is_cumulative_and_monotonic() {
        let mut c = CommCounters::new(16);
        for _ in 0..60 {
            c.record(core(0));
        }
        for _ in 0..30 {
            c.record(core(1));
        }
        for _ in 0..10 {
            c.record(core(2));
        }
        assert!((c.coverage_by_top(1) - 0.6).abs() < 1e-9);
        assert!((c.coverage_by_top(2) - 0.9).abs() < 1e-9);
        assert!((c.coverage_by_top(16) - 1.0).abs() < 1e-9);
        let mut prev = 0.0;
        for k in 0..=16 {
            let cov = c.coverage_by_top(k);
            assert!(cov >= prev);
            prev = cov;
        }
    }

    #[test]
    fn sorted_volumes_descend() {
        let mut c = CommCounters::new(4);
        c.record(core(2));
        c.record(core(2));
        c.record(core(0));
        assert_eq!(c.sorted_volumes(), vec![2, 1, 0, 0]);
    }

    #[test]
    fn single_event_is_its_own_hot_set() {
        let mut c = CommCounters::new(16);
        c.record(core(9));
        assert_eq!(c.hot_set(0.10, None), CoreSet::single(core(9)));
    }
}
