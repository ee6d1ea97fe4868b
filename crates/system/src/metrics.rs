//! Run statistics and per-epoch communication records.

use spcp_core::SpStats;
use spcp_noc::NocStats;
use spcp_sim::{CoreSet, Histogram, MeanAccumulator};
use std::collections::BTreeMap;
use std::num::TryFromIntError;

/// The types of an [`EpochRecord`]'s `id`, for code that builds records.
pub use spcp_sync::{EpochId, StaticSyncId, SyncKind};

/// The recorded communication of one dynamic epoch instance on one core —
/// the raw material for Figures 2, 4, 5, 6 and the oracle predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The static epoch.
    pub id: EpochId,
    /// Dynamic instance number on this core.
    pub instance: u64,
    /// Communication volume towards each core. An *empty* vector means
    /// the instance communicated with nobody (all-zero volumes): the
    /// recorder stores non-communicating epochs this way so their counter
    /// buffer can be reused instead of reallocated.
    pub volumes: Vec<u32>,
}

impl EpochRecord {
    /// Total communication volume of the instance.
    pub fn total_volume(&self) -> u64 {
        self.volumes.iter().map(|&v| v as u64).sum()
    }

    /// The hot communication set at `threshold` ([`spcp_core::hot_set`]).
    pub fn hot_set(&self, threshold: f64) -> CoreSet {
        spcp_core::hot_set(&self.volumes, self.total_volume(), threshold, None)
    }
}

/// Bucket upper bounds of [`RunStats::miss_latency_hist`].
pub const LATENCY_BUCKETS: [u64; 6] = [16, 32, 64, 128, 256, 512];

/// Whole-run communication volume matrix, stored as one flat row-major
/// `Vec<u64>` so the per-miss increment on the simulator's hot path is a
/// single indexed add with no pointer chase through nested vectors.
///
/// # Examples
///
/// ```
/// use spcp_system::metrics::CommMatrix;
///
/// let mut m = CommMatrix::new(4);
/// m.bump(0, 3);
/// m.bump(0, 3);
/// assert_eq!(m.at(0, 3), 2);
/// assert_eq!(m.total(), 2);
/// assert_eq!(m.row(0), &[0, 0, 0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommMatrix {
    n: usize,
    cells: Vec<u64>,
}

impl CommMatrix {
    /// An all-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        CommMatrix {
            n,
            cells: vec![0; n * n],
        }
    }

    /// The matrix whose row-major cells are `cells`, or `None` when their
    /// count is not a square.
    pub fn from_cells(cells: Vec<u64>) -> Option<Self> {
        let n = cells.len().isqrt();
        (n * n == cells.len()).then_some(CommMatrix { n, cells })
    }

    /// Number of cores per side (0 for the default empty matrix).
    pub fn num_cores(&self) -> usize {
        self.n
    }

    /// Increments the `src → dst` cell.
    #[inline]
    pub fn bump(&mut self, src: usize, dst: usize) {
        self.cells[src * self.n + dst] += 1;
    }

    /// The `src → dst` cell value.
    pub fn at(&self, src: usize, dst: usize) -> u64 {
        self.cells[src * self.n + dst]
    }

    /// One source core's per-target volumes.
    pub fn row(&self, src: usize) -> &[u64] {
        &self.cells[src * self.n..(src + 1) * self.n]
    }

    /// Iterates the rows in source order.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.cells.chunks(self.n.max(1))
    }

    /// Sum of every cell (total communicating-miss volume).
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Largest single cell value.
    pub fn max(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Benchmark name.
    pub benchmark: String,
    /// Protocol name.
    pub protocol: String,

    /// Total operations executed (memory + sync + compute).
    pub total_ops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (after L1 miss).
    pub l2_hits: u64,
    /// L2 misses (coherence transactions).
    pub l2_misses: u64,
    /// Write hits on Shared/Forward lines (upgrades).
    pub upgrades: u64,

    /// Misses whose minimal sufficient target set was non-empty.
    pub comm_misses: u64,
    /// Misses satisfied by memory alone.
    pub noncomm_misses: u64,

    /// Latency over all L2 misses (incl. upgrades).
    pub miss_latency: MeanAccumulator,
    /// Latency over communicating misses only.
    pub comm_miss_latency: MeanAccumulator,
    /// Miss-latency distribution (bucket upper bounds: 16, 32, 64, 128,
    /// 256, 512 cycles, plus overflow).
    pub miss_latency_hist: Histogram,
    /// End-to-end execution time in cycles.
    pub exec_cycles: u64,

    /// Network traffic and energy.
    pub noc: NocStats,
    /// L2 tag probes caused by external (forwarded/predicted/snoop)
    /// requests.
    pub snoop_probes: u64,
    /// Energy of those probes.
    pub snoop_energy: f64,

    /// Misses on which a (non-empty) prediction was issued.
    pub predictions: u64,
    /// Predictions that were sufficient (superset of the true targets).
    pub pred_sufficient: u64,
    /// Sufficient predictions on *communicating* misses — the Figure 7
    /// numerator (indirection avoided).
    pub pred_sufficient_comm: u64,
    /// Insufficient predictions.
    pub pred_insufficient: u64,
    /// Communicating misses that paid the directory indirection.
    pub indirections: u64,
    /// Sum of predicted-set sizes over predicted misses.
    pub predicted_set_sum: u64,
    /// Sum of minimal-sufficient-set sizes over communicating misses.
    pub actual_set_sum: u64,
    /// Predictor storage at end of run, in bits (sum over tiles).
    pub predictor_storage_bits: u64,
    /// Byte·hops of prediction-specific messages (predicted requests,
    /// nacks, directory updates) issued for *communicating* misses.
    pub pred_overhead_comm: u64,
    /// Byte·hops of prediction-specific messages issued for
    /// *non-communicating* misses (the always-wasted attempts of §5.3).
    pub pred_overhead_noncomm: u64,

    /// Predictions suppressed by the region snoop filter (§5.3).
    pub filtered_predictions: u64,
    /// Thread-migration events performed (§5.5 scenario).
    pub migrations: u64,

    /// Aggregated SP statistics (present for SP runs).
    pub sp: Option<SpStats>,

    /// Whole-run communication volume matrix (`src → dst`; only when
    /// recording was enabled).
    pub comm_matrix: CommMatrix,
    /// Per-core epoch records (only when recording was enabled).
    pub epoch_records: Vec<Vec<EpochRecord>>,
    /// Per-static-instruction communication volumes (only when recording):
    /// `pc -> per-target volumes`.
    pub pc_volumes: BTreeMap<u32, Vec<u64>>,
    /// The §3.2-style miss + sync-point trace (only when trace collection
    /// was enabled).
    pub trace: Vec<spcp_trace::TraceEvent>,
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats {
            benchmark: String::new(),
            protocol: String::new(),
            total_ops: 0,
            loads: 0,
            stores: 0,
            l1_hits: 0,
            l2_hits: 0,
            l2_misses: 0,
            upgrades: 0,
            comm_misses: 0,
            noncomm_misses: 0,
            miss_latency: MeanAccumulator::new(),
            comm_miss_latency: MeanAccumulator::new(),
            miss_latency_hist: Histogram::with_bounds(&LATENCY_BUCKETS),
            exec_cycles: 0,
            noc: Default::default(),
            snoop_probes: 0,
            snoop_energy: 0.0,
            predictions: 0,
            pred_sufficient: 0,
            pred_sufficient_comm: 0,
            pred_insufficient: 0,
            indirections: 0,
            predicted_set_sum: 0,
            actual_set_sum: 0,
            predictor_storage_bits: 0,
            pred_overhead_comm: 0,
            pred_overhead_noncomm: 0,
            filtered_predictions: 0,
            migrations: 0,
            sp: None,
            comm_matrix: CommMatrix::default(),
            epoch_records: Vec::new(),
            pc_volumes: BTreeMap::new(),
            trace: Vec::new(),
        }
    }
}

impl RunStats {
    /// Approximate latency percentile (the upper bound of the bucket
    /// containing the `p`-quantile sample), or `None` with no misses.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        let total = self.miss_latency_hist.total();
        if total == 0 {
            return None;
        }
        let rank = (total as f64 * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &count) in self.miss_latency_hist.bucket_counts().iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(LATENCY_BUCKETS.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Fraction of L2 misses that communicate (Figure 1).
    pub fn comm_ratio(&self) -> f64 {
        let total = self.comm_misses + self.noncomm_misses;
        if total == 0 {
            0.0
        } else {
            self.comm_misses as f64 / total as f64
        }
    }

    /// Fraction of communicating misses that avoided indirection
    /// (Figure 7's y-value).
    pub fn accuracy(&self) -> f64 {
        if self.comm_misses == 0 {
            0.0
        } else {
            self.pred_sufficient_comm as f64 / self.comm_misses as f64
        }
    }

    /// Fraction of all misses that paid indirection (Figure 12's y-axis).
    pub fn indirection_ratio(&self) -> f64 {
        let total = self.comm_misses + self.noncomm_misses;
        if total == 0 {
            0.0
        } else {
            self.indirections as f64 / total as f64
        }
    }

    /// Mean predicted-set size over predicted misses (Table 5).
    pub fn mean_predicted_set(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.predicted_set_sum as f64 / self.predictions as f64
        }
    }

    /// Mean minimal sufficient set size over communicating misses
    /// (Table 5's "actual").
    pub fn mean_actual_set(&self) -> f64 {
        if self.comm_misses == 0 {
            0.0
        } else {
            self.actual_set_sum as f64 / self.comm_misses as f64
        }
    }

    /// Total energy (NoC + snoop probes), the Figure 11 metric.
    pub fn energy(&self) -> f64 {
        self.noc.energy + self.snoop_energy
    }

    /// Bandwidth metric used for Figures 9/12: byte·hops moved on the NoC.
    pub fn bandwidth(&self) -> u64 {
        self.noc.byte_hops
    }
}

/// One scalar statistic of a run: its name in golden snapshots and spool
/// records, how to read it and how to write it back. Values travel as
/// `u128`; `f64` energies travel as their IEEE-754 bit patterns, so every
/// row round-trips bit-exactly.
#[derive(Debug, Clone, Copy)]
pub struct Scalar {
    /// The statistic's name.
    pub name: &'static str,
    /// Reads the value.
    pub get: fn(&RunStats) -> u128,
    /// Writes the value back; fails when it does not fit the field.
    pub set: fn(&mut RunStats, u128) -> Result<(), TryFromIntError>,
}

/// A `u64` counter at a `RunStats` field path.
macro_rules! counter {
    ($name:literal, $($field:ident).+) => {
        Scalar {
            name: $name,
            get: |s| s.$($field).+ as u128,
            set: |s, v| {
                s.$($field).+ = u64::try_from(v)?;
                Ok(())
            },
        }
    };
}

/// An `f64` at a `RunStats` field path, as its bit pattern.
macro_rules! bits {
    ($name:literal, $($field:ident).+) => {
        Scalar {
            name: $name,
            get: |s| s.$($field).+.to_bits() as u128,
            set: |s, v| {
                s.$($field).+ = f64::from_bits(u64::try_from(v)?);
                Ok(())
            },
        }
    };
}

/// The sum or the sample count of a `MeanAccumulator` field.
macro_rules! moment {
    ($name:literal, $field:ident . sum) => {
        Scalar {
            name: $name,
            get: |s| s.$field.sum(),
            set: |s, v| {
                let m = s.$field;
                s.$field = MeanAccumulator::from_parts(v, m.count(), m.raw_min(), m.raw_max());
                Ok(())
            },
        }
    };
    ($name:literal, $field:ident . count) => {
        Scalar {
            name: $name,
            get: |s| s.$field.count() as u128,
            set: |s, v| {
                let m = s.$field;
                let count = u64::try_from(v)?;
                s.$field = MeanAccumulator::from_parts(m.sum(), count, m.raw_min(), m.raw_max());
                Ok(())
            },
        }
    };
}

/// Every scalar statistic a run reports, in golden-snapshot order: the one
/// place that decides which statistics a golden snapshot and a spool
/// record carry, under which names and in which order.
///
/// Adding a statistic is one row here (plus a bump of the golden header's
/// version, since every snapshot gains a line).
pub static SCALARS: [Scalar; 34] = [
    counter!("total_ops", total_ops),
    counter!("loads", loads),
    counter!("stores", stores),
    counter!("l1_hits", l1_hits),
    counter!("l2_hits", l2_hits),
    counter!("l2_misses", l2_misses),
    counter!("upgrades", upgrades),
    counter!("comm_misses", comm_misses),
    counter!("noncomm_misses", noncomm_misses),
    counter!("exec_cycles", exec_cycles),
    moment!("miss_latency_sum", miss_latency.sum),
    moment!("miss_latency_count", miss_latency.count),
    moment!("comm_miss_latency_sum", comm_miss_latency.sum),
    moment!("comm_miss_latency_count", comm_miss_latency.count),
    counter!("noc_messages", noc.messages),
    counter!("noc_bytes_injected", noc.bytes_injected),
    counter!("noc_byte_hops", noc.byte_hops),
    counter!("noc_ctrl_byte_hops", noc.ctrl_byte_hops),
    counter!("noc_contention_cycles", noc.contention_cycles),
    bits!("noc_energy_bits", noc.energy),
    counter!("snoop_probes", snoop_probes),
    bits!("snoop_energy_bits", snoop_energy),
    counter!("predictions", predictions),
    counter!("pred_sufficient", pred_sufficient),
    counter!("pred_sufficient_comm", pred_sufficient_comm),
    counter!("pred_insufficient", pred_insufficient),
    counter!("indirections", indirections),
    counter!("predicted_set_sum", predicted_set_sum),
    counter!("pred_overhead_comm", pred_overhead_comm),
    counter!("pred_overhead_noncomm", pred_overhead_noncomm),
    counter!("actual_set_sum", actual_set_sum),
    counter!("predictor_storage_bits", predictor_storage_bits),
    counter!("filtered_predictions", filtered_predictions),
    counter!("migrations", migrations),
];

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_sim::CoreId;

    fn record(volumes: Vec<u32>) -> EpochRecord {
        EpochRecord {
            id: EpochId {
                kind: SyncKind::Barrier,
                static_id: StaticSyncId::new(1),
            },
            instance: 0,
            volumes,
        }
    }

    #[test]
    fn epoch_record_hot_set_threshold() {
        let mut v = vec![0u32; 16];
        v[5] = 90;
        v[2] = 10;
        v[7] = 1;
        let r = record(v);
        assert_eq!(r.total_volume(), 101);
        let hot = r.hot_set(0.10);
        assert!(hot.contains(CoreId::new(5)));
        assert!(!hot.contains(CoreId::new(2)));
        assert!(!hot.contains(CoreId::new(7)));
    }

    #[test]
    fn empty_record_has_empty_hot_set() {
        let r = record(vec![0; 16]);
        assert!(r.hot_set(0.10).is_empty());
    }

    #[test]
    fn every_scalar_reads_back_what_it_wrote() {
        let mut s = RunStats::default();
        for (i, scalar) in SCALARS.iter().enumerate() {
            (scalar.set)(&mut s, 1 + i as u128).unwrap();
        }
        for (i, scalar) in SCALARS.iter().enumerate() {
            assert_eq!((scalar.get)(&s), 1 + i as u128, "{}", scalar.name);
        }
        let names: std::collections::HashSet<&str> = SCALARS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), SCALARS.len(), "names are unique");
    }

    #[test]
    fn only_the_latency_sums_hold_more_than_u64() {
        let wide = u64::MAX as u128 + 1;
        for scalar in &SCALARS {
            let fits = (scalar.set)(&mut RunStats::default(), wide).is_ok();
            assert_eq!(
                fits,
                scalar.name.ends_with("latency_sum"),
                "{}",
                scalar.name
            );
        }
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = RunStats::default();
        assert_eq!(s.comm_ratio(), 0.0);
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.indirection_ratio(), 0.0);
        assert_eq!(s.mean_predicted_set(), 0.0);
        assert_eq!(s.mean_actual_set(), 0.0);
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let mut s = RunStats::default();
        assert_eq!(s.latency_percentile(0.5), None);
        // 9 fast misses (<=16) and 1 slow one (>512).
        for _ in 0..9 {
            s.miss_latency_hist.record(10);
        }
        s.miss_latency_hist.record(10_000);
        assert_eq!(s.latency_percentile(0.5), Some(16));
        assert_eq!(s.latency_percentile(0.9), Some(16));
        assert_eq!(s.latency_percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn derived_metrics_compute() {
        let s = RunStats {
            comm_misses: 80,
            noncomm_misses: 20,
            pred_sufficient_comm: 60,
            indirections: 25,
            predictions: 50,
            predicted_set_sum: 125,
            actual_set_sum: 96,
            ..RunStats::default()
        };
        assert!((s.comm_ratio() - 0.8).abs() < 1e-12);
        assert!((s.accuracy() - 0.75).abs() < 1e-12);
        assert!((s.indirection_ratio() - 0.25).abs() < 1e-12);
        assert!((s.mean_predicted_set() - 2.5).abs() < 1e-12);
        assert!((s.mean_actual_set() - 1.2).abs() < 1e-12);
    }
}
