//! Trace-driven characterization (the paper's §3 methodology).

use crate::event::TraceEvent;
use spcp_sim::{CoreId, CoreSet};
use spcp_sync::SyncKind;
use std::collections::HashMap;

/// The communication summary of one dynamic epoch instance, reconstructed
/// from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSummary {
    /// Core that executed the epoch.
    pub core: CoreId,
    /// Static ID of the sync-point that began the epoch.
    pub static_id: u32,
    /// Kind of the beginning sync-point.
    pub kind: SyncKind,
    /// Dynamic instance number.
    pub instance: u64,
    /// Per-target communication volume.
    pub volumes: Vec<u32>,
}

impl EpochSummary {
    /// Total communication volume.
    pub fn total_volume(&self) -> u64 {
        self.volumes.iter().map(|&v| v as u64).sum()
    }

    /// The hot communication set at `threshold` ([`spcp_core::hot_set`]).
    pub fn hot_set(&self, threshold: f64) -> CoreSet {
        spcp_core::hot_set(&self.volumes, self.total_volume(), threshold, None)
    }
}

/// Replays a trace and derives the §3 characterization: miss counts,
/// communicating ratio, per-epoch volumes and hot sets, and sync-epoch
/// statistics — all without a timing simulator, exactly as the paper's
/// characterization study does.
///
/// # Examples
///
/// ```
/// use spcp_trace::{TraceAnalyzer, TraceEvent};
/// use spcp_core::AccessKind;
/// use spcp_mem::BlockAddr;
/// use spcp_sim::{CoreId, CoreSet};
/// use spcp_sync::SyncKind;
///
/// let trace = vec![
///     TraceEvent::Sync { core: CoreId::new(0), kind: SyncKind::Barrier, static_id: 1, instance: 0 },
///     TraceEvent::Miss {
///         core: CoreId::new(0),
///         block: BlockAddr::from_index(4),
///         pc: 0,
///         kind: AccessKind::Read,
///         targets: CoreSet::from_bits(0b10),
///     },
/// ];
/// let a = TraceAnalyzer::from_events(16, &trace);
/// assert_eq!(a.comm_misses(), 1);
/// assert_eq!(a.epochs().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceAnalyzer {
    num_cores: usize,
    total_misses: u64,
    comm_misses: u64,
    epochs: Vec<EpochSummary>,
    /// Per-core currently open epoch index into `epochs`.
    open: Vec<Option<usize>>,
    static_epochs: HashMap<(usize, u32, SyncKind), u64>,
}

impl TraceAnalyzer {
    /// Replays `events` for a `num_cores` machine.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or an event references a core beyond
    /// it.
    pub fn from_events(num_cores: usize, events: &[TraceEvent]) -> Self {
        assert!(num_cores > 0);
        let mut a = TraceAnalyzer {
            num_cores,
            total_misses: 0,
            comm_misses: 0,
            epochs: Vec::new(),
            open: vec![None; num_cores],
            static_epochs: HashMap::new(),
        };
        for e in events {
            a.feed(e);
        }
        a
    }

    fn feed(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Sync {
                core,
                kind,
                static_id,
                instance,
            } => {
                assert!(core.index() < self.num_cores, "core out of range");
                *self
                    .static_epochs
                    .entry((core.index(), static_id, kind))
                    .or_insert(0) += 1;
                let summary = EpochSummary {
                    core,
                    static_id,
                    kind,
                    instance,
                    volumes: vec![0; self.num_cores],
                };
                self.epochs.push(summary);
                self.open[core.index()] = Some(self.epochs.len() - 1);
            }
            TraceEvent::Miss { core, targets, .. } => {
                assert!(core.index() < self.num_cores, "core out of range");
                self.total_misses += 1;
                if !targets.is_empty() {
                    self.comm_misses += 1;
                    if let Some(idx) = self.open[core.index()] {
                        for t in targets.iter() {
                            self.epochs[idx].volumes[t.index()] += 1;
                        }
                    }
                }
            }
        }
    }

    /// Total misses in the trace.
    pub fn total_misses(&self) -> u64 {
        self.total_misses
    }

    /// Communicating misses in the trace.
    pub fn comm_misses(&self) -> u64 {
        self.comm_misses
    }

    /// Fraction of misses that communicate (Figure 1, trace-driven).
    pub fn comm_ratio(&self) -> f64 {
        if self.total_misses == 0 {
            0.0
        } else {
            self.comm_misses as f64 / self.total_misses as f64
        }
    }

    /// All reconstructed epoch instances, in trace order.
    pub fn epochs(&self) -> &[EpochSummary] {
        &self.epochs
    }

    /// Distinct static sync-epochs per core (Table 1, trace-driven),
    /// averaged over cores.
    pub fn static_epochs_per_core(&self) -> f64 {
        if self.num_cores == 0 {
            return 0.0;
        }
        self.static_epochs.len() as f64 / self.num_cores as f64
    }

    /// Dynamic epoch instances per core, averaged.
    pub fn dynamic_epochs_per_core(&self) -> f64 {
        self.epochs.len() as f64 / self.num_cores as f64
    }

    /// Distribution of hot-set sizes over active epochs: buckets for sizes
    /// 1, 2, 3, 4 and ≥5 (Figure 5, trace-driven).
    pub fn hot_set_size_distribution(&self, threshold: f64) -> [u64; 5] {
        let mut buckets = [0u64; 5];
        for e in &self.epochs {
            let size = e.hot_set(threshold).len();
            if size > 0 {
                buckets[size.min(5) - 1] += 1;
            }
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_core::AccessKind;
    use spcp_mem::BlockAddr;

    fn sync(core: usize, id: u32, inst: u64) -> TraceEvent {
        TraceEvent::Sync {
            core: CoreId::new(core),
            kind: SyncKind::Barrier,
            static_id: id,
            instance: inst,
        }
    }

    fn miss(core: usize, targets: u64) -> TraceEvent {
        TraceEvent::Miss {
            core: CoreId::new(core),
            block: BlockAddr::from_index(1),
            pc: 0,
            kind: AccessKind::Read,
            targets: CoreSet::from_bits(targets),
        }
    }

    #[test]
    fn counts_and_ratio() {
        let a = TraceAnalyzer::from_events(
            4,
            &[sync(0, 1, 0), miss(0, 0b10), miss(0, 0), miss(0, 0b10)],
        );
        assert_eq!(a.total_misses(), 3);
        assert_eq!(a.comm_misses(), 2);
        assert!((a.comm_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn volumes_attach_to_the_open_epoch() {
        let a = TraceAnalyzer::from_events(
            4,
            &[
                sync(0, 1, 0),
                miss(0, 0b10),
                sync(0, 2, 0),
                miss(0, 0b100),
                miss(0, 0b100),
            ],
        );
        assert_eq!(a.epochs().len(), 2);
        assert_eq!(a.epochs()[0].total_volume(), 1);
        assert_eq!(a.epochs()[1].total_volume(), 2);
        assert_eq!(a.epochs()[1].hot_set(0.1), CoreSet::from_bits(0b100));
    }

    #[test]
    fn misses_before_any_sync_are_counted_but_unattributed() {
        let a = TraceAnalyzer::from_events(4, &[miss(0, 0b10)]);
        assert_eq!(a.comm_misses(), 1);
        assert!(a.epochs().is_empty());
    }

    #[test]
    fn per_core_epoch_streams_are_independent() {
        let a = TraceAnalyzer::from_events(4, &[sync(0, 1, 0), sync(1, 1, 0), miss(1, 0b1)]);
        assert_eq!(a.epochs().len(), 2);
        assert_eq!(a.epochs()[0].total_volume(), 0);
        assert_eq!(a.epochs()[1].total_volume(), 1);
        assert!((a.dynamic_epochs_per_core() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hot_set_distribution_buckets() {
        let mut events = vec![sync(0, 1, 0)];
        // One epoch with a 2-core hot set.
        events.push(miss(0, 0b011));
        let a = TraceAnalyzer::from_events(4, &events);
        assert_eq!(a.hot_set_size_distribution(0.1), [0, 1, 0, 0, 0]);
    }

    #[test]
    fn static_epoch_counting() {
        let a = TraceAnalyzer::from_events(
            2,
            &[sync(0, 1, 0), sync(0, 1, 1), sync(0, 2, 0), sync(1, 1, 0)],
        );
        // Core 0 saw statics {1,2}; core 1 saw {1} -> 3 total / 2 cores.
        assert!((a.static_epochs_per_core() - 1.5).abs() < 1e-12);
        assert!((a.dynamic_epochs_per_core() - 2.0).abs() < 1e-12);
    }
}
