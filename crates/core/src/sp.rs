//! The SP-predictor proper: prediction-policy engine of §4.

use crate::confidence::SatCounter;
use crate::counters::CommCounters;
use crate::miss::MissInfo;
use crate::predictor::{PredictionOutcome, TargetPredictor};
use crate::sptable::{shared_lock_table, SharedLockTable, SpTable};
use spcp_sim::{CoreId, CoreSet};
use spcp_sync::{EpochId, SyncKind, SyncPoint};

/// Tuning knobs of SP-prediction. Defaults reproduce the paper's evaluated
/// configuration (§5.1): history depth 2, 10% hot-set threshold, 30-miss
/// warm-up, 4-bit confidence, stride-2 pattern detection on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpConfig {
    /// Signatures kept per SP-table entry (`d`). Paper: 2.
    pub history_depth: usize,
    /// Hot-set extraction threshold as a fraction of epoch volume. Paper:
    /// 0.10.
    pub hot_threshold: f64,
    /// Optional cap on hot-set size (bandwidth-bounding knob of §5.2).
    pub max_hot_set: Option<usize>,
    /// Misses to observe before a first-time epoch extracts a within-epoch
    /// predictor (`d = 0` policy). Paper: ~30.
    pub warmup_misses: u64,
    /// Minimum communication events for an instance's signature to be
    /// stored; quieter instances are "noisy" (§3.4) and excluded.
    pub noise_threshold: u64,
    /// Width of the confidence counter. Paper: 4 bits.
    pub confidence_bits: u32,
    /// Enables stride-2 repetitive-pattern prediction (§4.4).
    pub stride2_detection: bool,
    /// For critical sections, also union in the preceding epoch's
    /// signature (the coarse-critical-section extension of §4.4).
    pub lock_union_preceding: bool,
    /// Optional SP-table entry capacity (space-sensitivity study).
    pub table_capacity: Option<usize>,
    /// Optional §4.6 set-associative table organization `(sets, ways)`;
    /// overrides `table_capacity`.
    pub table_sets_ways: Option<(usize, usize)>,
}

impl Default for SpConfig {
    fn default() -> Self {
        SpConfig {
            history_depth: 2,
            hot_threshold: 0.10,
            max_hot_set: None,
            warmup_misses: 30,
            noise_threshold: 8,
            confidence_bits: 4,
            stride2_detection: true,
            lock_union_preceding: false,
            table_capacity: None,
            table_sets_ways: None,
        }
    }
}

/// Which policy produced the active predictor — the stack categories of
/// Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredSource {
    /// First-seen epoch: within-interval warm-up extraction (`d = 0`).
    D0,
    /// History-based signature prediction (`d ≥ 1`, incl. stride-2).
    History,
    /// Lock-holder union for a critical section.
    Lock,
    /// Replacement predictor installed by confidence recovery.
    Recovery,
}

/// Aggregate SP-prediction statistics for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpStats {
    /// Predictions attempted (non-empty predicted set).
    pub predictions: u64,
    /// Predictions that were sufficient, by source.
    pub correct_d0: u64,
    /// Correct history-based predictions.
    pub correct_history: u64,
    /// Correct lock-union predictions.
    pub correct_lock: u64,
    /// Correct recovery-installed predictions.
    pub correct_recovery: u64,
    /// Insufficient predictions.
    pub incorrect: u64,
    /// Misses for which no prediction was available.
    pub no_prediction: u64,
    /// Confidence-triggered recoveries.
    pub recoveries: u64,
    /// Sum of predicted-set sizes (for Table 5's mean).
    pub predicted_target_sum: u64,
    /// Epoch instances whose signature was stored.
    pub signatures_stored: u64,
    /// Epoch instances dropped as noise.
    pub noisy_instances: u64,
}

impl SpStats {
    /// Total sufficient predictions across all sources.
    pub fn correct(&self) -> u64 {
        self.correct_d0 + self.correct_history + self.correct_lock + self.correct_recovery
    }

    /// Every counter, in declaration order: the one list that merging and
    /// spool records walk.
    pub fn counters_mut(&mut self) -> [&mut u64; 11] {
        [
            &mut self.predictions,
            &mut self.correct_d0,
            &mut self.correct_history,
            &mut self.correct_lock,
            &mut self.correct_recovery,
            &mut self.incorrect,
            &mut self.no_prediction,
            &mut self.recoveries,
            &mut self.predicted_target_sum,
            &mut self.signatures_stored,
            &mut self.noisy_instances,
        ]
    }

    /// The values of [`Self::counters_mut`].
    pub fn counters(&self) -> [u64; 11] {
        let mut copy = *self;
        copy.counters_mut().map(|c| *c)
    }

    /// Merges another core's stats into this one.
    pub fn merge(&mut self, o: &SpStats) {
        for (mine, theirs) in self.counters_mut().into_iter().zip(o.counters()) {
            *mine += theirs;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Active {
    /// No prediction until warm-up completes, then extract from counters.
    WarmingUp,
    /// Predict with this set.
    Set(CoreSet, PredSource),
}

/// The per-core SP-predictor (§4): tracks sync-epochs, builds communication
/// signatures, and predicts miss targets from SP-table history.
///
/// # Examples
///
/// ```
/// use spcp_core::{AccessKind, MissInfo, PredictionOutcome, SpConfig, SpPredictor,
///                 TargetPredictor};
/// use spcp_mem::BlockAddr;
/// use spcp_sim::{CoreId, CoreSet};
/// use spcp_sync::{StaticSyncId, SyncPoint};
///
/// let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
/// let barrier = SyncPoint::barrier(StaticSyncId::new(1));
/// let miss = MissInfo::new(BlockAddr::from_index(0), 0, AccessKind::Read);
///
/// // Instance 0 of the epoch: communicate with core 5 a lot.
/// p.on_sync_point(barrier, None);
/// for _ in 0..20 {
///     p.train(&miss, PredictionOutcome {
///         actual: CoreSet::single(CoreId::new(5)),
///         predicted: CoreSet::empty(),
///         sufficient: false,
///     });
/// }
/// // Instance 1: history now predicts core 5.
/// p.on_sync_point(barrier, None);
/// assert!(p.predict(&miss).contains(CoreId::new(5)));
/// ```
#[derive(Debug)]
pub struct SpPredictor {
    me: CoreId,
    num_cores: usize,
    cfg: SpConfig,
    table: SpTable,
    locks: SharedLockTable,
    counters: CommCounters,
    epoch_misses: u64,
    current: Option<EpochId>,
    active: Active,
    confidence: SatCounter,
    preceding_sig: CoreSet,
    stats: SpStats,
}

impl SpPredictor {
    /// Creates a predictor for core `me` of a `num_cores` machine with a
    /// private lock table. Use [`with_lock_table`](SpPredictor::with_lock_table)
    /// to share lock entries machine-wide as the paper prescribes.
    pub fn new(me: CoreId, num_cores: usize, cfg: SpConfig) -> Self {
        let depth = cfg.history_depth;
        Self::with_lock_table(me, num_cores, cfg, shared_lock_table(depth))
    }

    /// Creates a predictor wired to a shared lock table.
    pub fn with_lock_table(
        me: CoreId,
        num_cores: usize,
        cfg: SpConfig,
        locks: SharedLockTable,
    ) -> Self {
        let confidence = SatCounter::full(cfg.confidence_bits);
        let table = match cfg.table_sets_ways {
            Some((sets, ways)) => SpTable::set_associative(cfg.history_depth, sets, ways),
            None => SpTable::new(cfg.history_depth, cfg.table_capacity),
        };
        SpPredictor {
            me,
            num_cores,
            table,
            locks,
            counters: CommCounters::new(num_cores),
            epoch_misses: 0,
            current: None,
            active: Active::WarmingUp,
            confidence,
            preceding_sig: CoreSet::empty(),
            cfg,
            stats: SpStats::default(),
        }
    }

    /// This core's accumulated statistics.
    pub fn stats(&self) -> &SpStats {
        &self.stats
    }

    /// The live communication counters (exposed for characterization
    /// harnesses).
    pub fn counters(&self) -> &CommCounters {
        &self.counters
    }

    /// The configuration in use.
    pub fn config(&self) -> &SpConfig {
        &self.cfg
    }

    /// Pre-seeds the SP-table with a profiled signature for `id` — the
    /// off-line profiling warm-start suggested in §5.2 to bridge part of
    /// the gap to ideal accuracy.
    pub fn preload(&mut self, id: EpochId, signature: CoreSet) {
        let mut sig = signature;
        sig.remove(self.me);
        self.table.store(id, sig);
    }

    /// The currently active prediction set, if any (diagnostics).
    pub fn active_set(&self) -> Option<CoreSet> {
        match self.active {
            Active::Set(s, _) => Some(s),
            Active::WarmingUp => None,
        }
    }

    fn extract_hot_set(&self) -> CoreSet {
        let mut hot = self
            .counters
            .hot_set(self.cfg.hot_threshold, self.cfg.max_hot_set);
        hot.remove(self.me);
        hot
    }

    /// Ends the current epoch: extract + store its signature (Table 2).
    fn finish_epoch(&mut self) {
        let Some(id) = self.current else { return };
        if id.kind == SyncKind::Lock {
            // Critical-section history lives in the shared lock table and
            // is recorded at release time (see `on_sync_point` for Unlock).
            return;
        }
        if self.counters.total() >= self.cfg.noise_threshold {
            let sig = self.extract_hot_set();
            self.table.store(id, sig);
            self.preceding_sig = sig;
            self.stats.signatures_stored += 1;
        } else {
            self.stats.noisy_instances += 1;
        }
    }

    /// Forms the predictor for a newly begun epoch (Table 3).
    fn form_predictor(&mut self, point: SyncPoint, prev_lock_holder: Option<CoreId>) {
        if point.kind == SyncKind::Lock {
            let lock = point.lock.expect("lock sync-point carries its lock id");
            let mut set = self.locks.borrow().recent_holders(lock);
            if let Some(h) = prev_lock_holder {
                set.insert(h);
            }
            if self.cfg.lock_union_preceding {
                set = set.union(self.preceding_sig);
            }
            set.remove(self.me);
            self.active = if set.is_empty() {
                Active::WarmingUp
            } else {
                Active::Set(set, PredSource::Lock)
            };
            return;
        }

        let id = EpochId {
            kind: point.kind,
            static_id: point.static_id,
        };
        let stride2 = self.cfg.stride2_detection;
        let formed = self.table.history(id).and_then(|h| {
            if h.is_empty() {
                None
            } else if h.len() >= 2 {
                let newer = h.newest().expect("len >= 2");
                let older = h.previous().expect("len >= 2");
                let set = if stride2 && h.stride2_detected() {
                    // Alternating pattern: the next instance repeats the
                    // older of the two stored signatures.
                    older
                } else if newer == older {
                    newer
                } else {
                    let stable = newer.intersect(older);
                    if stable.is_empty() {
                        newer
                    } else {
                        stable
                    }
                };
                Some(set)
            } else {
                h.newest()
            }
        });
        self.active = match formed {
            Some(mut set) => {
                set.remove(self.me);
                if set.is_empty() {
                    Active::WarmingUp
                } else {
                    Active::Set(set, PredSource::History)
                }
            }
            None => Active::WarmingUp,
        };
    }
}

impl TargetPredictor for SpPredictor {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn predict(&mut self, _miss: &MissInfo) -> CoreSet {
        self.epoch_misses += 1;
        if let Active::WarmingUp = self.active {
            if self.epoch_misses >= self.cfg.warmup_misses && self.counters.total() > 0 {
                let hot = self.extract_hot_set();
                if !hot.is_empty() {
                    self.active = Active::Set(hot, PredSource::D0);
                    self.confidence.refill();
                }
            }
        }
        match self.active {
            Active::Set(s, _) => s,
            Active::WarmingUp => CoreSet::empty(),
        }
    }

    fn train(&mut self, _miss: &MissInfo, outcome: PredictionOutcome) {
        // Table 2: count data responses and invalidation acks.
        self.counters.record_set(outcome.actual);

        if outcome.predicted.is_empty() {
            self.stats.no_prediction += 1;
            return;
        }
        self.stats.predictions += 1;
        self.stats.predicted_target_sum += outcome.predicted.len() as u64;

        let source = match self.active {
            Active::Set(_, src) => src,
            Active::WarmingUp => PredSource::D0,
        };
        if outcome.sufficient {
            // The Figure 7 breakdown is over *communicating* misses;
            // trivially-sufficient predictions on memory-serviced misses
            // carry no information.
            if !outcome.actual.is_empty() {
                match source {
                    PredSource::D0 => self.stats.correct_d0 += 1,
                    PredSource::History => self.stats.correct_history += 1,
                    PredSource::Lock => self.stats.correct_lock += 1,
                    PredSource::Recovery => self.stats.correct_recovery += 1,
                }
            }
            self.confidence.inc();
        } else {
            self.stats.incorrect += 1;
            self.confidence.dec();
            if self.confidence.is_zero() {
                // §4.4 recovery: rebuild from the live counters.
                self.stats.recoveries += 1;
                let hot = self.extract_hot_set();
                self.active = if hot.is_empty() {
                    Active::WarmingUp
                } else {
                    Active::Set(hot, PredSource::Recovery)
                };
                self.confidence.refill();
            }
        }
    }

    fn on_sync_point(&mut self, point: SyncPoint, prev_lock_holder: Option<CoreId>) {
        // 1. Close the ending epoch and store its signature.
        self.finish_epoch();

        // 2. A release records this core as the lock's last holder (§4.2).
        if point.kind == SyncKind::Unlock {
            if let Some(lock) = point.lock {
                self.locks.borrow_mut().record_release(lock, self.me);
            }
        }

        // 3. Begin the new epoch: reset counters, form the predictor.
        self.counters.reset();
        self.epoch_misses = 0;
        self.confidence.refill();
        self.current = Some(EpochId {
            kind: point.kind,
            static_id: point.static_id,
        });
        self.form_predictor(point, prev_lock_holder);
    }

    fn storage_bits(&self) -> u64 {
        // Per-core slice + this core's share of the machine-wide lock
        // entries + fixed cost: communication counters (1 byte per core)
        // and the predictor register (§5.4: 17 bytes fixed for 16 cores),
        // plus the 4-bit confidence counter.
        let lock_share = self.locks.borrow().storage_bits(self.num_cores) / self.num_cores as u64;
        self.table.storage_bits(self.num_cores)
            + lock_share
            + (self.num_cores as u64 * 8)
            + self.num_cores as u64
            + self.cfg.confidence_bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miss::AccessKind;
    use spcp_mem::BlockAddr;
    use spcp_sync::{LockId, StaticSyncId};

    fn miss() -> MissInfo {
        MissInfo::new(BlockAddr::from_index(0), 0x100, AccessKind::Read)
    }

    fn barrier(id: u32) -> SyncPoint {
        SyncPoint::barrier(StaticSyncId::new(id))
    }

    fn outcome(actual_bits: u64, predicted: CoreSet) -> PredictionOutcome {
        let actual = CoreSet::from_bits(actual_bits);
        PredictionOutcome {
            actual,
            predicted,
            sufficient: !predicted.is_empty() && predicted.is_superset(actual),
        }
    }

    /// Runs one epoch instance in which every miss communicates with
    /// `targets`, returning the predictions made.
    fn run_epoch(p: &mut SpPredictor, point: SyncPoint, targets: u64, misses: u64) -> Vec<CoreSet> {
        p.on_sync_point(point, None);
        let mut preds = Vec::new();
        for _ in 0..misses {
            let pred = p.predict(&miss());
            preds.push(pred);
            p.train(&miss(), outcome(targets, pred));
        }
        preds
    }

    #[test]
    fn no_prediction_before_history_or_warmup() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        p.on_sync_point(barrier(1), None);
        assert!(p.predict(&miss()).is_empty());
        assert!(p.active_set().is_none());
    }

    #[test]
    fn d0_warmup_extracts_within_epoch_hot_set() {
        let cfg = SpConfig {
            warmup_misses: 5,
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        let preds = run_epoch(&mut p, barrier(1), 0b10_0000, 10);
        assert!(preds[..4].iter().all(|s| s.is_empty()));
        // After 5 misses the warm-up predictor kicks in (targets = core 5).
        assert!(preds[5].contains(CoreId::new(5)));
        assert!(p.stats().correct_d0 > 0);
    }

    #[test]
    fn second_instance_predicts_from_history() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        run_epoch(&mut p, barrier(1), 0b100, 20); // instance 0: core 2
        let preds = run_epoch(&mut p, barrier(1), 0b100, 10);
        // From the very first miss of instance 1 the prediction is ready.
        assert_eq!(preds[0], CoreSet::from_bits(0b100));
        assert!(p.stats().correct_history >= 10);
    }

    #[test]
    fn stable_pattern_predicts_intersection() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        // Two instances with overlapping hot sets {1,2} then {2,3}:
        run_epoch(&mut p, barrier(1), 0b0110, 20);
        run_epoch(&mut p, barrier(1), 0b1100, 20);
        p.on_sync_point(barrier(1), None);
        // Stable destination is core 2 (bit 2).
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(0b0100));
    }

    #[test]
    fn stride2_pattern_predicts_alternation() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        let a = 0b0010u64; // core 1
        let b = 0b1000u64; // core 3
                           // Alternating hot sets a, b, a — disjoint, so intersection would fail.
        run_epoch(&mut p, barrier(1), a, 20);
        run_epoch(&mut p, barrier(1), b, 20);
        run_epoch(&mut p, barrier(1), a, 20);
        p.on_sync_point(barrier(1), None);
        // Next in the alternation is b.
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(b));
    }

    #[test]
    fn stride2_disabled_falls_back_to_newest() {
        let cfg = SpConfig {
            stride2_detection: false,
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        let a = 0b0010u64;
        let b = 0b1000u64;
        run_epoch(&mut p, barrier(1), a, 20);
        run_epoch(&mut p, barrier(1), b, 20);
        run_epoch(&mut p, barrier(1), a, 20);
        p.on_sync_point(barrier(1), None);
        // Disjoint intersection -> newest signature (a).
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(a));
    }

    #[test]
    fn noisy_instances_store_no_signature() {
        let cfg = SpConfig {
            noise_threshold: 8,
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        run_epoch(&mut p, barrier(1), 0b10, 3); // below noise threshold
                                                // The instance ends at the next sync-point, where it is classified.
        p.on_sync_point(barrier(1), None);
        assert_eq!(p.stats().noisy_instances, 1);
        assert_eq!(p.stats().signatures_stored, 0);
        // The new instance therefore still has no history.
        assert!(p.predict(&miss()).is_empty());
    }

    #[test]
    fn confidence_recovery_replaces_stale_predictor() {
        let cfg = SpConfig {
            confidence_bits: 2, // drains after 3 misses
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        run_epoch(&mut p, barrier(1), 0b10, 20); // history: core 1
                                                 // Instance 1 actually communicates with core 7 instead.
        p.on_sync_point(barrier(1), None);
        let mut recovered = false;
        for _ in 0..20 {
            let pred = p.predict(&miss());
            p.train(&miss(), outcome(0b1000_0000, pred));
            if pred.contains(CoreId::new(7)) {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "recovery must adapt to the new hot set");
        assert!(p.stats().recoveries >= 1);
        assert!(p.stats().correct_recovery > 0);
    }

    #[test]
    fn lock_epoch_predicts_recent_holders() {
        let locks = shared_lock_table(2);
        let mut p0 = SpPredictor::with_lock_table(
            CoreId::new(0),
            16,
            SpConfig::default(),
            std::rc::Rc::clone(&locks),
        );
        let mut p1 = SpPredictor::with_lock_table(
            CoreId::new(1),
            16,
            SpConfig::default(),
            std::rc::Rc::clone(&locks),
        );
        let lock = LockId::new(7);
        // Core 1 holds and releases the lock.
        p1.on_sync_point(SyncPoint::lock(lock), None);
        p1.on_sync_point(SyncPoint::unlock(lock), None);
        // Core 0 then acquires: prediction = last holder (core 1).
        p0.on_sync_point(SyncPoint::lock(lock), None);
        assert_eq!(p0.predict(&miss()), CoreSet::single(CoreId::new(1)));
    }

    #[test]
    fn lock_prediction_never_includes_self() {
        let locks = shared_lock_table(2);
        let mut p0 = SpPredictor::with_lock_table(
            CoreId::new(0),
            16,
            SpConfig::default(),
            std::rc::Rc::clone(&locks),
        );
        let lock = LockId::new(3);
        // Core 0 itself was the last holder.
        p0.on_sync_point(SyncPoint::lock(lock), None);
        p0.on_sync_point(SyncPoint::unlock(lock), None);
        p0.on_sync_point(SyncPoint::lock(lock), None);
        assert!(p0.predict(&miss()).is_empty());
    }

    #[test]
    fn prev_lock_holder_hint_is_used() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        p.on_sync_point(SyncPoint::lock(LockId::new(1)), Some(CoreId::new(9)));
        assert!(p.predict(&miss()).contains(CoreId::new(9)));
    }

    #[test]
    fn self_is_never_predicted() {
        let mut p = SpPredictor::new(CoreId::new(4), 16, SpConfig::default());
        // Communicate only with "self" (degenerate input).
        p.on_sync_point(barrier(1), None);
        for _ in 0..40 {
            let pred = p.predict(&miss());
            p.train(&miss(), outcome(0b1_0000, pred)); // bit 4 = self
        }
        p.on_sync_point(barrier(1), None);
        assert!(!p.predict(&miss()).contains(CoreId::new(4)));
    }

    #[test]
    fn stats_track_prediction_counts() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        run_epoch(&mut p, barrier(1), 0b10, 20);
        run_epoch(&mut p, barrier(1), 0b10, 10);
        let s = p.stats();
        assert!(s.predictions > 0);
        assert!(s.correct() > 0);
        assert_eq!(
            s.correct(),
            s.correct_d0 + s.correct_history + s.correct_lock + s.correct_recovery
        );
        assert!(s.no_prediction > 0); // the pre-warm-up misses of instance 0
        assert!(s.predicted_target_sum >= s.predictions);
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = SpStats {
            predictions: 1,
            correct_history: 1,
            ..SpStats::default()
        };
        let b = SpStats {
            predictions: 2,
            incorrect: 2,
            ..SpStats::default()
        };
        a.merge(&b);
        assert_eq!(a.predictions, 3);
        assert_eq!(a.incorrect, 2);
        assert_eq!(a.correct(), 1);
    }

    #[test]
    fn storage_is_small_and_grows_with_entries() {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        let empty_bits = p.storage_bits();
        run_epoch(&mut p, barrier(1), 0b10, 20);
        run_epoch(&mut p, barrier(2), 0b10, 20);
        run_epoch(&mut p, barrier(3), 0b10, 20);
        assert!(p.storage_bits() > empty_bits);
        // Paper §4.6: ~2 KB aggregate is adequate; one core's slice with a
        // handful of entries must be far below that.
        assert!(p.storage_bits() < 2 * 8 * 1024);
    }

    #[test]
    fn stable_switch_adapts_after_one_wrong_instance() {
        // Hot set switches from core 1 to core 7 at instance 2 and stays:
        // d = 2 intersection should track the new stable set by instance 4.
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        run_epoch(&mut p, barrier(1), 0b0010, 20);
        run_epoch(&mut p, barrier(1), 0b0010, 20);
        run_epoch(&mut p, barrier(1), 0b1000_0000, 20); // the switch
        run_epoch(&mut p, barrier(1), 0b1000_0000, 20);
        p.on_sync_point(barrier(1), None);
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(0b1000_0000));
    }

    #[test]
    fn max_hot_set_caps_predictions() {
        let cfg = SpConfig {
            max_hot_set: Some(1),
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        // Four equally hot targets; the cap keeps only the hottest one.
        run_epoch(&mut p, barrier(1), 0b1_1110, 40);
        p.on_sync_point(barrier(1), None);
        assert_eq!(p.predict(&miss()).len(), 1);
    }

    #[test]
    fn warmup_boundary_is_exact() {
        let cfg = SpConfig {
            warmup_misses: 3,
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        p.on_sync_point(barrier(1), None);
        for i in 0..2 {
            let pred = p.predict(&miss());
            assert!(pred.is_empty(), "miss {i} is still warm-up");
            p.train(&miss(), outcome(0b10, pred));
        }
        // The 3rd miss reaches the warm-up count with activity recorded,
        // so extraction happens exactly there.
        assert!(!p.predict(&miss()).is_empty());
    }

    #[test]
    fn preload_seeds_first_instance_prediction() {
        use spcp_sync::{EpochId, SyncKind};
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        p.preload(
            EpochId {
                kind: SyncKind::Barrier,
                static_id: StaticSyncId::new(5),
            },
            CoreSet::from_bits(0b100),
        );
        p.on_sync_point(barrier(5), None);
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(0b100));
    }

    #[test]
    fn preload_strips_self() {
        use spcp_sync::{EpochId, SyncKind};
        let mut p = SpPredictor::new(CoreId::new(2), 16, SpConfig::default());
        p.preload(
            EpochId {
                kind: SyncKind::Barrier,
                static_id: StaticSyncId::new(5),
            },
            CoreSet::from_bits(0b0110), // includes self (bit 2)
        );
        p.on_sync_point(barrier(5), None);
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(0b0010));
    }

    #[test]
    fn depth_one_config_uses_last_signature_only() {
        let cfg = SpConfig {
            history_depth: 1,
            stride2_detection: false,
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        let a = 0b0010u64;
        let b = 0b1000u64;
        run_epoch(&mut p, barrier(1), a, 20);
        run_epoch(&mut p, barrier(1), b, 20);
        p.on_sync_point(barrier(1), None);
        // With d = 1 only the most recent signature survives.
        assert_eq!(p.predict(&miss()), CoreSet::from_bits(b));
    }

    #[test]
    fn table_capacity_limits_entries() {
        let cfg = SpConfig {
            table_capacity: Some(2),
            warmup_misses: 1000, // isolate history-based prediction
            ..SpConfig::default()
        };
        let mut p = SpPredictor::new(CoreId::new(0), 16, cfg);
        for sid in 1..=3u32 {
            run_epoch(&mut p, barrier(sid), 0b10, 20);
        }
        // Epoch 1 was evicted by epochs 2 and 3 -> no history prediction.
        p.on_sync_point(barrier(1), None);
        assert!(p.predict(&miss()).is_empty());
        // Epoch 3 is resident.
        p.on_sync_point(barrier(3), None);
        assert!(!p.predict(&miss()).is_empty());
    }
}
