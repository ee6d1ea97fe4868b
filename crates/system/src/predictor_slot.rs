//! The per-tile predictor socket.

use crate::config::PredictorKind;
use crate::oracle::OracleBook;
use spcp_baselines::{AddrPredictor, InstPredictor, UniPredictor};
use spcp_core::{
    MissInfo, PredictionOutcome, SharedLockTable, SpPredictor, SpStats, TargetPredictor,
};
use spcp_sim::{CoreId, CoreSet};
use spcp_sync::{EpochId, EpochTracker, SyncPoint};

/// A concrete predictor plugged into one tile's L2 controller.
///
/// An enum (rather than a trait object) so the machine can reach
/// scheme-specific state — notably [`SpStats`] for the Figure 7 breakdown
/// and the per-instance bookkeeping of the oracle.
// One slot exists per core for the lifetime of a run; the size spread
// between variants is irrelevant at that population.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PredictorSlot {
    /// No prediction: baseline directory behaviour.
    None,
    /// SP-prediction (the paper's scheme).
    Sp(SpPredictor),
    /// Address-based group predictor.
    Addr(AddrPredictor),
    /// Instruction-based group predictor.
    Inst(InstPredictor),
    /// Single-entry locality predictor.
    Uni(UniPredictor),
    /// A priori hot sets from a recording run.
    Oracle {
        /// The recorded book (shared clone per tile).
        book: OracleBook,
        /// This tile's core.
        me: CoreId,
        /// Epoch tracking to know the current instance.
        tracker: EpochTracker,
        /// Currently active hot set.
        active: CoreSet,
    },
}

impl PredictorSlot {
    /// Instantiates the predictor `kind` for core `me` under the given
    /// destination-set policy (applies to the comparison predictors; SP and
    /// the oracle are unaffected).
    pub fn build_with_policy(
        kind: &PredictorKind,
        me: CoreId,
        num_cores: usize,
        locks: &SharedLockTable,
        policy: spcp_baselines::SetPolicy,
    ) -> Self {
        match kind {
            PredictorKind::Sp(cfg) => PredictorSlot::Sp(SpPredictor::with_lock_table(
                me,
                num_cores,
                cfg.clone(),
                std::rc::Rc::clone(locks),
            )),
            PredictorKind::Addr {
                entries,
                macroblock_bytes,
            } => PredictorSlot::Addr(
                AddrPredictor::with_capacity(me, num_cores, *entries, *macroblock_bytes)
                    .set_policy(policy),
            ),
            PredictorKind::Inst { entries } => PredictorSlot::Inst(
                InstPredictor::with_capacity(me, num_cores, *entries).set_policy(policy),
            ),
            PredictorKind::Uni => {
                PredictorSlot::Uni(UniPredictor::new(me, num_cores).set_policy(policy))
            }
            PredictorKind::Oracle(book) => PredictorSlot::Oracle {
                book: book.clone(),
                me,
                tracker: EpochTracker::new(),
                active: CoreSet::empty(),
            },
        }
    }

    /// Predicts targets for a miss.
    pub fn predict(&mut self, miss: &MissInfo) -> CoreSet {
        match self {
            PredictorSlot::None => CoreSet::empty(),
            PredictorSlot::Sp(p) => p.predict(miss),
            PredictorSlot::Addr(p) => p.predict(miss),
            PredictorSlot::Inst(p) => p.predict(miss),
            PredictorSlot::Uni(p) => p.predict(miss),
            PredictorSlot::Oracle { active, me, .. } => {
                let mut s = *active;
                s.remove(*me);
                s
            }
        }
    }

    /// Trains on a completed miss.
    pub fn train(&mut self, miss: &MissInfo, outcome: PredictionOutcome) {
        match self {
            PredictorSlot::None | PredictorSlot::Oracle { .. } => {}
            PredictorSlot::Sp(p) => p.train(miss, outcome),
            PredictorSlot::Addr(p) => p.train(miss, outcome),
            PredictorSlot::Inst(p) => p.train(miss, outcome),
            PredictorSlot::Uni(p) => p.train(miss, outcome),
        }
    }

    /// Sync-point notification.
    pub fn on_sync_point(&mut self, point: SyncPoint, prev_lock_holder: Option<CoreId>) {
        match self {
            PredictorSlot::None => {}
            PredictorSlot::Sp(p) => p.on_sync_point(point, prev_lock_holder),
            PredictorSlot::Addr(p) => p.on_sync_point(point, prev_lock_holder),
            PredictorSlot::Inst(p) => p.on_sync_point(point, prev_lock_holder),
            PredictorSlot::Uni(p) => p.on_sync_point(point, prev_lock_holder),
            PredictorSlot::Oracle {
                book,
                me,
                tracker,
                active,
            } => {
                let tr = tracker.observe(point);
                let id: EpochId = tr.started.id;
                *active = book
                    .hot_set(*me, id, tr.started.instance)
                    .unwrap_or(CoreSet::empty());
            }
        }
    }

    /// Remote-request observation (ADDR/INST training stream).
    pub fn observe_remote_request(&mut self, miss: &MissInfo, requester: CoreId) {
        match self {
            PredictorSlot::Addr(p) => p.observe_remote_request(miss, requester),
            PredictorSlot::Inst(p) => p.observe_remote_request(miss, requester),
            _ => {}
        }
    }

    /// Current storage occupancy in bits.
    pub fn storage_bits(&self) -> u64 {
        match self {
            PredictorSlot::None | PredictorSlot::Oracle { .. } => 0,
            PredictorSlot::Sp(p) => p.storage_bits(),
            PredictorSlot::Addr(p) => p.storage_bits(),
            PredictorSlot::Inst(p) => p.storage_bits(),
            PredictorSlot::Uni(p) => p.storage_bits(),
        }
    }

    /// SP statistics, when this slot is an SP-predictor.
    pub fn sp_stats(&self) -> Option<SpStats> {
        match self {
            PredictorSlot::Sp(p) => Some(*p.stats()),
            _ => None,
        }
    }

    /// Pre-seeds an SP-table entry (no-op for other schemes).
    pub fn preload(&mut self, id: EpochId, signature: CoreSet) {
        if let PredictorSlot::Sp(p) = self {
            p.preload(id, signature);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_baselines::SetPolicy;
    use spcp_core::{shared_lock_table, AccessKind, SpConfig};
    use spcp_mem::BlockAddr;
    use spcp_sync::StaticSyncId;

    fn miss() -> MissInfo {
        MissInfo::new(BlockAddr::from_index(1), 0x4, AccessKind::Read)
    }

    #[test]
    fn none_slot_never_predicts() {
        let mut s = PredictorSlot::None;
        assert!(s.predict(&miss()).is_empty());
        assert_eq!(s.storage_bits(), 0);
        assert!(s.sp_stats().is_none());
    }

    #[test]
    fn build_dispatches_kinds() {
        let locks = shared_lock_table(2);
        let me = CoreId::new(0);
        let kinds = [
            PredictorKind::Sp(SpConfig::default()),
            PredictorKind::Addr {
                entries: None,
                macroblock_bytes: 256,
            },
            PredictorKind::Inst { entries: Some(8) },
            PredictorKind::Uni,
        ];
        for k in kinds {
            let slot = PredictorSlot::build_with_policy(&k, me, 16, &locks, SetPolicy::Group);
            assert!(!matches!(slot, PredictorSlot::None), "{}", k.name());
        }
    }

    #[test]
    fn oracle_replays_recorded_hot_sets() {
        use crate::metrics::EpochRecord;
        use spcp_sync::SyncKind;
        let mut volumes = vec![0u32; 16];
        volumes[9] = 50;
        let records = vec![vec![EpochRecord {
            id: EpochId {
                kind: SyncKind::Barrier,
                static_id: StaticSyncId::new(1),
            },
            instance: 0,
            volumes,
        }]];
        let book = OracleBook::from_records(&records, 0.1);
        let locks = shared_lock_table(2);
        let mut slot = PredictorSlot::build_with_policy(
            &PredictorKind::Oracle(book),
            CoreId::new(0),
            16,
            &locks,
            SetPolicy::Group,
        );
        slot.on_sync_point(SyncPoint::barrier(StaticSyncId::new(1)), None);
        assert_eq!(slot.predict(&miss()), CoreSet::single(CoreId::new(9)));
        // Second instance was never recorded -> empty prediction.
        slot.on_sync_point(SyncPoint::barrier(StaticSyncId::new(1)), None);
        assert!(slot.predict(&miss()).is_empty());
    }

    #[test]
    fn sp_slot_exposes_stats() {
        let locks = shared_lock_table(2);
        let slot = PredictorSlot::build_with_policy(
            &PredictorKind::sp_default(),
            CoreId::new(0),
            16,
            &locks,
            SetPolicy::Group,
        );
        assert!(slot.sp_stats().is_some());
    }
}
