//! The oracle predictor: replays a priori known per-instance hot sets.
//!
//! Figure 7 marks, per benchmark, the accuracy SP-prediction *could* reach
//! "if the hot communication set for each sync-epoch was known a priori".
//! We realize that bound with a two-pass methodology: a recording run
//! captures every epoch instance's communication distribution (see
//! [`crate::EpochRecord`]); the oracle run then predicts each instance with
//! its own eventual hot set.

use crate::metrics::EpochRecord;
use spcp_sim::{CoreId, CoreSet};
use spcp_sync::EpochId;
use std::collections::HashMap;

/// A priori hot sets: `(core, static epoch, instance) → hot set`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleBook {
    hot_sets: HashMap<(usize, EpochId, u64), CoreSet>,
}

impl OracleBook {
    /// Builds the book from a recording run's epoch records, extracting hot
    /// sets at `threshold`.
    pub fn from_records(records: &[Vec<EpochRecord>], threshold: f64) -> Self {
        let mut hot_sets = HashMap::new();
        for (core, recs) in records.iter().enumerate() {
            for r in recs {
                hot_sets.insert((core, r.id, r.instance), r.hot_set(threshold));
            }
        }
        OracleBook { hot_sets }
    }

    /// The a priori hot set for an instance, if recorded.
    pub fn hot_set(&self, core: CoreId, id: EpochId, instance: u64) -> Option<CoreSet> {
        self.hot_sets.get(&(core.index(), id, instance)).copied()
    }

    /// Iterates over every recorded `(core, epoch, instance, hot set)`.
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, EpochId, u64, CoreSet)> + '_ {
        self.hot_sets
            .iter()
            .map(|(&(c, id, i), &s)| (CoreId::new(c), id, i, s))
    }

    /// Number of recorded instances.
    pub fn len(&self) -> usize {
        self.hot_sets.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.hot_sets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_sync::{StaticSyncId, SyncKind};

    fn eid(raw: u32) -> EpochId {
        EpochId {
            kind: SyncKind::Barrier,
            static_id: StaticSyncId::new(raw),
        }
    }

    #[test]
    fn builds_from_records() {
        let mut volumes = vec![0u32; 16];
        volumes[3] = 100;
        let records = vec![vec![EpochRecord {
            id: eid(1),
            instance: 2,
            volumes,
        }]];
        let book = OracleBook::from_records(&records, 0.10);
        assert_eq!(book.len(), 1);
        let hot = book.hot_set(CoreId::new(0), eid(1), 2).unwrap();
        assert_eq!(hot, CoreSet::single(CoreId::new(3)));
        assert!(book.hot_set(CoreId::new(1), eid(1), 2).is_none());
        assert!(book.hot_set(CoreId::new(0), eid(1), 3).is_none());
    }

    #[test]
    fn empty_book() {
        let book = OracleBook::default();
        assert!(book.is_empty());
        assert!(book.hot_set(CoreId::new(0), eid(1), 0).is_none());
    }
}
