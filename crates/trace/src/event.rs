//! Trace record types.

use spcp_core::AccessKind;
use spcp_mem::BlockAddr;
use spcp_sim::{CoreId, CoreSet};
use spcp_sync::SyncKind;
use std::fmt;

/// One trace record: an L2 miss with its communication targets, or a
/// sync-point with its static/dynamic identity — exactly the fields the
/// paper's §3.2 traces carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An L2 miss (including upgrades).
    Miss {
        /// Issuing thread: its logical id, which is its core unless
        /// threads migrate.
        core: CoreId,
        /// Missing block.
        block: BlockAddr,
        /// Program counter of the access.
        pc: u32,
        /// Access type.
        kind: AccessKind,
        /// The minimal sufficient target set (empty = memory-serviced), in
        /// physical cores.
        targets: CoreSet,
    },
    /// A synchronization point.
    Sync {
        /// Executing thread, numbered like [`TraceEvent::Miss`]'s issuer.
        core: CoreId,
        /// Routine kind.
        kind: SyncKind,
        /// Static sync-point ID.
        static_id: u32,
        /// Dynamic occurrence number on this core.
        instance: u64,
    },
}

impl TraceEvent {
    /// The core that produced the event.
    pub fn core(&self) -> CoreId {
        match self {
            TraceEvent::Miss { core, .. } | TraceEvent::Sync { core, .. } => *core,
        }
    }

    /// Whether this is a communicating miss.
    pub fn is_communicating_miss(&self) -> bool {
        matches!(self, TraceEvent::Miss { targets, .. } if !targets.is_empty())
    }

    /// The first core the event names at or above `num_cores`: its issuer,
    /// else (for a miss) the lowest such communication target.
    pub fn core_out_of_range(&self, num_cores: usize) -> Option<CoreId> {
        if self.core().index() >= num_cores {
            return Some(self.core());
        }
        match *self {
            TraceEvent::Miss { targets, .. } if num_cores < CoreSet::MAX_CORES => {
                let outside = targets.bits() >> num_cores << num_cores;
                CoreSet::from_bits(outside).iter().next()
            }
            _ => None,
        }
    }
}

/// The first event of `events` that names a core at or above `num_cores`
/// (see [`TraceEvent::core_out_of_range`]): its index and that core.
///
/// Trace consumers sized to a machine — [`crate::TraceAnalyzer`], the race
/// analysis — index per-core state by these cores; run this check first on
/// traces from outside the simulator.
///
/// # Examples
///
/// ```
/// use spcp_trace::{first_core_out_of_range, TraceEvent};
/// use spcp_sim::CoreId;
/// use spcp_sync::SyncKind;
///
/// let trace = [TraceEvent::Sync {
///     core: CoreId::new(20),
///     kind: SyncKind::Lock,
///     static_id: 1,
///     instance: 0,
/// }];
/// assert_eq!(first_core_out_of_range(&trace, 32), None);
/// assert_eq!(first_core_out_of_range(&trace, 16), Some((0, CoreId::new(20))));
/// ```
pub fn first_core_out_of_range(events: &[TraceEvent], num_cores: usize) -> Option<(usize, CoreId)> {
    events
        .iter()
        .enumerate()
        .find_map(|(i, e)| e.core_out_of_range(num_cores).map(|c| (i, c)))
}

impl fmt::Display for TraceEvent {
    /// Writes the on-disk line format (shared with the codec, so the two
    /// cannot drift apart).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::codec::fmt_event(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_extraction() {
        let m = TraceEvent::Miss {
            core: CoreId::new(3),
            block: BlockAddr::from_index(1),
            pc: 0,
            kind: AccessKind::Read,
            targets: CoreSet::empty(),
        };
        assert_eq!(m.core(), CoreId::new(3));
        assert!(!m.is_communicating_miss());
        let s = TraceEvent::Sync {
            core: CoreId::new(5),
            kind: SyncKind::Barrier,
            static_id: 1,
            instance: 0,
        };
        assert_eq!(s.core(), CoreId::new(5));
        assert!(!s.is_communicating_miss());
    }

    #[test]
    fn communicating_flag() {
        let m = TraceEvent::Miss {
            core: CoreId::new(0),
            block: BlockAddr::from_index(1),
            pc: 0,
            kind: AccessKind::Write,
            targets: CoreSet::from_bits(0b10),
        };
        assert!(m.is_communicating_miss());
    }

    #[test]
    fn out_of_range_names_issuer_then_lowest_target() {
        let m = |core, targets| TraceEvent::Miss {
            core: CoreId::new(core),
            block: BlockAddr::from_index(1),
            pc: 0,
            kind: AccessKind::Read,
            targets: CoreSet::from_bits(targets),
        };
        assert_eq!(m(3, 0b1111).core_out_of_range(4), None);
        assert_eq!(m(5, 0b1111).core_out_of_range(4), Some(CoreId::new(5)));
        assert_eq!(m(1, 0b11_0001).core_out_of_range(4), Some(CoreId::new(4)));
        assert_eq!(m(1, u64::MAX).core_out_of_range(64), None);
        let trace = [m(0, 1), m(2, 1 << 40)];
        assert_eq!(
            first_core_out_of_range(&trace, 16),
            Some((1, CoreId::new(40)))
        );
        assert_eq!(first_core_out_of_range(&trace, 64), None);
    }
}
