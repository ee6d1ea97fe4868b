//! The synchronization runtime: global barriers and queued locks.

use spcp_sim::{CoreId, Cycle, FlatMap};
use spcp_sync::LockId;
use std::collections::VecDeque;

/// A rendezvous barrier over `n` cores.
///
/// All threads of a generated workload execute the same barrier sequence,
/// so one shared arrival counter per "current" barrier suffices: a core
/// arrives, and once all `n` have arrived everybody is released at the
/// latest arrival time plus a fixed release cost.
#[derive(Debug)]
pub struct BarrierState {
    arrived: Vec<Option<Cycle>>,
    release_cost: u64,
}

impl BarrierState {
    /// Creates the barrier runtime for `n` cores.
    pub fn new(n: usize, release_cost: u64) -> Self {
        BarrierState {
            arrived: vec![None; n],
            release_cost,
        }
    }

    /// Records `core` arriving at the current barrier at `time`.
    ///
    /// Returns `Some(release_time)` when this arrival completes the
    /// rendezvous (the caller then wakes every participant and the barrier
    /// resets); `None` while others are still running.
    ///
    /// # Panics
    ///
    /// Panics if the core arrives twice at the same barrier generation.
    pub fn arrive(&mut self, core: CoreId, time: Cycle) -> Option<Cycle> {
        assert!(
            self.arrived[core.index()].is_none(),
            "{core} arrived twice at one barrier generation"
        );
        self.arrived[core.index()] = Some(time);
        if self.arrived.iter().all(|a| a.is_some()) {
            let latest = self
                .arrived
                .iter()
                .map(|a| a.expect("all arrived"))
                .max()
                .expect("n > 0");
            // Reset in place: barrier generations must not allocate.
            self.arrived.fill(None);
            Some(latest + self.release_cost)
        } else {
            None
        }
    }

    /// Number of cores currently waiting.
    pub fn waiting(&self) -> usize {
        self.arrived.iter().filter(|a| a.is_some()).count()
    }
}

/// One lock's runtime state; the default is a lock never touched.
#[derive(Debug, Default)]
struct LockSlot {
    /// Current holder, if held.
    holder: Option<CoreId>,
    /// Pending acquirers in arrival order.
    queue: VecDeque<(CoreId, Cycle)>,
    /// Most recent releaser.
    last_holder: Option<CoreId>,
    /// Time at which the lock was last released.
    free_at: Cycle,
}

/// The machine's lock runtime: FIFO-queued mutexes with holder tracking.
///
/// Lock state lives in one flat table keyed by the raw [`LockId`] (text
/// specs choose their lock ids, so an id can be any `u32`), which each
/// lock and unlock touches once.
#[derive(Debug, Default)]
pub struct LockRuntime {
    locks: FlatMap<LockSlot>,
    transfer_cost: u64,
}

/// The outcome of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock was granted at the given time.
    Granted {
        /// When the core owns the lock.
        at: Cycle,
        /// Who held the lock before (None for first acquisition).
        prev_holder: Option<CoreId>,
    },
    /// The lock is held; the core is queued and will be woken on release.
    Queued,
}

impl LockRuntime {
    /// Creates the runtime with the machine's lock-transfer cost.
    pub fn new(transfer_cost: u64) -> Self {
        LockRuntime {
            transfer_cost,
            ..LockRuntime::default()
        }
    }

    fn slot(&self, lock: LockId) -> Option<&LockSlot> {
        self.locks.get(u64::from(lock.raw()))
    }

    /// `core` attempts to acquire `lock` at `time`.
    pub fn acquire(&mut self, lock: LockId, core: CoreId, time: Cycle) -> Acquire {
        let slot = self
            .locks
            .get_or_insert_with(u64::from(lock.raw()), LockSlot::default);
        if slot.holder.is_some() {
            slot.queue.push_back((core, time));
            return Acquire::Queued;
        }
        slot.holder = Some(core);
        let prev = slot.last_holder;
        let cost = if prev.is_some() {
            self.transfer_cost
        } else {
            0
        };
        Acquire::Granted {
            at: time.max(slot.free_at) + cost,
            prev_holder: prev,
        }
    }

    /// `core` releases `lock` at `time`.
    ///
    /// Returns the next grant `(core, grant_time, prev_holder)` when a
    /// waiter was queued; the caller wakes that core.
    ///
    /// # Panics
    ///
    /// Panics if `core` does not hold `lock`.
    pub fn release(
        &mut self,
        lock: LockId,
        core: CoreId,
        time: Cycle,
    ) -> Option<(CoreId, Cycle, CoreId)> {
        let held_by = self
            .locks
            .get_mut(u64::from(lock.raw()))
            .filter(|slot| slot.holder == Some(core));
        let Some(slot) = held_by else {
            panic!("release by non-holder: {core} does not hold {lock}");
        };
        slot.last_holder = Some(core);
        slot.free_at = time;
        slot.holder = None;
        let (next, arrived) = slot.queue.pop_front()?;
        slot.holder = Some(next);
        let grant = time.max(arrived) + self.transfer_cost;
        Some((next, grant, core))
    }

    /// The previous holder of `lock`, if any.
    pub fn last_holder(&self, lock: LockId) -> Option<CoreId> {
        self.slot(lock).and_then(|s| s.last_holder)
    }

    /// Whether `lock` is currently held.
    pub fn is_held(&self, lock: LockId) -> bool {
        self.slot(lock).is_some_and(|s| s.holder.is_some())
    }

    /// Number of cores waiting on `lock`.
    pub fn waiters(&self, lock: LockId) -> usize {
        self.slot(lock).map_or(0, |s| s.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn barrier_releases_at_latest_arrival() {
        let mut b = BarrierState::new(3, 10);
        assert_eq!(b.arrive(core(0), Cycle::new(5)), None);
        assert_eq!(b.arrive(core(2), Cycle::new(50)), None);
        assert_eq!(b.waiting(), 2);
        let rel = b.arrive(core(1), Cycle::new(20)).unwrap();
        assert_eq!(rel, Cycle::new(60));
        assert_eq!(b.waiting(), 0, "barrier resets for the next generation");
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let mut b = BarrierState::new(2, 0);
        assert!(b.arrive(core(0), Cycle::new(1)).is_none());
        assert!(b.arrive(core(1), Cycle::new(2)).is_some());
        assert!(b.arrive(core(1), Cycle::new(3)).is_none());
        assert!(b.arrive(core(0), Cycle::new(9)).is_some());
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut b = BarrierState::new(2, 0);
        b.arrive(core(0), Cycle::new(1));
        b.arrive(core(0), Cycle::new(2));
    }

    #[test]
    fn first_acquire_is_free_and_untransferred() {
        let mut l = LockRuntime::new(20);
        let lock = LockId::new(1);
        match l.acquire(lock, core(0), Cycle::new(100)) {
            Acquire::Granted { at, prev_holder } => {
                assert_eq!(at, Cycle::new(100), "no transfer cost on first touch");
                assert_eq!(prev_holder, None);
            }
            Acquire::Queued => panic!("free lock must grant"),
        }
        assert!(l.is_held(lock));
    }

    #[test]
    fn contended_lock_queues_and_grants_fifo() {
        let mut l = LockRuntime::new(20);
        let lock = LockId::new(1);
        l.acquire(lock, core(0), Cycle::new(0));
        assert_eq!(l.acquire(lock, core(1), Cycle::new(5)), Acquire::Queued);
        assert_eq!(l.acquire(lock, core(2), Cycle::new(6)), Acquire::Queued);
        assert_eq!(l.waiters(lock), 2);
        let (next, grant, prev) = l.release(lock, core(0), Cycle::new(50)).unwrap();
        assert_eq!(next, core(1));
        assert_eq!(grant, Cycle::new(70)); // release + transfer
        assert_eq!(prev, core(0));
        assert_eq!(l.waiters(lock), 1);
        let (next, _, prev) = l.release(lock, core(1), Cycle::new(90)).unwrap();
        assert_eq!(next, core(2));
        assert_eq!(prev, core(1));
    }

    #[test]
    fn reacquire_after_release_pays_transfer() {
        let mut l = LockRuntime::new(20);
        let lock = LockId::new(2);
        l.acquire(lock, core(0), Cycle::new(0));
        assert!(l.release(lock, core(0), Cycle::new(30)).is_none());
        assert_eq!(l.last_holder(lock), Some(core(0)));
        match l.acquire(lock, core(1), Cycle::new(40)) {
            Acquire::Granted { at, prev_holder } => {
                assert_eq!(at, Cycle::new(60));
                assert_eq!(prev_holder, Some(core(0)));
            }
            Acquire::Queued => panic!("released lock must grant"),
        }
    }

    #[test]
    fn grant_waits_for_release_time() {
        let mut l = LockRuntime::new(10);
        let lock = LockId::new(3);
        l.acquire(lock, core(0), Cycle::new(0));
        l.release(lock, core(0), Cycle::new(100));
        // Acquirer shows up "earlier" than the release became visible.
        match l.acquire(lock, core(1), Cycle::new(50)) {
            Acquire::Granted { at, .. } => assert_eq!(at, Cycle::new(110)),
            Acquire::Queued => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut l = LockRuntime::new(0);
        l.acquire(LockId::new(1), core(0), Cycle::ZERO);
        l.release(LockId::new(1), core(1), Cycle::new(5));
    }
}
