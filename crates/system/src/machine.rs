//! The CMP system: tiles, protocol engines, and the time-ordered run loop.
//!
//! Logical *threads* (op streams, predictors, epoch tracking) are separated
//! from physical *tiles* (caches, NoC endpoints): normally thread `t` is
//! pinned to core `t` — the paper binds threads to their first-touch core —
//! but the §5.5 thread-migration scenario rotates the mapping at barrier
//! releases, with optional logical-ID signature tracking.

use crate::config::{MachineConfig, ProtocolKind, RunConfig};
use crate::filter::RegionTracker;
use crate::metrics::{EpochRecord, RunStats};
use crate::predictor_slot::PredictorSlot;
use crate::protocol::{self, DirUpdate};
use crate::runtime::{Acquire, BarrierState, LockRuntime};
use spcp_core::{shared_lock_table, AccessKind, MissInfo, PredictionOutcome};
use spcp_mem::{BlockAddr, Directory, LineState, SetAssocCache};
use spcp_noc::{Fabric, MsgKind};
use spcp_sim::{CoreId, CoreSet, Cycle, ReadyQueue};
use spcp_sync::{EpochInstance, EpochTracker, StaticSyncId, SyncKind, SyncPoint};
use spcp_workloads::{Op, Workload};
use std::cell::Cell;

/// One physical tile: the private cache hierarchy.
#[derive(Debug)]
struct Tile {
    l1: SetAssocCache<()>,
    l2: SetAssocCache<LineState>,
}

/// The parts of a machine that its shape fixes and that dominate its
/// construction cost: every tile's caches (about 4.6 MB of lanes at 16
/// cores), the directory table and the NoC reservation table.
///
/// A run that completes parks its hardware in its thread's spare slot, and
/// the next run on that thread with the same shape (core count, L1 and L2
/// geometry, NoC) resets it instead of allocating and zeroing it again.
/// Everything else is built fresh for every run.
#[derive(Debug)]
struct Hardware {
    tiles: Vec<Tile>,
    dir: Directory,
    fabric: Fabric,
}

thread_local! {
    /// The hardware this thread's last completed run left behind. A run
    /// takes it before simulating, so a run that panics leaves the slot
    /// empty and the next run builds afresh.
    static SPARE: Cell<Option<Hardware>> = const { Cell::new(None) };
}

impl Hardware {
    /// Hardware for `machine`, in its freshly built state: the thread's
    /// spare when its shape matches, otherwise newly built.
    fn for_machine(machine: &MachineConfig) -> Self {
        if let Some(mut hw) = SPARE.take() {
            if hw.fits(machine) {
                hw.reset();
                return hw;
            }
        }
        Hardware {
            tiles: (0..machine.num_cores)
                .map(|_| Tile {
                    l1: SetAssocCache::new(machine.l1),
                    l2: SetAssocCache::new(machine.l2),
                })
                .collect(),
            dir: Directory::new(machine.num_cores),
            fabric: Fabric::new(machine.noc.clone()),
        }
    }

    /// Whether this hardware has the shape `machine` asks for.
    fn fits(&self, machine: &MachineConfig) -> bool {
        self.tiles.len() == machine.num_cores
            && self
                .tiles
                .first()
                .is_some_and(|t| *t.l1.config() == machine.l1 && *t.l2.config() == machine.l2)
            && *self.fabric.config() == machine.noc
    }

    /// Returns the hardware to its freshly built state in time
    /// proportional to what the last run left behind.
    fn reset(&mut self) {
        self.dir.reset();
        for tile in &mut self.tiles {
            tile.l1.reset();
            tile.l2.reset();
        }
        self.fabric.reset();
    }
}

/// One logical thread's prediction and characterization state (moves with
/// the thread across migrations).
#[derive(Debug)]
struct ThreadCtx {
    predictor: PredictorSlot,
    tracker: EpochTracker,
    cur_epoch: Option<EpochInstance>,
    cur_volumes: Vec<u32>,
    records: Vec<EpochRecord>,
}

impl ThreadCtx {
    /// Closes the current epoch instance into `records` and leaves the
    /// live counters zeroed; before the thread's first sync point there is
    /// no instance, and the counters are just scrubbed.
    fn close_epoch(&mut self) {
        let Some(inst) = self.cur_epoch else {
            self.cur_volumes.fill(0);
            return;
        };
        // Only a communicating instance hands its counter buffer over to
        // the record; the (common) silent epoch is stored with the
        // empty-equals-all-zero convention and keeps the live buffer — no
        // allocation.
        let volumes = if self.cur_volumes.iter().any(|&v| v != 0) {
            let zeroed = vec![0; self.cur_volumes.len()];
            std::mem::replace(&mut self.cur_volumes, zeroed)
        } else {
            Vec::new()
        };
        self.records.push(EpochRecord {
            id: inst.id,
            instance: inst.instance,
            volumes,
        });
    }
}

/// What a thread is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    Runnable,
    AtBarrier,
    WaitingLock,
    Done,
}

/// `Copy` dispatch tag for the configured protocol.
///
/// [`ProtocolKind`] itself can be arbitrarily large (an oracle predictor
/// carries its whole signature book), so matching on a clone of it per
/// transaction — the previous code — paid a deep copy on every L2 miss.
/// The variant alone decides the timing path; the predictor payload was
/// already consumed when the per-thread [`PredictorSlot`]s were built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProtoDispatch {
    Directory,
    Broadcast,
    Predicted,
    MulticastSnoop,
}

impl ProtoDispatch {
    fn of(kind: &ProtocolKind) -> Self {
        match kind {
            ProtocolKind::Directory => ProtoDispatch::Directory,
            ProtocolKind::Broadcast => ProtoDispatch::Broadcast,
            ProtocolKind::Predicted(_) => ProtoDispatch::Predicted,
            ProtocolKind::MulticastSnoop(_) => ProtoDispatch::MulticastSnoop,
        }
    }
}

/// Per-transaction arrival-time scratch, indexed by physical core.
///
/// The snoop and predicted paths need "when did the probe reach core X"
/// for up to every core; a fixed array sized to [`CoreSet::MAX_CORES`]
/// replaces the `HashMap` the old code allocated per transaction. Which
/// entries are live is the phase's own probe set — each path reads only
/// cores it has just probed — so nothing is cleared between phases.
/// Transactions never nest, so one instance per system suffices.
#[derive(Debug)]
struct ArrivalScratch([Cycle; CoreSet::MAX_CORES]);

impl ArrivalScratch {
    fn new() -> Self {
        ArrivalScratch([Cycle::ZERO; CoreSet::MAX_CORES])
    }

    #[inline]
    fn set(&mut self, core: CoreId, t: Cycle) {
        self.0[core.index()] = t;
    }

    /// Arrival at `core`, which the current phase must have probed.
    #[inline]
    fn get(&self, core: CoreId) -> Cycle {
        self.0[core.index()]
    }
}

/// The full machine. Construct indirectly through
/// [`CmpSystem::run_workload`].
///
/// Each thread keeps the caches, directory and NoC of its last completed
/// run and reuses them, reset, for its next run of the same machine shape;
/// results are identical to those of a freshly built machine.
#[derive(Debug)]
pub struct CmpSystem {
    cfg: RunConfig,
    /// Cached dispatch tag of `cfg.protocol` (hot-path `match` target).
    proto: ProtoDispatch,
    /// Reusable probe/predicted-request arrival times (one per physical
    /// core); each phase reads only the cores it has just probed.
    arrival: ArrivalScratch,
    fabric: Fabric,
    dir: Directory,
    tiles: Vec<Tile>,
    threads: Vec<ThreadCtx>,
    /// Logical thread -> physical core.
    thread_core: Vec<usize>,
    /// Physical core -> logical thread.
    core_thread: Vec<usize>,
    barrier: BarrierState,
    barrier_id: Option<StaticSyncId>,
    barrier_releases: u64,
    locks: LockRuntime,
    /// Per-region sharers for the snoop filter; kept only when
    /// `cfg.snoop_filter` is on (empty otherwise).
    regions: RegionTracker,
    stats: RunStats,
    /// Coherence transactions committed so far (invariant-violation
    /// reports cite this id).
    txn_counter: u64,
    /// Audit protocol invariants after every coherence transaction; set
    /// only by [`CmpSystem::run_workload_checked`], and only effective
    /// when the audits are compiled in.
    check_invariants: bool,
    /// First invariant violation observed, when auditing is enabled.
    violation: Option<InvariantViolation>,
}

/// A protocol invariant violation caught by the runtime audit layer.
///
/// Produced by [`CmpSystem::run_workload_checked`] (requires the audits to
/// be compiled in — see [`invariants_compiled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Simulated cycle at which the violation was detected.
    pub cycle: u64,
    /// The coherence transaction id (1-based) whose audit failed; 0 when
    /// the violation was found by the end-of-run sweep.
    pub transaction: u64,
    /// Human-readable description of the broken invariant.
    pub message: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant violation at cycle {} (transaction {}): {}",
            self.cycle, self.transaction, self.message
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// Whether the runtime invariant audits are compiled into this build.
///
/// They are present in debug builds and in release builds with
/// `--features invariants`; plain release builds compile them out entirely
/// so the hot path stays allocation- and branch-free.
pub fn invariants_compiled() -> bool {
    cfg!(any(debug_assertions, feature = "invariants"))
}

impl CmpSystem {
    fn new(cfg: &RunConfig, num_cores: usize) -> Self {
        let mut machine = cfg.machine.clone();
        machine.num_cores = num_cores;
        machine.validate();
        let lock_table = shared_lock_table(match cfg.protocol.predictor() {
            Some(crate::config::PredictorKind::Sp(sp)) => sp.history_depth,
            _ => 2,
        });
        let Hardware { tiles, dir, fabric } = Hardware::for_machine(&machine);
        let threads = (0..num_cores)
            .map(|i| {
                let mut predictor = match cfg.protocol.predictor() {
                    Some(kind) => PredictorSlot::build_with_policy(
                        kind,
                        CoreId::new(i),
                        num_cores,
                        &lock_table,
                        cfg.set_policy,
                    ),
                    None => PredictorSlot::None,
                };
                if let Some(book) = &cfg.sp_warm_start {
                    for (core, id, instance, hot) in book.iter() {
                        if core.index() == i && instance == 0 {
                            predictor.preload(id, hot);
                        }
                    }
                }
                ThreadCtx {
                    predictor,
                    tracker: EpochTracker::new(),
                    cur_epoch: None,
                    cur_volumes: vec![0; num_cores],
                    records: Vec::new(),
                }
            })
            .collect();
        let mut stats = RunStats {
            protocol: cfg.protocol.name(),
            ..RunStats::default()
        };
        if cfg.record_epochs {
            stats.comm_matrix = crate::metrics::CommMatrix::new(num_cores);
        }
        CmpSystem {
            proto: ProtoDispatch::of(&cfg.protocol),
            arrival: ArrivalScratch::new(),
            fabric,
            dir,
            tiles,
            threads,
            thread_core: (0..num_cores).collect(),
            core_thread: (0..num_cores).collect(),
            barrier: BarrierState::new(num_cores, machine.barrier_cost),
            barrier_id: None,
            barrier_releases: 0,
            locks: LockRuntime::new(machine.lock_transfer_cost),
            regions: RegionTracker::new(),
            cfg: RunConfig {
                machine,
                ..cfg.clone()
            },
            stats,
            txn_counter: 0,
            check_invariants: false,
            violation: None,
        }
    }

    /// Builds the machine for `workload` under `cfg` and runs it to the
    /// end (or to the first invariant violation, when `check_invariants`
    /// is set): the shared body of the public entry points.
    fn run_to_end(workload: &Workload, cfg: &RunConfig, check_invariants: bool) -> Self {
        let mut sys = CmpSystem::new(cfg, workload.num_cores());
        sys.check_invariants = check_invariants;
        sys.stats.benchmark = workload.name().to_string();
        sys.run(workload);
        sys
    }

    /// Runs `workload` under `cfg` and returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics if the workload deadlocks (malformed sync structure) or its
    /// core count does not match the machine.
    pub fn run_workload(workload: &Workload, cfg: &RunConfig) -> RunStats {
        Self::run_to_end(workload, cfg, false).into_stats()
    }

    /// Runs like [`run_workload`](CmpSystem::run_workload), additionally
    /// checking the coherence invariants when the run completes.
    ///
    /// # Panics
    ///
    /// Panics if the final machine state violates coherence.
    pub fn run_workload_validated(workload: &Workload, cfg: &RunConfig) -> RunStats {
        let sys = Self::run_to_end(workload, cfg, false);
        sys.validate_coherence();
        sys.into_stats()
    }

    /// Runs `workload` with the runtime invariant audits enabled: every
    /// coherence transaction is followed by a directory/cache agreement
    /// check on the touched block, a NoC accounting audit, and an
    /// epoch-counter conservation check; a full-machine coherence sweep
    /// runs at the end. The first violation stops the run and is returned
    /// with its cycle and transaction id.
    ///
    /// Requires a build with the audits compiled in
    /// ([`invariants_compiled`] returns `true`); otherwise only the final
    /// sweep runs.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] observed.
    ///
    /// # Panics
    ///
    /// Panics if the workload deadlocks while no violation was detected.
    pub fn run_workload_checked(
        workload: &Workload,
        cfg: &RunConfig,
    ) -> Result<RunStats, InvariantViolation> {
        let mut sys = Self::run_to_end(workload, cfg, true);
        if let Some(v) = sys.violation.take() {
            return Err(v);
        }
        if let Err(message) = sys.coherence_report() {
            return Err(InvariantViolation {
                cycle: sys.stats.exec_cycles,
                transaction: 0,
                message,
            });
        }
        Ok(sys.into_stats())
    }

    /// Records the first invariant violation; later ones are dropped (the
    /// machine state is already suspect).
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn flag_violation(&mut self, t: Cycle, message: String) {
        if self.violation.is_none() {
            self.violation = Some(InvariantViolation {
                cycle: t.as_u64(),
                transaction: self.txn_counter,
                message,
            });
        }
    }

    /// Post-transaction audit of the touched block plus the cheap global
    /// counters. O(cores) — cheap enough to run after every transaction.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn audit_transaction(&mut self, t: Cycle, block: BlockAddr) {
        if let Err(msg) = self
            .audit_block(block)
            .and_then(|()| self.fabric.audit())
            .and_then(|()| self.audit_epoch_conservation())
        {
            self.flag_violation(t, msg);
        }
    }

    /// Directory/cache agreement for a single block: the sharer vector
    /// matches the set of valid cached copies, suppliers are unique and
    /// recorded as owner, and L1 residency implies L2 residency.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn audit_block(&self, block: BlockAddr) -> Result<(), String> {
        let entry = self.dir.entry(block);
        let mut suppliers = CoreSet::empty();
        let mut writable = CoreSet::empty();
        let mut valid = CoreSet::empty();
        for core in CoreId::all(self.dir.num_tiles()) {
            let tile = &self.tiles[core.index()];
            match tile.l2.probe(block) {
                Some(s) if s.is_valid() => {
                    valid.insert(core);
                    if s.can_supply_data() {
                        suppliers.insert(core);
                    }
                    if s.is_writable() {
                        writable.insert(core);
                    }
                }
                _ => {
                    if tile.l1.probe(block).is_some() {
                        return Err(format!("{block}: L1 line at {core} violates L2 inclusion"));
                    }
                }
            }
        }
        if valid != entry.sharers {
            return Err(format!(
                "{block}: directory sharers {:?} disagree with cached copies {:?}",
                entry.sharers, valid
            ));
        }
        if writable.len() > 1 || (!writable.is_empty() && valid.len() > 1) {
            return Err(format!(
                "{block}: SWMR violated — writable copies at {:?}, valid copies at {:?}",
                writable, valid
            ));
        }
        if suppliers.len() > 1 {
            return Err(format!(
                "{block}: {} simultaneous M/E/F suppliers ({:?})",
                suppliers.len(),
                suppliers
            ));
        }
        if let Some(s) = suppliers.iter().next() {
            if entry.owner != Some(s) {
                return Err(format!(
                    "{block}: supplier {s} is not the directory's owner ({:?})",
                    entry.owner
                ));
            }
        }
        Ok(())
    }

    /// Epoch-counter conservation: every communicating-miss destination
    /// increment lands in exactly one per-epoch volume counter (live or
    /// recorded), so their grand total equals the global communication
    /// matrix.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn audit_epoch_conservation(&self) -> Result<(), String> {
        let mut per_epoch: u64 = 0;
        for ctx in &self.threads {
            per_epoch += ctx.cur_volumes.iter().map(|&v| v as u64).sum::<u64>();
            per_epoch += ctx.records.iter().map(|r| r.total_volume()).sum::<u64>();
        }
        let matrix = self.stats.comm_matrix.total();
        if per_epoch != matrix {
            return Err(format!(
                "epoch-counter conservation broken: per-epoch volumes sum to \
                 {per_epoch} but the communication matrix holds {matrix}"
            ));
        }
        Ok(())
    }

    /// The physical core thread `t` currently runs on.
    fn core_of(&self, thread: usize) -> CoreId {
        CoreId::new(self.thread_core[thread])
    }

    /// Translates a physical core set into logical-thread space.
    fn to_logical(&self, physical: CoreSet) -> CoreSet {
        physical
            .iter()
            .map(|p| CoreId::new(self.core_thread[p.index()]))
            .collect()
    }

    /// Translates a logical-thread set into physical-core space.
    fn to_physical(&self, logical: CoreSet) -> CoreSet {
        logical
            .iter()
            .map(|t| CoreId::new(self.thread_core[t.index()]))
            .collect()
    }

    /// Rotates the thread→core mapping (all threads are at a barrier).
    fn migrate(&mut self) {
        let n = self.thread_core.len();
        let r = self.cfg.migrate_rotation % n;
        if r == 0 {
            return;
        }
        for t in 0..n {
            self.thread_core[t] = (self.thread_core[t] + r) % n;
            self.core_thread[self.thread_core[t]] = t;
        }
        self.stats.migrations += 1;
    }

    fn run(&mut self, workload: &Workload) {
        let n = workload.num_cores();
        let mut streams = workload.cursors();
        let mut status: Vec<ThreadStatus> = vec![ThreadStatus::Runnable; n];
        let mut ready = ReadyQueue::new(n);
        for t in 0..n {
            ready.push(Cycle::ZERO, t);
        }

        while let Some((t_now, th)) = ready.pop() {
            // A detected invariant violation stops the run: the machine
            // state is no longer trustworthy, and the caller wants the
            // first failure, not its fallout.
            if self.violation.is_some() {
                return;
            }
            debug_assert_eq!(status[th], ThreadStatus::Runnable);
            let Some(op) = streams[th].next() else {
                status[th] = ThreadStatus::Done;
                self.stats.exec_cycles = self.stats.exec_cycles.max(t_now.as_u64());
                continue;
            };
            self.stats.total_ops += 1;
            let core = self.core_of(th);

            match op {
                Op::Compute(cycles) => {
                    ready.push(t_now + cycles as u64 + 1, th);
                }
                Op::Load { addr, pc: ipc } => {
                    self.stats.loads += 1;
                    let done = self.access(th, core, t_now, addr.block(), ipc, false);
                    ready.push(done + 1u64, th);
                }
                Op::Store { addr, pc: ipc } => {
                    self.stats.stores += 1;
                    let done = self.access(th, core, t_now, addr.block(), ipc, true);
                    ready.push(done + 1u64, th);
                }
                Op::Sync(point) => {
                    // §4.6: a software SP-table pays an OS trap per
                    // sync-point.
                    let t_sync = t_now + self.cfg.machine.sync_trap_cost;
                    match point.kind {
                        SyncKind::Barrier => {
                            if let Some(cur) = self.barrier_id {
                                assert_eq!(
                                    cur, point.static_id,
                                    "threads disagree on the current barrier"
                                );
                            } else {
                                self.barrier_id = Some(point.static_id);
                            }
                            self.notify_sync(th, point, None);
                            match self.barrier.arrive(CoreId::new(th), t_sync) {
                                Some(release) => {
                                    self.barrier_id = None;
                                    self.barrier_releases += 1;
                                    if self.cfg.migrate_every > 0
                                        && self
                                            .barrier_releases
                                            .is_multiple_of(self.cfg.migrate_every)
                                    {
                                        self.migrate();
                                    }
                                    for (w, st) in status.iter_mut().enumerate() {
                                        if w == th || *st == ThreadStatus::AtBarrier {
                                            *st = ThreadStatus::Runnable;
                                            // Wake-ups serialize out of the
                                            // barrier's home tile: stagger
                                            // resumption slightly per core.
                                            ready.push(release + (2 * w) as u64, w);
                                        }
                                    }
                                }
                                None => {
                                    status[th] = ThreadStatus::AtBarrier;
                                }
                            }
                        }
                        SyncKind::Lock => {
                            let lock = point.lock.expect("lock op carries lock id");
                            match self.locks.acquire(lock, CoreId::new(th), t_sync) {
                                Acquire::Granted { at, prev_holder } => {
                                    self.notify_sync(th, point, prev_holder);
                                    ready.push(at + 1u64, th);
                                }
                                Acquire::Queued => {
                                    status[th] = ThreadStatus::WaitingLock;
                                }
                            }
                        }
                        SyncKind::Unlock => {
                            let lock = point.lock.expect("unlock op carries lock id");
                            self.notify_sync(th, point, None);
                            if let Some((next, grant, prev)) =
                                self.locks.release(lock, CoreId::new(th), t_sync)
                            {
                                // Wake the queued waiter: its Lock op was
                                // already consumed, so deliver its sync
                                // notification now.
                                self.notify_sync(next.index(), SyncPoint::lock(lock), Some(prev));
                                status[next.index()] = ThreadStatus::Runnable;
                                ready.push(grant + 1u64, next.index());
                            }
                            ready.push(t_sync + 1u64, th);
                        }
                        _ => {
                            // join/wakeup/broadcast points: epoch boundary
                            // only.
                            self.notify_sync(th, point, None);
                            ready.push(t_sync + 1u64, th);
                        }
                    }
                }
            }
        }

        let done = status.iter().filter(|&&s| s == ThreadStatus::Done).count();
        assert_eq!(
            done,
            n,
            "deadlock: {} threads blocked (barrier waiting: {})",
            n - done,
            self.barrier.waiting()
        );
    }

    /// Epoch boundary bookkeeping + predictor notification for thread
    /// `th`. `prev_holder` is in logical-thread space.
    fn notify_sync(&mut self, th: usize, point: SyncPoint, prev_holder: Option<CoreId>) {
        let ctx = &mut self.threads[th];
        if self.cfg.record_epochs {
            ctx.close_epoch();
        }
        let tr = ctx.tracker.observe(point);
        ctx.cur_epoch = Some(tr.started);
        ctx.predictor.on_sync_point(point, prev_holder);
        if self.cfg.collect_trace {
            self.stats.trace.push(spcp_trace::TraceEvent::Sync {
                core: CoreId::new(th),
                kind: point.kind,
                static_id: point.static_id.raw(),
                instance: tr.started.instance,
            });
        }
    }

    /// One memory access by thread `th` on physical core `core`.
    fn access(
        &mut self,
        th: usize,
        core: CoreId,
        t: Cycle,
        block: BlockAddr,
        pc: u32,
        store: bool,
    ) -> Cycle {
        let c = core.index();
        let l1_lat = self.cfg.machine.l1.tag_cycles + self.cfg.machine.l1.data_cycles;
        let l2_lat = self.cfg.machine.l2.tag_cycles + self.cfg.machine.l2.data_cycles;

        let l1_present = self.tiles[c].l1.lookup(block).is_some();
        let l2_state = self.tiles[c].l2.probe(block).copied();

        match l2_state {
            Some(state) if !store || state.is_writable() => {
                // Plain hit (load on any valid line; store on M/E).
                if store && state == LineState::Exclusive {
                    *self.tiles[c].l2.probe_mut(block).expect("probed above") = LineState::Modified;
                }
                // Refresh L2 LRU via a demand lookup.
                self.tiles[c].l2.lookup(block);
                if l1_present {
                    self.stats.l1_hits += 1;
                    t + l1_lat
                } else {
                    self.stats.l2_hits += 1;
                    self.fill_l1(c, block);
                    t + l1_lat + l2_lat
                }
            }
            Some(_) => {
                // Store on a Shared/Forward line: upgrade miss.
                self.stats.upgrades += 1;
                self.transaction(th, core, t, block, pc, AccessKind::Upgrade)
            }
            None => {
                let kind = if store {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                self.transaction(th, core, t, block, pc, kind)
            }
        }
    }

    fn fill_l1(&mut self, c: usize, block: BlockAddr) {
        // L1 is inclusive in L2; evictions of clean L1 lines are silent.
        self.tiles[c].l1.insert(block, ());
    }

    /// Inserts `block` into the requester's L2 (handling the victim) and
    /// L1, keeping the region tracker current when the snoop filter, its
    /// only reader, is on.
    fn fill_l2(&mut self, core: CoreId, block: BlockAddr, state: LineState, t: Cycle) {
        let c = core.index();
        if let Some((victim, vstate)) = self.tiles[c].l2.insert(block, state) {
            if victim != block {
                self.tiles[c].l1.invalidate(victim);
                if vstate.needs_writeback() {
                    let home = self.dir.home_of(victim);
                    self.fabric.send(core, home, MsgKind::WriteBack, t);
                }
                self.dir.record_drop(victim, core);
                if self.cfg.snoop_filter {
                    self.regions.on_drop(core, victim);
                }
            } else {
                // Same-block replacement: presence unchanged.
                self.fill_l1(c, block);
                return;
            }
        }
        if self.cfg.snoop_filter {
            self.regions.on_fill(core, block);
        }
        self.fill_l1(c, block);
    }

    /// Drops `block` from a remote sharer's caches (invalidation).
    fn invalidate_at(&mut self, core: CoreId, block: BlockAddr) {
        let dropped = self.tiles[core.index()].l2.invalidate(block).is_some();
        if dropped && self.cfg.snoop_filter {
            self.regions.on_drop(core, block);
        }
        self.tiles[core.index()].l1.invalidate(block);
    }

    /// A coherence transaction for an L2 miss or upgrade by thread `th`;
    /// returns the completion time.
    fn transaction(
        &mut self,
        th: usize,
        core: CoreId,
        t0: Cycle,
        block: BlockAddr,
        pc: u32,
        kind: AccessKind,
    ) -> Cycle {
        self.stats.l2_misses += 1;
        let entry = self.dir.entry(block);
        let mesif = self.cfg.machine.variant == crate::config::CoherenceVariant::Mesif;
        let supplier = protocol::supplier_of(&entry, mesif, |o| {
            self.tiles[o.index()].l2.probe(block).copied()
        });
        let targets = protocol::transaction_targets(kind, core, &entry, supplier);
        let communicating = !targets.is_empty();
        if communicating {
            self.stats.comm_misses += 1;
            self.stats.actual_set_sum += targets.len() as u64;
            if self.cfg.record_epochs {
                let n = self.dir.num_tiles();
                let pcv = self
                    .stats
                    .pc_volumes
                    .entry(pc)
                    .or_insert_with(|| vec![0; n]);
                for dst in targets.iter() {
                    self.stats.comm_matrix.bump(core.index(), dst.index());
                    self.threads[th].cur_volumes[dst.index()] += 1;
                    pcv[dst.index()] += 1;
                }
            }
        } else {
            self.stats.noncomm_misses += 1;
        }
        if self.cfg.collect_trace {
            self.stats.trace.push(spcp_trace::TraceEvent::Miss {
                core: CoreId::new(th),
                block,
                pc,
                kind,
                targets,
            });
        }

        let miss = MissInfo::new(block, pc, kind);
        let completion = match self.proto {
            ProtoDispatch::Directory => {
                let none = CoreSet::empty();
                self.count_prediction(none, false, communicating);
                self.directory_resolve(core, t0, block, pc, kind, supplier, targets, none)
            }
            ProtoDispatch::Broadcast => {
                // Probe everyone; the owner supplies, memory backs up.
                let everyone = CoreSet::all(self.dir.num_tiles());
                self.snoop_resolve(core, t0, block, pc, kind, supplier, targets, everyone)
            }
            ProtoDispatch::Predicted => {
                let pset = self.consult_predictor(th, core, &miss, communicating);
                let sufficient = !pset.is_empty() && pset.is_superset(targets);
                self.count_prediction(pset, sufficient, communicating);
                let completion =
                    self.directory_resolve(core, t0, block, pc, kind, supplier, targets, pset);
                self.train_predictor(th, &miss, targets, pset, sufficient);
                completion
            }
            ProtoDispatch::MulticastSnoop => {
                self.multicast_path(th, core, t0, block, pc, kind, supplier, targets, &miss)
            }
        };

        // Commit the requester's new line state and the directory view, as
        // planned by the pure transition function (shared with the
        // spcp-verify model checker).
        let plan = protocol::commit_plan(kind, core, &entry, mesif, targets);
        if let Some(o) = plan.downgraded_owner {
            // The previous owner degrades to a plain sharer.
            if let Some(s) = self.tiles[o.index()].l2.probe_mut(block) {
                if s.needs_writeback() {
                    let home = self.dir.home_of(block);
                    self.fabric.send(o, home, MsgKind::WriteBack, completion);
                }
                *s = LineState::Shared;
            }
        }
        for s in plan.invalidated.iter() {
            self.invalidate_at(s, block);
        }
        if plan.installs_line {
            self.fill_l2(core, block, plan.requester_state, completion);
        } else {
            *self.tiles[core.index()]
                .l2
                .probe_mut(block)
                .expect("upgrade implies resident line") = plan.requester_state;
        }
        match plan.dir_update {
            DirUpdate::Exclusive => self.dir.record_exclusive(block, core),
            DirUpdate::Shared => self.dir.record_shared(block, core),
            DirUpdate::SharedNoForward => self.dir.record_shared_no_forward(block, core),
        }

        self.txn_counter += 1;
        #[cfg(any(debug_assertions, feature = "invariants"))]
        if self.check_invariants && self.violation.is_none() {
            self.audit_transaction(completion, block);
        }

        self.stats.miss_latency.record((completion - t0).as_u64());
        self.stats
            .miss_latency_hist
            .record((completion - t0).as_u64());
        if communicating {
            self.stats
                .comm_miss_latency
                .record((completion - t0).as_u64());
        }
        completion
    }

    /// Consults thread `th`'s predictor for `miss`, applying the region
    /// filter and logical→physical translation. Returns the physical
    /// predicted set.
    fn consult_predictor(
        &mut self,
        th: usize,
        core: CoreId,
        miss: &MissInfo,
        communicating: bool,
    ) -> CoreSet {
        if self.cfg.snoop_filter && !self.regions.others_share_region(core, miss.block) {
            debug_assert!(
                !communicating,
                "region filter must never suppress a communicating miss"
            );
            self.stats.filtered_predictions += 1;
            return CoreSet::empty();
        }
        let mut pset = self.threads[th].predictor.predict(miss);
        if self.cfg.logical_tracking {
            pset = self.to_physical(pset);
        }
        pset.remove(core);
        pset
    }

    /// Feeds the transaction outcome back to thread `th`'s predictor,
    /// translating into logical space when configured.
    fn train_predictor(
        &mut self,
        th: usize,
        miss: &MissInfo,
        targets: CoreSet,
        pset: CoreSet,
        sufficient: bool,
    ) {
        let (actual, predicted) = if self.cfg.logical_tracking {
            (self.to_logical(targets), self.to_logical(pset))
        } else {
            (targets, pset)
        };
        self.threads[th].predictor.train(
            miss,
            PredictionOutcome {
                actual,
                predicted,
                sufficient,
            },
        );
    }

    /// Counts one miss's prediction outcome, the same rule for every
    /// protocol: a non-empty `pset` counts a prediction (sufficient or
    /// not), and a communicating miss either was resolved by its
    /// sufficient prediction or paid the indirection. The directory
    /// protocol is the case of an empty `pset`, which is never sufficient.
    fn count_prediction(&mut self, pset: CoreSet, sufficient: bool, communicating: bool) {
        let stats = &mut self.stats;
        if !pset.is_empty() {
            stats.predictions += 1;
            stats.predicted_set_sum += pset.len() as u64;
            if sufficient {
                stats.pred_sufficient += 1;
            } else {
                stats.pred_insufficient += 1;
            }
        }
        if communicating {
            if sufficient {
                stats.pred_sufficient_comm += 1;
            } else {
                stats.indirections += 1;
            }
        }
    }

    /// Directory-ordered MESIF timing with the §4.5 prediction overlay.
    ///
    /// Every core in `pset` receives a predicted request racing the
    /// directory request; a predicted owner or sharer replies to the
    /// requester directly, a wrongly predicted core replies with a Nack.
    /// The directory forwards to, or invalidates, every owner or sharer
    /// the prediction missed, at baseline latency (its request was already
    /// in flight). Baseline directory timing is the case of an empty
    /// `pset`.
    #[allow(clippy::too_many_arguments)]
    fn directory_resolve(
        &mut self,
        core: CoreId,
        t0: Cycle,
        block: BlockAddr,
        pc: u32,
        kind: AccessKind,
        owner: Option<CoreId>,
        targets: CoreSet,
        pset: CoreSet,
    ) -> Cycle {
        let communicating = !targets.is_empty();
        let exclusive = kind.is_exclusive();
        let home = self.dir.home_of(block);
        let l2_lat = self.cfg.machine.l2.tag_cycles + self.cfg.machine.l2.data_cycles;
        let tag_lat = self.cfg.machine.l2.tag_cycles;

        for p in pset.iter() {
            let t_arr = self.fabric.send(core, p, MsgKind::PredictedRequest, t0);
            self.account_pred_overhead(core, p, MsgKind::PredictedRequest, communicating);
            self.arrival.set(p, t_arr);
            self.probe_remote(p, block, core, pc);
        }
        let t_dir =
            self.fabric.send(core, home, MsgKind::Request, t0) + self.cfg.machine.dir_latency;

        // Exclusive requests always complete only after the directory's
        // response (§4.5); a read completes with its data.
        let mut completion = if exclusive {
            self.fabric
                .send(home, core, MsgKind::ControlResponse, t_dir)
        } else {
            t0
        };
        // Data supply.
        match owner {
            Some(o) if o != core => {
                let t_data = if pset.contains(o) {
                    // 2-hop cache-to-cache transfer; a read's supplier also
                    // updates the directory off the critical path.
                    let t_arr = self.arrival.get(o);
                    let t_data = self
                        .fabric
                        .send(o, core, MsgKind::DataResponse, t_arr + l2_lat);
                    if !exclusive {
                        self.fabric.send(o, home, MsgKind::DirectoryUpdate, t_data);
                        self.account_pred_overhead(o, home, MsgKind::DirectoryUpdate, true);
                    }
                    t_data
                } else {
                    let t_fwd = self.fabric.send(home, o, MsgKind::Forward, t_dir);
                    self.probe_remote(o, block, core, 0);
                    self.fabric
                        .send(o, core, MsgKind::DataResponse, t_fwd + l2_lat)
                };
                completion = completion.max(t_data);
            }
            _ if kind != AccessKind::Upgrade => {
                let t_mem = t_dir + self.cfg.machine.mem_latency;
                let t_data = self.fabric.send(home, core, MsgKind::DataResponse, t_mem);
                completion = completion.max(t_data);
            }
            _ => {}
        }
        // Invalidations to the remaining sharers (the owner's data doubles
        // as its invalidation): a predicted sharer is invalidated directly,
        // the directory invalidates the rest.
        if exclusive {
            for s in targets.iter() {
                if Some(s) == owner {
                    continue;
                }
                let t_probe = if pset.contains(s) {
                    self.arrival.get(s)
                } else {
                    let t_inv = self.fabric.send(home, s, MsgKind::Invalidate, t_dir);
                    self.probe_remote(s, block, core, 0);
                    t_inv
                };
                let t_ack = self
                    .fabric
                    .send(s, core, MsgKind::InvalidateAck, t_probe + tag_lat);
                completion = completion.max(t_ack);
            }
        }

        // Wrongly-predicted nodes reply with Nacks (bandwidth only).
        for p in pset.iter() {
            let supplies = if exclusive {
                targets.contains(p)
            } else {
                owner == Some(p)
            };
            if !supplies {
                let t_arr = self.arrival.get(p);
                self.fabric.send(p, core, MsgKind::Nack, t_arr);
                self.account_pred_overhead(p, core, MsgKind::Nack, communicating);
            }
        }
        completion
    }

    /// Probes `probe_set` snoop-style from the requester and resolves the
    /// miss from owner/memory; shared core of the broadcast and multicast
    /// paths. Returns the completion time.
    #[allow(clippy::too_many_arguments)]
    fn snoop_resolve(
        &mut self,
        core: CoreId,
        t0: Cycle,
        block: BlockAddr,
        pc: u32,
        kind: AccessKind,
        owner: Option<CoreId>,
        targets: CoreSet,
        probe_set: CoreSet,
    ) -> Cycle {
        let home = self.dir.home_of(block);
        let l2_lat = self.cfg.machine.l2.tag_cycles + self.cfg.machine.l2.data_cycles;
        // The probe burst, then the probed caches' snoop bookkeeping (which
        // never touches the fabric, so it may follow the whole burst).
        let probed = probe_set.difference(CoreSet::single(core));
        let arrival = &mut self.arrival;
        self.fabric
            .fanout(core, probed, MsgKind::SnoopProbe, t0, |dst, t| {
                arrival.set(dst, t)
            });
        for dst in probed.iter() {
            self.probe_remote(dst, block, core, pc);
        }
        let mut completion = t0;
        match owner {
            Some(o) if o != core && probed.contains(o) => {
                let t_probe = self.arrival.get(o);
                let t_data = self
                    .fabric
                    .send(o, core, MsgKind::DataResponse, t_probe + l2_lat);
                completion = completion.max(t_data);
            }
            _ => {
                let t_probe_home = if probed.contains(home) {
                    self.arrival.get(home)
                } else {
                    // Memory fallback needs the home even if unprobed.
                    self.fabric.send(core, home, MsgKind::SnoopProbe, t0)
                };
                let t_mem = t_probe_home + self.cfg.machine.mem_latency;
                let t_data = self.fabric.send(home, core, MsgKind::DataResponse, t_mem);
                completion = completion.max(t_data);
            }
        }
        // Probed sharers ack an exclusive request's invalidation; the owner's
        // data doubles as its ack.
        let mut acked = CoreSet::empty();
        if kind.is_exclusive() {
            acked = targets.intersect(probed);
            if let Some(o) = owner {
                acked.remove(o);
            }
            for s in acked.iter() {
                let t_ack = self.fabric.send(
                    s,
                    core,
                    MsgKind::InvalidateAck,
                    self.arrival.get(s) + self.cfg.machine.l2.tag_cycles,
                );
                completion = completion.max(t_ack);
            }
        }
        // Every probed node that neither supplied data nor acked an
        // invalidation still answers the snoop (bandwidth only).
        let mut silent = probed.difference(acked);
        if let Some(o) = owner {
            silent.remove(o);
        }
        self.fabric
            .fanin_untimed(silent, core, MsgKind::SnoopResponse);
        completion
    }

    /// Prediction-driven multicast snooping: probe the predicted set plus
    /// the home; on insufficiency the ordering point detects it and a
    /// second-phase broadcast repairs (latency penalty + full probe cost).
    #[allow(clippy::too_many_arguments)]
    fn multicast_path(
        &mut self,
        th: usize,
        core: CoreId,
        t0: Cycle,
        block: BlockAddr,
        pc: u32,
        kind: AccessKind,
        owner: Option<CoreId>,
        targets: CoreSet,
        miss: &MissInfo,
    ) -> Cycle {
        let communicating = !targets.is_empty();
        let pset = self.consult_predictor(th, core, miss, communicating);
        let home = self.dir.home_of(block);

        // The multicast always includes the home (ordering point + memory
        // fallback); prediction adds the likely owners/sharers.
        let mut probe_set = pset.union(CoreSet::single(home));
        probe_set.remove(core);
        // A sufficient multicast (including the always-probed home lucking
        // into the target) resolves without a second phase: the
        // communicating miss avoided the repair indirection.
        let sufficient = probe_set.is_superset(targets);
        self.count_prediction(pset, sufficient, communicating);

        let completion = if sufficient {
            self.snoop_resolve(core, t0, block, pc, kind, owner, targets, probe_set)
        } else {
            // Phase 1 probes miss the owner/sharers; the ordering point
            // (home) detects insufficiency after its probe arrives and
            // audits, then a full broadcast restarts the transaction.
            let _phase1 = self.snoop_resolve(
                core,
                t0,
                block,
                pc,
                AccessKind::Read, // phase-1 probes gather state only
                None,             // nobody supplies in phase 1
                CoreSet::empty(),
                probe_set,
            );
            let t_detect =
                self.fabric.send(core, home, MsgKind::Request, t0) + self.cfg.machine.dir_latency;
            let retry = self.fabric.send(home, core, MsgKind::Nack, t_detect);
            let everyone = CoreSet::all(self.dir.num_tiles());
            self.snoop_resolve(core, retry, block, pc, kind, owner, targets, everyone)
        };

        if !pset.is_empty() || communicating {
            self.train_predictor(th, miss, targets, pset, sufficient && !pset.is_empty());
        }
        completion
    }

    /// Attributes a prediction-specific message's byte·hops to the
    /// communicating or non-communicating overhead bucket (Figure 9).
    fn account_pred_overhead(
        &mut self,
        src: CoreId,
        dst: CoreId,
        kind: MsgKind,
        communicating: bool,
    ) {
        let hops = self.fabric.mesh().hops(src, dst) as u64;
        let cost = kind.bytes() * hops;
        if communicating {
            self.stats.pred_overhead_comm += cost;
        } else {
            self.stats.pred_overhead_noncomm += cost;
        }
    }

    /// An external request probes a remote L2: snoop energy plus predictor
    /// observation. Directory forwards and invalidations carry no PC (0).
    fn probe_remote(&mut self, node: CoreId, block: BlockAddr, requester: CoreId, pc: u32) {
        self.stats.snoop_probes += 1;
        self.stats.snoop_energy += self.cfg.machine.snoop_probe_energy;
        let miss = MissInfo::new(block, pc, AccessKind::Read);
        let observer = self.core_thread[node.index()];
        let requester_id = if self.cfg.logical_tracking {
            CoreId::new(self.core_thread[requester.index()])
        } else {
            requester
        };
        self.threads[observer]
            .predictor
            .observe_remote_request(&miss, requester_id);
    }

    /// Checks the global coherence invariants: the directory's view matches
    /// the caches exactly, at most one supplier exists per block, and L1s
    /// are inclusive in their L2s.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) on any violation. Used by integration
    /// tests via [`CmpSystem::run_workload_validated`].
    fn validate_coherence(&self) {
        if let Err(msg) = self.coherence_report() {
            panic!("{msg}");
        }
    }

    /// The full-machine coherence sweep behind
    /// [`validate_coherence`](Self::validate_coherence), reporting the
    /// first broken invariant instead of panicking (so `spcp check` can
    /// exit nonzero with a diagnostic).
    fn coherence_report(&self) -> Result<(), String> {
        // Directory -> caches.
        for (block, entry) in self.dir.iter() {
            if entry.sharers.is_empty() {
                return Err(format!("{block}: tracked entry with no sharers"));
            }
            let mut suppliers = 0;
            for core in CoreId::all(self.dir.num_tiles()) {
                let state = self.tiles[core.index()].l2.probe(block).copied();
                if entry.sharers.contains(core) {
                    let Some(state) = state else {
                        return Err(format!(
                            "{block}: directory lists {core} but its L2 lacks the line"
                        ));
                    };
                    if !state.is_valid() {
                        return Err(format!("{block}: invalid line listed at {core}"));
                    }
                    if state.can_supply_data() {
                        suppliers += 1;
                        if entry.owner != Some(core) {
                            return Err(format!(
                                "{block}: supplier {core} is not the directory's owner"
                            ));
                        }
                    }
                } else if !(state.is_none() || state == Some(LineState::Invalid)) {
                    return Err(format!(
                        "{block}: {core} caches the line but the directory disagrees"
                    ));
                }
            }
            if suppliers > 1 {
                return Err(format!("{block}: {suppliers} simultaneous M/E/F suppliers"));
            }
        }
        // Caches -> directory, and L1 inclusion.
        for core in CoreId::all(self.dir.num_tiles()) {
            let tile = &self.tiles[core.index()];
            for (block, state) in tile.l2.iter() {
                if state.is_valid() && !self.dir.entry(block).sharers.contains(core) {
                    return Err(format!(
                        "{block}: {core} holds a valid line unknown to the directory"
                    ));
                }
            }
            for (block, _) in tile.l1.iter() {
                if tile.l2.probe(block).is_none() {
                    return Err(format!("{block}: L1 line at {core} violates L2 inclusion"));
                }
            }
        }
        Ok(())
    }

    /// Collects the run's statistics and parks the hardware in this
    /// thread's spare slot for the next run.
    fn into_stats(mut self) -> RunStats {
        // Flush the trailing epoch records.
        if self.cfg.record_epochs {
            for ctx in &mut self.threads {
                ctx.close_epoch();
            }
        }
        let mut stats = self.stats;
        stats.noc = *self.fabric.stats();
        stats.predictor_storage_bits = self
            .threads
            .iter()
            .map(|t| t.predictor.storage_bits())
            .sum();
        let mut sp_total: Option<spcp_core::SpStats> = None;
        for ctx in &self.threads {
            if let Some(s) = ctx.predictor.sp_stats() {
                sp_total.get_or_insert_with(Default::default).merge(&s);
            }
        }
        stats.sp = sp_total;
        if self.cfg.record_epochs {
            stats.epoch_records = self.threads.into_iter().map(|t| t.records).collect();
        }
        SPARE.set(Some(Hardware {
            tiles: self.tiles,
            dir: self.dir,
            fabric: self.fabric,
        }));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, PredictorKind};
    use spcp_workloads::suite;

    fn machine() -> MachineConfig {
        MachineConfig::paper_16core()
    }

    fn run(proto: ProtocolKind, bench: spcp_workloads::BenchmarkSpec) -> RunStats {
        let w = bench.generate(16, 7);
        CmpSystem::run_workload(&w, &RunConfig::new(machine(), proto))
    }

    #[test]
    fn directory_run_completes_with_sane_stats() {
        let s = run(ProtocolKind::Directory, suite::x264());
        assert!(s.total_ops > 10_000);
        assert!(s.l2_misses > 0);
        assert!(s.comm_misses > 0, "workload must communicate");
        assert!(s.noncomm_misses > 0, "private streams must miss to memory");
        assert!(s.exec_cycles > 0);
        assert!(s.miss_latency.mean() > 0.0);
        // Every communicating miss pays indirection under the baseline.
        assert_eq!(s.indirections, s.comm_misses);
        assert_eq!(s.predictions, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(ProtocolKind::Directory, suite::x264());
        let b = run(ProtocolKind::Directory, suite::x264());
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.comm_misses, b.comm_misses);
        assert_eq!(a.noc.byte_hops, b.noc.byte_hops);
    }

    #[test]
    fn broadcast_reduces_comm_latency_but_adds_bandwidth() {
        let dir = run(ProtocolKind::Directory, suite::x264());
        let bc = run(ProtocolKind::Broadcast, suite::x264());
        assert!(
            bc.comm_miss_latency.mean() < dir.comm_miss_latency.mean(),
            "broadcast {} !< directory {}",
            bc.comm_miss_latency.mean(),
            dir.comm_miss_latency.mean()
        );
        assert!(
            bc.bandwidth() as f64 > 1.5 * dir.bandwidth() as f64,
            "broadcast must be far more bandwidth-hungry: {} vs {}",
            bc.bandwidth(),
            dir.bandwidth()
        );
        assert!(bc.snoop_probes > dir.snoop_probes);
    }

    #[test]
    fn sp_prediction_cuts_latency_between_directory_and_broadcast() {
        let dir = run(ProtocolKind::Directory, suite::x264());
        let bc = run(ProtocolKind::Broadcast, suite::x264());
        let sp = run(
            ProtocolKind::Predicted(PredictorKind::sp_default()),
            suite::x264(),
        );
        assert!(sp.predictions > 0);
        assert!(sp.accuracy() > 0.3, "accuracy = {}", sp.accuracy());
        assert!(
            sp.comm_miss_latency.mean() < dir.comm_miss_latency.mean(),
            "SP {} !< directory {}",
            sp.comm_miss_latency.mean(),
            dir.comm_miss_latency.mean()
        );
        assert!(sp.comm_miss_latency.mean() >= bc.comm_miss_latency.mean() * 0.95);
        // Bandwidth sits between the two extremes.
        assert!(sp.bandwidth() > dir.bandwidth());
        assert!(sp.bandwidth() < bc.bandwidth());
        assert!(sp.sp.is_some());
    }

    #[test]
    fn sp_fewer_indirections_than_directory() {
        let dir = run(ProtocolKind::Directory, suite::x264());
        let sp = run(
            ProtocolKind::Predicted(PredictorKind::sp_default()),
            suite::x264(),
        );
        assert!(sp.indirections < dir.indirections);
        assert_eq!(
            sp.indirections + sp.pred_sufficient_comm,
            sp.comm_misses,
            "every communicating miss either indirects or was predicted"
        );
    }

    #[test]
    fn multicast_snooping_cuts_broadcast_bandwidth() {
        let bc = run(ProtocolKind::Broadcast, suite::x264());
        let mc = run(
            ProtocolKind::MulticastSnoop(PredictorKind::sp_default()),
            suite::x264(),
        );
        assert!(mc.predictions > 0);
        assert!(
            mc.bandwidth() < bc.bandwidth(),
            "multicast {} !< broadcast {}",
            mc.bandwidth(),
            bc.bandwidth()
        );
        assert!(
            mc.snoop_probes < bc.snoop_probes,
            "multicast must probe fewer caches"
        );
        // Latency stays in broadcast's neighbourhood (mispredictions pay a
        // second phase).
        assert!(mc.comm_miss_latency.mean() < 2.0 * bc.comm_miss_latency.mean());
    }

    #[test]
    fn region_filter_removes_noncomm_prediction_overhead() {
        let w = suite::radix().generate(16, 7); // private-heavy
        let plain = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            ),
        );
        let filtered = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            )
            .with_snoop_filter(),
        );
        assert!(filtered.filtered_predictions > 0);
        assert!(
            filtered.pred_overhead_noncomm < plain.pred_overhead_noncomm,
            "filter must cut wasted prediction traffic: {} !< {}",
            filtered.pred_overhead_noncomm,
            plain.pred_overhead_noncomm
        );
        // Accuracy on communicating misses is preserved.
        assert!(filtered.accuracy() >= plain.accuracy() * 0.95);
    }

    #[test]
    fn software_sp_table_costs_sync_heavy_workloads() {
        let mut soft = machine();
        soft.sync_trap_cost = 300;
        let w = suite::fluidanimate().generate(16, 7); // fine-grain locking
        let hw = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            ),
        );
        let sw = CmpSystem::run_workload(
            &w,
            &RunConfig::new(soft, ProtocolKind::Predicted(PredictorKind::sp_default())),
        );
        assert!(
            sw.exec_cycles > hw.exec_cycles,
            "OS traps must slow the run"
        );
        // Prediction quality is essentially unchanged (timing shifts can
        // reorder lock races, so only approximate equality holds).
        assert!((sw.accuracy() - hw.accuracy()).abs() < 0.1);
    }

    #[test]
    fn warm_start_helps_first_instances() {
        let w = suite::cholesky().generate(16, 7); // many one-shot epochs
        let rec = CmpSystem::run_workload(
            &w,
            &RunConfig::new(machine(), ProtocolKind::Directory).recording(),
        );
        let book = crate::oracle::OracleBook::from_records(&rec.epoch_records, 0.10);
        let cold = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            ),
        );
        let warm = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            )
            .with_warm_start(book),
        );
        assert!(
            warm.accuracy() > cold.accuracy(),
            "profiled signatures must help: {} !> {}",
            warm.accuracy(),
            cold.accuracy()
        );
    }

    #[test]
    fn migration_hurts_physical_tracking_and_logical_tracking_recovers() {
        let w = suite::facesim().generate(16, 7); // stable partners
        let pinned = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            ),
        );
        let migrated_physical = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            )
            .with_migration(10, 1, false),
        );
        let migrated_logical = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            )
            .with_migration(10, 1, true),
        );
        assert!(migrated_physical.migrations > 0);
        assert!(
            migrated_physical.accuracy() < pinned.accuracy(),
            "stale physical signatures must mispredict after migration"
        );
        assert!(
            migrated_logical.accuracy() > migrated_physical.accuracy(),
            "logical-ID tracking must recover accuracy: {} !> {}",
            migrated_logical.accuracy(),
            migrated_physical.accuracy()
        );
    }

    #[test]
    fn recording_collects_epoch_records() {
        let w = suite::x264().generate(16, 7);
        let cfg = RunConfig::new(machine(), ProtocolKind::Directory).recording();
        let s = CmpSystem::run_workload(&w, &cfg);
        assert_eq!(s.epoch_records.len(), 16);
        let total: usize = s.epoch_records.iter().map(|r| r.len()).sum();
        assert!(total > 16, "each core must record many epoch instances");
        assert!(!s.pc_volumes.is_empty());
        // Volumes in records must add up to the communication matrix.
        let rec_total: u64 = s
            .epoch_records
            .iter()
            .flatten()
            .map(|r| r.total_volume())
            .sum();
        assert_eq!(rec_total, s.comm_matrix.total());
    }

    #[test]
    fn oracle_beats_or_matches_sp_accuracy() {
        let w = suite::bodytrack().generate(16, 7);
        let rec = CmpSystem::run_workload(
            &w,
            &RunConfig::new(machine(), ProtocolKind::Directory).recording(),
        );
        let book = crate::oracle::OracleBook::from_records(&rec.epoch_records, 0.10);
        let oracle = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::Oracle(book)),
            ),
        );
        let sp = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            ),
        );
        assert!(oracle.accuracy() > 0.0);
        assert!(
            oracle.accuracy() >= sp.accuracy() * 0.9,
            "oracle {} vs sp {}",
            oracle.accuracy(),
            sp.accuracy()
        );
    }

    #[test]
    fn baseline_predictors_run() {
        for kind in [
            PredictorKind::Addr {
                entries: None,
                macroblock_bytes: 256,
            },
            PredictorKind::Inst { entries: None },
            PredictorKind::Uni,
        ] {
            let s = run(ProtocolKind::Predicted(kind.clone()), suite::x264());
            assert!(s.predictions > 0, "{}", kind.name());
            assert!(s.accuracy() > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn mesi_variant_reduces_cache_to_cache_opportunity() {
        let mut mesi = machine();
        mesi.variant = crate::config::CoherenceVariant::Mesi;
        let w = suite::streamcluster().generate(16, 7); // read-sharing heavy
        let mesif_run = CmpSystem::run_workload_validated(
            &w,
            &RunConfig::new(machine(), ProtocolKind::Directory),
        );
        let mesi_run =
            CmpSystem::run_workload_validated(&w, &RunConfig::new(mesi, ProtocolKind::Directory));
        assert!(
            mesi_run.comm_misses < mesif_run.comm_misses,
            "MESI must lose clean-forwarding transfers: {} !< {}",
            mesi_run.comm_misses,
            mesif_run.comm_misses
        );
        // And the lost transfers become memory accesses, not vanished
        // misses.
        assert!(mesi_run.noncomm_misses > mesif_run.noncomm_misses);
    }

    #[test]
    fn mesi_variant_supports_prediction_unchanged() {
        let mut mesi = machine();
        mesi.variant = crate::config::CoherenceVariant::Mesi;
        let w = suite::x264().generate(16, 7);
        let s = CmpSystem::run_workload_validated(
            &w,
            &RunConfig::new(mesi, ProtocolKind::Predicted(PredictorKind::sp_default())),
        );
        assert!(s.accuracy() > 0.5, "accuracy = {}", s.accuracy());
        assert_eq!(s.indirections + s.pred_sufficient_comm, s.comm_misses);
    }

    #[test]
    fn migration_composes_with_tracing_and_recording() {
        let w = suite::x264().generate(16, 7);
        let s = CmpSystem::run_workload(
            &w,
            &RunConfig::new(
                machine(),
                ProtocolKind::Predicted(PredictorKind::sp_default()),
            )
            .with_migration(5, 3, true)
            .tracing()
            .recording(),
        );
        assert!(s.migrations > 0);
        assert!(!s.trace.is_empty());
        assert_eq!(s.epoch_records.len(), 16);
        assert_eq!(s.indirections + s.pred_sufficient_comm, s.comm_misses);
        // The trace charges each miss to its thread's open epoch, exactly
        // as the recorder does, whichever core the thread runs on.
        let analyzer = spcp_trace::TraceAnalyzer::from_events(16, &s.trace);
        let mut traced: Vec<_> = analyzer
            .epochs()
            .iter()
            .filter(|e| e.total_volume() > 0)
            .map(|e| (e.core.index(), e.kind, e.static_id, e.instance, &e.volumes))
            .collect();
        traced.sort_by_key(|e| e.0);
        let recorded: Vec<_> = s
            .epoch_records
            .iter()
            .enumerate()
            .flat_map(|(th, records)| records.iter().map(move |r| (th, r)))
            .filter(|(_, r)| r.total_volume() > 0)
            .map(|(th, r)| (th, r.id.kind, r.id.static_id.raw(), r.instance, &r.volumes))
            .collect();
        assert!(!recorded.is_empty());
        assert_eq!(traced, recorded);
    }

    #[test]
    fn latency_histogram_covers_every_miss() {
        let s = run(ProtocolKind::Directory, suite::x264());
        assert_eq!(s.miss_latency_hist.total(), s.l2_misses);
        assert!(s.latency_percentile(0.5).is_some());
        // Memory misses (150+ cycles) must push P95 beyond 128 cycles.
        assert!(s.latency_percentile(0.95).unwrap() > 128);
    }

    /// The block audit is not vacuous: corrupting one cached line state
    /// after a run immediately trips the SWMR / directory-agreement check.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[test]
    fn audit_detects_corrupted_cache_state() {
        let w = suite::x264().generate(16, 7);
        let cfg = RunConfig::new(machine(), ProtocolKind::Directory);
        let mut sys = CmpSystem::run_to_end(&w, &cfg, false);
        // Find a block shared by at least two caches and silently flip one
        // copy to Modified — a state the protocol could never produce.
        let (block, victim) = sys
            .dir
            .iter()
            .find(|(_, e)| e.sharers.len() >= 2)
            .map(|(b, e)| (b, e.sharers.iter().next().expect("non-empty sharers")))
            .expect("a 16-core run must leave some block shared");
        assert!(sys.audit_block(block).is_ok(), "pre-corruption audit");
        *sys.tiles[victim.index()]
            .l2
            .probe_mut(block)
            .expect("directory says the line is resident") = LineState::Modified;
        let err = sys.audit_block(block).expect_err("corruption undetected");
        assert!(
            err.contains("SWMR") || err.contains("writable"),
            "unexpected audit message: {err}"
        );
    }

    /// `run_workload_checked` surfaces violations instead of panicking.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    #[test]
    fn checked_run_is_clean_on_suite_workload() {
        let w = suite::x264().generate(16, 7);
        // Recording, so the epoch-conservation audit has volumes to check.
        let cfg = RunConfig::new(machine(), ProtocolKind::Directory).recording();
        let stats = CmpSystem::run_workload_checked(&w, &cfg)
            .unwrap_or_else(|v| panic!("spurious violation: {v}"));
        assert!(stats.l2_misses > 0);
    }

    #[test]
    fn comm_ratio_tracks_private_mix() {
        // radix is private-heavy, streamcluster sharing-heavy.
        let lo = run(ProtocolKind::Directory, suite::radix());
        let hi = run(ProtocolKind::Directory, suite::streamcluster());
        assert!(
            lo.comm_ratio() + 0.15 < hi.comm_ratio(),
            "radix {} !< streamcluster {}",
            lo.comm_ratio(),
            hi.comm_ratio()
        );
    }
}
