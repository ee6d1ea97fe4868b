//! Workloads as descriptions of a run, and the per-core cursors that
//! stream their ops one epoch instance at a time.

use crate::layout::{lock_block, private_block, shared_block, LOCK_BLOCKS, SHARED_BLOCKS_PER_CORE};
use crate::op::Op;
use crate::spec::{BenchmarkSpec, EpochSpec};
use spcp_sim::{CoreId, DetRng};
use spcp_sync::{LockId, StaticSyncId, SyncPoint};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A workload: the op stream each core of a `num_cores`-core machine runs.
///
/// A generated workload ([`BenchmarkSpec::generate`]) is a *description*
/// of the run — its spec, core count and seed — not the ops themselves.
/// [`Workload::cursors`] streams each core's ops, expanding one epoch
/// instance at a time into a buffer the cursor reuses, so a run holds a
/// few hundred ops per core however long the program is. Generation is
/// deterministic in `(spec, num_cores, seed)`: every cursor over a
/// workload yields the same ops. [`Workload::from_threads`] wraps
/// hand-written streams instead, which its cursors borrow.
///
/// The simulator replays the streams against the coherence protocol, so
/// all communication emerges from genuine reads-after-remote-writes.
#[derive(Debug, Clone)]
pub struct Workload {
    name: &'static str,
    num_cores: usize,
    source: Source,
    paper_comm_ratio: f64,
    /// Ops across all cores, counted on the first request.
    total_ops: OnceLock<usize>,
}

/// Where a workload's ops come from.
#[derive(Debug, Clone)]
enum Source {
    /// Hand-written per-core streams.
    Threads(Vec<Vec<Op>>),
    /// A benchmark model, expanded on demand.
    Generated(Generated),
}

/// A benchmark model, its seed, and the tables every cursor over it
/// shares.
#[derive(Debug, Clone)]
struct Generated {
    spec: BenchmarkSpec,
    seed: u64,
    /// Per epoch, in program order across phases: the slot of its
    /// dynamic-instance counter (epochs sharing a static ID share one).
    counter_slot: Vec<usize>,
    /// Distinct counter slots.
    counters: usize,
    /// The most ops one epoch instance can emit (a cursor's buffer size).
    max_instance_ops: usize,
}

impl Workload {
    /// Builds a workload directly from hand-written per-core op streams.
    ///
    /// Useful for protocol unit tests and custom microbenchmarks that need
    /// precise control over individual accesses.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty.
    pub fn from_threads(name: &'static str, threads: Vec<Vec<Op>>) -> Self {
        assert!(!threads.is_empty(), "a workload needs at least one thread");
        Workload {
            name,
            num_cores: threads.len(),
            total_ops: OnceLock::from(threads.iter().map(Vec::len).sum::<usize>()),
            source: Source::Threads(threads),
            paper_comm_ratio: 0.0,
        }
    }

    /// Benchmark name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One cursor per core, in core order, each at the start of its
    /// stream.
    pub fn cursors(&self) -> Vec<OpCursor<'_>> {
        match &self.source {
            Source::Threads(threads) => threads
                .iter()
                .map(|t| OpCursor {
                    window: Cow::Borrowed(t),
                    pos: 0,
                    gen: None,
                })
                .collect(),
            Source::Generated(g) => {
                let spec = &g.spec;
                let mut master =
                    DetRng::seeded(g.seed ^ spec.seed_salt.wrapping_mul(0x517c_c1b7_2722_0a95));
                (0..self.num_cores)
                    .map(|c| OpCursor {
                        window: Cow::Owned(Vec::with_capacity(g.max_instance_ops)),
                        pos: 0,
                        gen: Some(EpochGen {
                            spec,
                            counter_slot: &g.counter_slot,
                            core: CoreId::new(c),
                            num_cores: self.num_cores,
                            rng: master.fork(c as u64),
                            instances: vec![0; g.counters],
                            private_seq: 0,
                            phase: 0,
                            iteration: 0,
                            epoch: 0,
                            first_epoch: 0,
                            producers: Vec::with_capacity(self.num_cores),
                            body: Vec::with_capacity(g.max_instance_ops),
                        }),
                    })
                    .collect()
            }
        }
    }

    /// Every core's whole op stream, expanded.
    ///
    /// This materializes the run — 24 bytes per op, all cores at once —
    /// so it is for tests and tools that need the ops side by side; the
    /// simulator streams them through [`Workload::cursors`] instead.
    pub fn threads(&self) -> Vec<Vec<Op>> {
        self.cursors().into_iter().map(Iterator::collect).collect()
    }

    /// Number of cores (threads).
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Total operations across all cores.
    ///
    /// Counted once, on the first call, by walking every cursor; later
    /// calls return the cached count.
    pub fn total_ops(&self) -> usize {
        *self
            .total_ops
            .get_or_init(|| self.cursors().into_iter().map(Iterator::count).sum())
    }

    /// The paper's Figure 1 reference communicating-miss ratio.
    pub fn paper_comm_ratio(&self) -> f64 {
        self.paper_comm_ratio
    }
}

/// One core's op stream: a window of ops plus, for a generated workload,
/// the generator that refills it one epoch instance at a time.
///
/// The window of a hand-written workload borrows the whole stream; a
/// generated one owns a buffer that every refill reuses, so streaming
/// allocates nothing after the cursor is built.
#[derive(Debug)]
pub struct OpCursor<'a> {
    window: Cow<'a, [Op]>,
    /// Next op's index in `window`.
    pos: usize,
    gen: Option<EpochGen<'a>>,
}

impl OpCursor<'_> {
    /// Replaces the window with the next epoch instance's ops; `false`
    /// once the stream has none left.
    fn refill(&mut self) -> bool {
        let Some(gen) = &mut self.gen else {
            return false;
        };
        let buf = self.window.to_mut();
        buf.clear();
        self.pos = 0;
        gen.next_instance(buf)
    }
}

impl Iterator for OpCursor<'_> {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        loop {
            if let Some(&op) = self.window.get(self.pos) {
                self.pos += 1;
                return Some(op);
            }
            if !self.refill() {
                return None;
            }
        }
    }

    fn count(mut self) -> usize {
        let mut n = self.window.len() - self.pos;
        while self.refill() {
            n += self.window.len();
        }
        n
    }
}

/// The generator behind one core's cursor: its forked rng, its position
/// in the program, and the per-core state the program carries between
/// epoch instances.
#[derive(Debug)]
struct EpochGen<'a> {
    spec: &'a BenchmarkSpec,
    counter_slot: &'a [usize],
    core: CoreId,
    num_cores: usize,
    rng: DetRng,
    /// Dynamic instances of each static epoch emitted so far.
    instances: Vec<u64>,
    /// Next block of this core's private stream.
    private_seq: u64,
    /// The next instance's phase, iteration and epoch within the phase.
    phase: usize,
    iteration: u32,
    epoch: usize,
    /// Program-order index of the current phase's first epoch.
    first_epoch: usize,
    /// Scratch: this instance's producers.
    producers: Vec<CoreId>,
    /// Scratch: this instance's shared and private accesses.
    body: Vec<Op>,
}

impl<'a> EpochGen<'a> {
    /// Appends the next epoch instance's ops to `ops`; `false` at the end
    /// of the program.
    fn next_instance(&mut self, ops: &mut Vec<Op>) -> bool {
        let spec: &'a BenchmarkSpec = self.spec;
        loop {
            let Some(phase) = spec.phases.get(self.phase) else {
                return false;
            };
            if self.iteration < phase.iterations && self.epoch < phase.epochs.len() {
                let epoch = &phase.epochs[self.epoch];
                let slot = self.counter_slot[self.first_epoch + self.epoch];
                self.epoch += 1;
                if self.epoch == phase.epochs.len() {
                    self.epoch = 0;
                    self.iteration += 1;
                }
                self.expand(epoch, slot, ops);
                return true;
            }
            self.first_epoch += phase.epochs.len();
            self.phase += 1;
            self.iteration = 0;
            self.epoch = 0;
        }
    }

    /// Appends one dynamic instance of `epoch` (counter slot `slot`).
    fn expand(&mut self, epoch: &EpochSpec, slot: usize, ops: &mut Vec<Op>) {
        let core = self.core;
        let rng = &mut self.rng;
        let private_pc = epoch.pc_base + 0x200;

        // Epoch-begin barrier (also the previous epoch's end).
        ops.push(Op::Sync(SyncPoint::barrier(StaticSyncId::new(
            epoch.static_id,
        ))));

        let instance = self.instances[slot];
        self.instances[slot] += 1;

        if rng.chance(epoch.noise_prob) {
            // A couple of private touches only (§3.4).
            for _ in 0..2 {
                ops.push(Op::Load {
                    addr: private_block(core, self.private_seq),
                    pc: private_pc,
                });
                self.private_seq += 1;
            }
            return;
        }

        // Consumer side: read the producers' stripes; producer side: write
        // this core's own stripe; private work: stream cold blocks. Real
        // code interleaves all three, so shuffle them together (block sets
        // are disjoint, so order is free).
        let producers = &mut self.producers;
        epoch
            .pattern
            .producers(core, instance, self.num_cores, rng, producers);
        let body = &mut self.body;
        body.clear();
        if !producers.is_empty() {
            for i in 0..epoch.shared_reads {
                let producer = producers[i as usize % producers.len()];
                body.push(Op::Load {
                    addr: shared_block(producer, i as u64),
                    pc: epoch.pc_base + 4 * (i % epoch.shared_pcs),
                });
            }
        }
        for i in 0..epoch.shared_writes {
            body.push(Op::Store {
                addr: shared_block(core, i as u64),
                pc: epoch.pc_base + 0x100 + 4 * (i % epoch.shared_pcs),
            });
        }
        // Shared accesses stay bursty (a consume phase then a produce
        // phase, as in real data-parallel loops); private work is
        // sprinkled throughout the epoch.
        for _ in 0..epoch.private_accesses {
            let at = rng.index(body.len() + 1);
            body.insert(
                at,
                Op::Load {
                    addr: private_block(core, self.private_seq),
                    pc: private_pc,
                },
            );
            self.private_seq += 1;
        }
        if epoch.work_per_access > 0 {
            for &op in body.iter() {
                ops.push(Op::Compute(epoch.work_per_access));
                ops.push(op);
            }
        } else {
            ops.extend_from_slice(body);
        }

        // Critical sections on migratory lock data.
        if let Some(cs) = epoch.cs {
            for _ in 0..cs.sections {
                let lock_id = cs.lock_base + rng.index(cs.num_locks as usize) as u32;
                let lock = LockId::new(lock_id);
                // Threads reach the lock after varying amounts of local
                // work, so acquisition order is a timing race (the paper's
                // "random" critical-section pattern).
                ops.push(Op::Compute(rng.range(0, 120) as u32));
                ops.push(Op::Sync(SyncPoint::lock(lock)));
                for a in 0..cs.accesses {
                    let addr = lock_block(lock_id, (a as u64) % LOCK_BLOCKS);
                    let pc = epoch.pc_base + 0x300 + 4 * (a % 2);
                    // Read-modify-write the protected data so each holder
                    // both consumes the previous holder's writes and
                    // produces for the next.
                    if a % 2 == 0 {
                        ops.push(Op::Load { addr, pc });
                    } else {
                        ops.push(Op::Store { addr, pc });
                    }
                }
                ops.push(Op::Sync(SyncPoint::unlock(lock)));
            }
        }
    }
}

impl EpochSpec {
    /// The most ops one core can emit in one instance of this epoch.
    fn max_ops_per_instance(&self) -> usize {
        let interleave = if self.work_per_access > 0 { 2 } else { 1 };
        let body = (self.shared_reads + self.shared_writes + self.private_accesses) as usize;
        let cs = self
            .cs
            .map_or(0, |c| c.sections as usize * (c.accesses as usize + 3));
        // A noisy instance is the barrier and two private touches.
        1 + (interleave * body + cs).max(2)
    }
}

impl BenchmarkSpec {
    /// The workload this spec runs on a `num_cores` machine with `seed`.
    ///
    /// Generation is lazy: the workload keeps a copy of the spec, and its
    /// cursors expand the ops as a run consumes them.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or an epoch requests more shared
    /// blocks than a stripe holds.
    pub fn generate(&self, num_cores: usize, seed: u64) -> Workload {
        assert!(num_cores > 0);
        let mut slot_of: HashMap<u32, usize> = HashMap::new();
        let mut counter_slot = Vec::with_capacity(self.static_epochs());
        let mut max_instance_ops = 0;
        for epoch in self.phases.iter().flat_map(|p| &p.epochs) {
            assert!(
                epoch.shared_reads as u64 <= SHARED_BLOCKS_PER_CORE,
                "epoch reads more blocks than a stripe holds"
            );
            assert!(
                epoch.shared_writes as u64 <= SHARED_BLOCKS_PER_CORE,
                "epoch writes more blocks than a stripe holds"
            );
            let next = slot_of.len();
            counter_slot.push(*slot_of.entry(epoch.static_id).or_insert(next));
            max_instance_ops = max_instance_ops.max(epoch.max_ops_per_instance());
        }
        Workload {
            name: self.name,
            num_cores,
            source: Source::Generated(Generated {
                spec: self.clone(),
                seed,
                counter_slot,
                counters: slot_of.len(),
                max_instance_ops,
            }),
            paper_comm_ratio: self.paper_comm_ratio,
            total_ops: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::SharingPattern;
    use crate::spec::{CsSpec, EpochSpec, Phase};
    use spcp_sync::SyncKind;

    fn toy_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "toy",
            phases: vec![Phase::new(
                vec![
                    EpochSpec::new(1, SharingPattern::Stable { offset: 1 }).traffic(8, 8),
                    EpochSpec::new(2, SharingPattern::Random)
                        .traffic(4, 4)
                        .critical_sections(CsSpec {
                            lock_base: 0,
                            num_locks: 2,
                            sections: 1,
                            accesses: 4,
                        }),
                ],
                5,
            )],
            seed_salt: 3,
            paper_comm_ratio: 0.5,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = toy_spec();
        let a = spec.generate(16, 42);
        let b = spec.generate(16, 42);
        assert_eq!(a.threads(), b.threads());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = toy_spec();
        let a = spec.generate(16, 1);
        let b = spec.generate(16, 2);
        assert_ne!(a.threads(), b.threads());
    }

    #[test]
    fn every_core_gets_a_stream_with_barriers() {
        let w = toy_spec().generate(16, 0);
        assert_eq!(w.num_cores(), 16);
        for t in w.threads() {
            let barriers = t
                .iter()
                .filter(|o| matches!(o, Op::Sync(p) if p.kind == SyncKind::Barrier))
                .count();
            // 2 epochs * 5 iterations
            assert_eq!(barriers, 10);
        }
    }

    #[test]
    fn barrier_sequences_are_identical_across_cores() {
        let w = toy_spec().generate(8, 0);
        let seq = |t: &[Op]| -> Vec<u32> {
            t.iter()
                .filter_map(|o| match o {
                    Op::Sync(p) if p.kind == SyncKind::Barrier => Some(p.static_id.raw()),
                    _ => None,
                })
                .collect()
        };
        let first = seq(&w.threads()[0]);
        for t in w.threads() {
            assert_eq!(seq(&t), first);
        }
    }

    #[test]
    fn locks_are_balanced_pairs() {
        let w = toy_spec().generate(16, 0);
        for t in w.threads() {
            let locks = t
                .iter()
                .filter(|o| matches!(o, Op::Sync(p) if p.kind == SyncKind::Lock))
                .count();
            let unlocks = t
                .iter()
                .filter(|o| matches!(o, Op::Sync(p) if p.kind == SyncKind::Unlock))
                .count();
            assert_eq!(locks, unlocks);
            assert_eq!(locks, 5); // 1 section * 5 iterations
        }
    }

    #[test]
    fn consumers_read_producer_stripe() {
        // Stable offset 1: core 0 reads core 1's stripe.
        let spec = BenchmarkSpec {
            name: "stable",
            phases: vec![Phase::new(
                vec![EpochSpec::new(1, SharingPattern::Stable { offset: 1 }).traffic(4, 4)],
                1,
            )],
            seed_salt: 0,
            paper_comm_ratio: 0.5,
        };
        let w = spec.generate(4, 0);
        let reads: Vec<_> = w.threads()[0]
            .iter()
            .filter_map(|o| match o {
                Op::Load { addr, .. } => crate::layout::owner_of_shared(*addr),
                _ => None,
            })
            .collect();
        assert!(!reads.is_empty());
        assert!(reads.iter().all(|&p| p == CoreId::new(1)));
    }

    #[test]
    fn writes_stay_in_own_stripe() {
        let w = toy_spec().generate(8, 0);
        for (c, t) in w.threads().iter().enumerate() {
            for o in t {
                if let Op::Store { addr, .. } = o {
                    if let Some(owner) = crate::layout::owner_of_shared(*addr) {
                        assert_eq!(owner, CoreId::new(c));
                    }
                }
            }
        }
    }

    #[test]
    fn noisy_epochs_shrink_streams() {
        let mut spec = toy_spec();
        spec.phases[0].epochs[0] = spec.phases[0].epochs[0].clone().noise(1.0);
        let noisy = spec.generate(16, 0);
        let normal = toy_spec().generate(16, 0);
        assert!(noisy.total_ops() < normal.total_ops());
    }

    #[test]
    fn cursor_buffers_hold_one_instance_and_never_grow() {
        let mut spec = toy_spec();
        spec.phases[0].epochs[0] = spec.phases[0].epochs[0].clone().work(2).noise(0.5);
        let w = spec.generate(8, 3);
        let Source::Generated(g) = &w.source else {
            unreachable!("generate builds a generated source")
        };
        for mut cursor in w.cursors() {
            let mut ops = 0;
            while cursor.next().is_some() {
                ops += 1;
                let Cow::Owned(buf) = &cursor.window else {
                    unreachable!("generated windows own their buffer")
                };
                assert!(buf.len() <= g.max_instance_ops);
                assert_eq!(buf.capacity(), g.max_instance_ops, "buffer regrew");
            }
            assert!(ops > 0);
        }
        assert_eq!(
            w.total_ops(),
            w.threads().iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn total_ops_matches_estimate_roughly() {
        let spec = toy_spec();
        let w = spec.generate(16, 0);
        let est = spec.ops_per_core() * 16;
        let actual = w.total_ops() as u64;
        // The estimate ignores noise; toy spec has none, so it is exact.
        assert_eq!(actual, est);
    }
}
