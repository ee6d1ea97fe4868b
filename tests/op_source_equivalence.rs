//! Lockstep check of the streamed op source against a materializing
//! reference generator.
//!
//! `BenchmarkSpec::generate` returns a description of the run, and each
//! core's ops are expanded one epoch instance at a time by the cursors of
//! `Workload::cursors`. The oracle below is the whole-program generator
//! that builds every core's `Vec<Op>` up front (and its own copy of the
//! producer choice), kept here verbatim so the cursor is compared against
//! an implementation it shares no code path with beyond the address
//! layout and the rng. Every core's stream must match op for op, and
//! `total_ops` must equal the expanded length.

use spcp::sim::{CoreId, DetRng};
use spcp::sync::{LockId, StaticSyncId, SyncPoint};
use spcp::workloads::layout::{
    lock_block, private_block, shared_block, LOCK_BLOCKS, SHARED_BLOCKS_PER_CORE,
};
use spcp::workloads::{suite, textspec, BenchmarkSpec, Op, SharingPattern, Workload};
use std::collections::HashMap;

/// The reference producer choice: a fresh `Vec` per instance.
fn reference_producers(
    pattern: &SharingPattern,
    consumer: CoreId,
    instance: u64,
    n: usize,
    rng: &mut DetRng,
) -> Vec<CoreId> {
    let c = consumer.index();
    let wrap = |o: usize| CoreId::new((c + o) % n);
    match *pattern {
        SharingPattern::Stable { offset } => vec![wrap(offset.max(1))],
        SharingPattern::StableSwitch {
            first,
            second,
            switch_at,
        } => {
            let o = if instance < switch_at { first } else { second };
            vec![wrap(o.max(1))]
        }
        SharingPattern::Repetitive { stride, period } => {
            let k = (instance % period.max(1) as u64) as usize;
            vec![wrap(1 + k * stride.max(1))]
        }
        SharingPattern::Neighbor => {
            vec![CoreId::new((c + 1) % n), CoreId::new((c + n - 1) % n)]
        }
        SharingPattern::Random => {
            let mut p = rng.index(n);
            if p == c {
                p = (p + 1) % n;
            }
            vec![CoreId::new(p)]
        }
        SharingPattern::WidelyShared { producers } => {
            (0..producers.min(n - 1)).map(|i| wrap(1 + i)).collect()
        }
        SharingPattern::PrivateOnly => Vec::new(),
        SharingPattern::Mixed { offset } => {
            let stable = wrap(offset.max(1));
            let mut p = rng.index(n);
            if p == c || p == stable.index() {
                p = (p + 1) % n;
            }
            if p == c || p == stable.index() {
                p = (p + 1) % n;
            }
            vec![stable, CoreId::new(p)]
        }
    }
}

/// The reference generator: every core's whole stream, built epoch by
/// epoch across all cores.
fn reference_generate(spec: &BenchmarkSpec, num_cores: usize, seed: u64) -> Vec<Vec<Op>> {
    let mut master = DetRng::seeded(seed ^ spec.seed_salt.wrapping_mul(0x517c_c1b7_2722_0a95));
    let mut threads: Vec<Vec<Op>> = vec![Vec::new(); num_cores];
    let mut rngs: Vec<DetRng> = (0..num_cores).map(|c| master.fork(c as u64)).collect();
    let mut instances: Vec<HashMap<u32, u64>> = vec![HashMap::new(); num_cores];
    let mut private_seq: Vec<u64> = vec![0; num_cores];

    for phase in &spec.phases {
        for _iter in 0..phase.iterations {
            for epoch in &phase.epochs {
                for core_idx in 0..num_cores {
                    let core = CoreId::new(core_idx);
                    let rng = &mut rngs[core_idx];
                    let ops = &mut threads[core_idx];
                    ops.push(Op::Sync(SyncPoint::barrier(StaticSyncId::new(
                        epoch.static_id,
                    ))));
                    let instance = {
                        let e = instances[core_idx].entry(epoch.static_id).or_insert(0);
                        let v = *e;
                        *e += 1;
                        v
                    };
                    if rng.chance(epoch.noise_prob) {
                        for _ in 0..2 {
                            let seq = private_seq[core_idx];
                            private_seq[core_idx] += 1;
                            ops.push(Op::Load {
                                addr: private_block(core, seq),
                                pc: epoch.pc_base + 0x200,
                            });
                        }
                        continue;
                    }
                    let producers =
                        reference_producers(&epoch.pattern, core, instance, num_cores, rng);
                    assert!(epoch.shared_reads as u64 <= SHARED_BLOCKS_PER_CORE);
                    assert!(epoch.shared_writes as u64 <= SHARED_BLOCKS_PER_CORE);
                    let mut body = Vec::new();
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
                    for _ in 0..epoch.private_accesses {
                        let seq = private_seq[core_idx];
                        private_seq[core_idx] += 1;
                        let at = rng.index(body.len() + 1);
                        body.insert(
                            at,
                            Op::Load {
                                addr: private_block(core, seq),
                                pc: epoch.pc_base + 0x200,
                            },
                        );
                    }
                    if epoch.work_per_access > 0 {
                        for op in body {
                            ops.push(Op::Compute(epoch.work_per_access));
                            ops.push(op);
                        }
                    } else {
                        ops.extend(body);
                    }
                    if let Some(cs) = epoch.cs {
                        for _ in 0..cs.sections {
                            let lock_id = cs.lock_base + rng.index(cs.num_locks as usize) as u32;
                            let lock = LockId::new(lock_id);
                            ops.push(Op::Compute(rng.range(0, 120) as u32));
                            ops.push(Op::Sync(SyncPoint::lock(lock)));
                            for a in 0..cs.accesses {
                                let addr = lock_block(lock_id, (a as u64) % LOCK_BLOCKS);
                                let pc = epoch.pc_base + 0x300 + 4 * (a % 2);
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
        }
    }
    threads
}

/// Streams every core of `spec.generate(cores, seed)` against the oracle,
/// naming the first divergent op.
fn assert_lockstep(spec: &BenchmarkSpec, cores: usize, seed: u64) {
    let ctx = format!("{} at {cores} cores, seed {seed}", spec.name);
    let oracle = reference_generate(spec, cores, seed);
    let w = spec.generate(cores, seed);
    assert_eq!(w.num_cores(), cores, "{ctx}");
    let cursors = w.cursors();
    assert_eq!(cursors.len(), cores, "{ctx}");
    for (core, (expected, mut cursor)) in oracle.iter().zip(cursors).enumerate() {
        for (i, want) in expected.iter().enumerate() {
            let got = cursor.next();
            assert_eq!(got, Some(*want), "{ctx}: core {core}, op {i}");
        }
        assert_eq!(cursor.next(), None, "{ctx}: core {core} runs long");
    }
    let expanded: usize = oracle.iter().map(Vec::len).sum();
    assert_eq!(w.total_ops(), expanded, "{ctx}: total_ops");
}

#[test]
fn every_suite_spec_streams_the_reference_ops() {
    for spec in suite::all() {
        for cores in [16, 64] {
            for seed in [7, 8, 9, 0x5eed_1234_abcd] {
                assert_lockstep(&spec, cores, seed);
            }
        }
    }
}

#[test]
fn scaled_specs_stream_the_reference_ops() {
    for name in ["bodytrack", "vips", "cholesky"] {
        let spec = suite::scaled(suite::by_name(name).expect("known benchmark"), 3);
        assert_lockstep(&spec, 16, 11);
    }
}

#[test]
fn fully_noisy_epochs_stream_the_reference_ops() {
    let mut spec = suite::by_name("fft").expect("known benchmark");
    for epoch in spec.phases.iter_mut().flat_map(|p| &mut p.epochs) {
        epoch.noise_prob = 1.0;
    }
    for seed in [1, 2] {
        assert_lockstep(&spec, 16, seed);
    }
}

/// Critical-section heavy, with compute interleaving and every pattern.
/// Static epoch 2 recurs in the second phase and shares one instance
/// counter across both, so its switch at instance 8 falls inside that
/// phase.
const CS_HEAVY: &str = "\
benchmark cs-heavy
comm-ratio 0.6

phase 6
  epoch 1 random
    traffic 16 8
    private 4
    cs 0 3 5 6
  epoch 2 switch 1 5 8
    cs 2 2 8 4
    work 3
  epoch 3 mixed 2
    noise 0.3
    cs 0 6 2 10
end

phase 4
  epoch 2 switch 1 5 8
    cs 2 2 8 4
    work 3
  epoch 4 repetitive 3 4
  epoch 5 widely 200
    work 1
  epoch 6 neighbor
  epoch 7 private
    cs 9 1 3 2
end
";

#[test]
fn critical_section_heavy_text_spec_streams_the_reference_ops() {
    let spec = textspec::parse_spec(CS_HEAVY).expect("valid spec");
    for cores in [4, 16, 64] {
        for seed in [3, 4, 5, 6] {
            assert_lockstep(&spec, cores, seed);
        }
    }
}

#[test]
fn expansion_and_cursors_agree_and_repeat() {
    let w = suite::by_name("lu")
        .expect("known benchmark")
        .generate(16, 7);
    let threads = w.threads();
    assert_eq!(threads, w.threads(), "a second expansion differs");
    assert_eq!(
        threads.iter().map(Vec::len).sum::<usize>(),
        w.total_ops(),
        "total_ops"
    );
    let cloned = w.clone();
    for (t, cursor) in threads.iter().zip(cloned.cursors()) {
        assert_eq!(*t, cursor.collect::<Vec<Op>>());
    }
}

#[test]
fn hand_written_streams_are_their_own_cursors() {
    let a = Op::Compute(5);
    let b = Op::Sync(SyncPoint::barrier(StaticSyncId::new(1)));
    let threads = vec![vec![a, b], vec![b], Vec::new()];
    let w = Workload::from_threads("hand", threads.clone());
    assert_eq!(w.num_cores(), 3);
    assert_eq!(w.total_ops(), 3);
    assert_eq!(w.threads(), threads);
    let streamed: Vec<Vec<Op>> = w.cursors().into_iter().map(Iterator::collect).collect();
    assert_eq!(streamed, threads);
}
