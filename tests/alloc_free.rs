//! Pins the access pipeline's zero-steady-state-allocation property.
//!
//! A counting global allocator measures heap allocations inside
//! `CmpSystem::run_workload` for two runs of the same benchmark that
//! differ only in dynamic length (phase iterations ×1 vs ×4). An uncounted
//! warm-up run of the same machine shape comes first, so both counted runs
//! reuse the thread's spare caches, directory table and NoC, and their
//! setup allocations — stats buffers, predictors, run queues — are
//! identical. The *difference* in allocation counts is then what the extra
//! simulated accesses cost. The flat-table hot path (FlatMap directory,
//! flat link table, RouteIter, ArrivalScratch, CommMatrix) makes that cost
//! ~zero, under the directory protocol and under broadcast snooping, whose
//! every miss runs the snoop fan-out kernel (`Fabric::fanout` /
//! `fanin_untimed`). A second run of the same shape must also allocate no
//! large block: the multi-megabyte cache lanes and the directory table
//! come from the spare, not from the allocator.
//!
//! The trace pipeline is pinned the same way: `write_trace` allocates
//! the same at 1× and 4× the events, and `analyze_races` allocates the
//! same on a 1× and a 4× miss trace over one block set — its state grows
//! with distinct blocks and locks, never with events. Nor does it grow
//! with cores where the trace does not: a miss trace with one core per
//! block allocates no larger block on a 64-core machine than on a
//! 16-core one, beyond the 64 × 64 clock slab itself.
//!
//! Counting is per thread, so the tests can run side by side: only the
//! thread inside a counting window is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spcp_core::AccessKind;
use spcp_mem::BlockAddr;
use spcp_sim::{CoreId, CoreSet};
use spcp_system::{CmpSystem, MachineConfig, PredictorKind, ProtocolKind, RunConfig, RunStats};
use spcp_trace::TraceEvent;
use spcp_workloads::{suite, BenchmarkSpec};

/// Forwards to the system allocator, counting the allocations of the
/// thread that armed it.
struct CountingAlloc;

thread_local! {
    /// Allocations on this thread since it armed counting, if armed.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
    /// Largest single allocation, in bytes, counted since arming.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|a| {
        if let Some(n) = a.get() {
            a.set(Some(n + 1));
            let _ = LARGEST.try_with(|l| l.set(l.get().max(bytes)));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted; returns its result
/// and the count.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LARGEST.with(|l| l.set(0));
    ALLOCS.with(|a| a.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|a| a.take()).expect("armed");
    (out, n)
}

/// Runs `workload` with counting armed only around the simulation itself.
fn counted_run(workload: &spcp_workloads::Workload, cfg: &RunConfig) -> (RunStats, u64) {
    counted(|| CmpSystem::run_workload(workload, cfg))
}

/// The benchmark with every phase's iteration count multiplied by `k`:
/// identical static structure and working set, `k`× the dynamic accesses.
fn scaled(mut spec: BenchmarkSpec, k: u32) -> BenchmarkSpec {
    for p in &mut spec.phases {
        p.iterations *= k;
    }
    spec
}

#[test]
fn steady_state_access_pipeline_does_not_allocate() {
    let ocean = suite::by_name("ocean").expect("known benchmark");
    // Broadcast runs every phase twice rather than ten times: every miss
    // already runs the fan-out on all 16 cores, so the shorter run covers
    // the same per-access code at a fifth of the debug-mode cost.
    let mut ocean_short = ocean.clone();
    for p in &mut ocean_short.phases {
        p.iterations = 2;
    }
    let cores = 16;
    for (protocol, base) in [
        (ProtocolKind::Directory, ocean),
        (ProtocolKind::Broadcast, ocean_short),
    ] {
        let w1 = scaled(base.clone(), 1).generate(cores, 7);
        let w4 = scaled(base, 4).generate(cores, 7);
        let cfg = RunConfig::new(MachineConfig::paper_16core(), protocol.clone());

        // Warm-up: leaves this thread a spare machine of the same shape, so
        // neither counted run pays for building one.
        CmpSystem::run_workload(&w1, &cfg);
        let (s1, a1) = counted_run(&w1, &cfg);
        let (s4, a4) = counted_run(&w4, &cfg);

        assert!(
            s4.total_ops > 2 * s1.total_ops,
            "scaled workload must actually be longer ({} vs {} ops)",
            s4.total_ops,
            s1.total_ops
        );
        let extra_ops = s4.total_ops - s1.total_ops;
        let extra_allocs = a4.saturating_sub(a1);
        eprintln!(
            "{protocol:?}: run x1: {} ops, {} allocs | run x4: {} ops, {} allocs | \
             {} extra allocs over {} extra ops ({:.6} allocs/access)",
            s1.total_ops,
            a1,
            s4.total_ops,
            a4,
            extra_allocs,
            extra_ops,
            extra_allocs as f64 / extra_ops as f64,
        );
        // "Zero steady-state allocations per access": tripling the access
        // count three times over must cost (almost) nothing. The bound of
        // one allocation per 1000 extra accesses leaves room only for rare
        // high-water-mark growth, not any per-access allocation.
        assert!(
            extra_allocs < extra_ops / 1000,
            "{protocol:?}: steady-state pipeline allocates: {extra_allocs} extra \
             allocations for {extra_ops} extra accesses"
        );
    }
}

#[test]
fn reused_machine_allocates_no_large_blocks() {
    const LARGE: usize = 64 << 10;
    let w = suite::by_name("fft")
        .expect("known benchmark")
        .generate(16, 7);
    for protocol in [
        ProtocolKind::Directory,
        ProtocolKind::Predicted(PredictorKind::sp_default()),
    ] {
        let cfg = RunConfig::new(MachineConfig::paper_16core(), protocol.clone());
        // A new thread starts without a spare, so its first run builds.
        let (first, built, second, reused) = std::thread::scope(|s| {
            s.spawn(|| {
                let (first, _) = counted(|| CmpSystem::run_workload(&w, &cfg));
                let built = LARGEST.with(Cell::get);
                let (second, _) = counted(|| CmpSystem::run_workload(&w, &cfg));
                (first, built, second, LARGEST.with(Cell::get))
            })
            .join()
            .expect("counting thread")
        });
        eprintln!("{protocol:?}: largest allocation {built} B built, {reused} B reused");
        assert!(
            built >= LARGE,
            "{protocol:?}: building a machine allocates no large block ({built} B)"
        );
        assert!(
            reused < LARGE,
            "{protocol:?}: a same-shape run allocated a {reused} B block"
        );
        assert_eq!(first.exec_cycles, second.exec_cycles, "{protocol:?}");
    }
}

/// The first `len` events of `trace`, cycled.
fn cycled(trace: &[TraceEvent], len: usize) -> Vec<TraceEvent> {
    trace.iter().cycle().take(len).copied().collect()
}

#[test]
fn trace_writer_allocations_do_not_grow_with_events() {
    let w = suite::by_name("x264")
        .expect("known benchmark")
        .generate(16, 7);
    let cfg = RunConfig::new(MachineConfig::paper_16core(), ProtocolKind::Directory).tracing();
    let trace = CmpSystem::run_workload(&w, &cfg).trace;
    assert!(trace.len() > 10_000, "{} events", trace.len());
    let t1 = cycled(&trace, trace.len());
    let t4 = cycled(&trace, 4 * trace.len());
    let (r1, a1) = counted(|| spcp_trace::write_trace(std::io::sink(), &t1));
    let (r4, a4) = counted(|| spcp_trace::write_trace(std::io::sink(), &t4));
    r1.and(r4).expect("writing to a sink cannot fail");
    eprintln!(
        "write_trace: {} events, {a1} allocs | {} events, {a4} allocs",
        t1.len(),
        t4.len()
    );
    assert_eq!(a1, a4, "write_trace allocates per event");
}

#[test]
fn race_analysis_allocations_grow_with_blocks_not_events() {
    // 16 cores over 500 blocks: miss `k` goes to block `k % 500` from core
    // `k % 16`, so a block's previous miss came from the core four below.
    // Reads forward from that core (read-only pairs, which never race),
    // writes communicate with no one. Each 8000-miss round visits the
    // same (block, core) pairs, so 1x and 4x touch the same state.
    const CORES: usize = 16;
    const BLOCKS: u64 = 500;
    let round: Vec<TraceEvent> = (0..8000u64)
        .map(|k| {
            let core = (k % CORES as u64) as usize;
            let block = k % BLOCKS;
            let write = k % 5 == 0;
            let prev = (core + CORES - 4) % CORES;
            TraceEvent::Miss {
                core: CoreId::new(core),
                block: BlockAddr::from_index(block * 64),
                pc: 0,
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                targets: if write {
                    CoreSet::empty()
                } else {
                    CoreSet::single(CoreId::new(prev))
                },
            }
        })
        .collect();
    let t4 = cycled(&round, 4 * round.len());
    let (r1, a1) = counted(|| spcp_verify::analyze_races(CORES, &round));
    let (r4, a4) = counted(|| spcp_verify::analyze_races(CORES, &t4));
    assert!(r1.is_clean() && r4.is_clean());
    assert!(
        r4.read_pairs > 3 * r1.read_pairs,
        "{} vs {}",
        r4.read_pairs,
        r1.read_pairs
    );
    eprintln!(
        "analyze_races: {} misses, {a1} allocs | {} misses, {a4} allocs",
        round.len(),
        t4.len()
    );
    assert_eq!(a1, a4, "analyze_races allocates per event");
}

#[test]
fn race_analysis_state_does_not_scale_with_cores() {
    // 20 000 blocks, each missed on by one core (cores 0..16, so the trace
    // is valid at both sizes), the block's second miss a write that
    // invalidates nothing. Only the core count differs between the runs.
    const BLOCKS: u64 = 20_000;
    let trace: Vec<TraceEvent> = (0..2 * BLOCKS)
        .map(|k| {
            let block = k % BLOCKS;
            TraceEvent::Miss {
                core: CoreId::new((block % 16) as usize),
                block: BlockAddr::from_index(block),
                pc: 0,
                kind: if k < BLOCKS {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                targets: CoreSet::empty(),
            }
        })
        .collect();
    let largest = |cores: usize| {
        let (report, _) = counted(|| spcp_verify::analyze_races(cores, &trace));
        assert_eq!(report.misses, 2 * BLOCKS);
        LARGEST.with(Cell::get)
    };
    let (at16, at64) = (largest(16), largest(64));
    let clock_slab = 64 * 64 * std::mem::size_of::<u64>();
    eprintln!("analyze_races: largest allocation {at16} B at 16 cores, {at64} B at 64 cores");
    assert!(
        at64 <= at16.max(clock_slab),
        "64 cores allocated a {at64} B block, 16 cores at most {at16} B"
    );
}
