//! Pins the access pipeline's zero-steady-state-allocation property.
//!
//! A counting global allocator measures heap allocations inside
//! `CmpSystem::run_workload` for two runs of the same benchmark that
//! differ only in dynamic length (phase iterations ×1 vs ×4). Setup
//! allocations — caches, the directory's flat table growing to its
//! high-water capacity, stats buffers — are identical for both, so the
//! *difference* in allocation counts is what the extra simulated accesses
//! cost. The flat-table hot path (FlatMap directory, flat link table,
//! RouteIter, ArrivalScratch, CommMatrix) makes that cost ~zero, under the
//! directory protocol and under broadcast snooping, whose every miss runs
//! the snoop fan-out kernel (`Fabric::fanout` / `fanin_untimed`).
//!
//! This file holds exactly one test so no sibling test thread allocates
//! inside the counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use spcp_system::{CmpSystem, MachineConfig, ProtocolKind, RunConfig, RunStats};
use spcp_workloads::{suite, BenchmarkSpec};

/// Forwards to the system allocator, counting allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `workload` with counting armed only around the simulation itself.
fn counted_run(workload: &spcp_workloads::Workload, cfg: &RunConfig) -> (RunStats, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let stats = CmpSystem::run_workload(workload, cfg);
    ARMED.store(false, Ordering::SeqCst);
    (stats, ALLOCS.load(Ordering::SeqCst))
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
