//! Lockstep test for per-thread machine reuse.
//!
//! `CmpSystem` keeps the caches, directory and NoC of a thread's last
//! completed run and resets them for the thread's next run of the same
//! shape. This test runs one shuffled sequence of cells on a single thread,
//! so most cells inherit hardware from an earlier cell, and compares every
//! cell's full statistics with the same cell run on a fresh thread, whose
//! spare slot starts empty. The sequence mixes machine shapes (16 and 64
//! cores, two L2 sizes), every protocol family, recording with tracing,
//! the snoop filter, migration with logical tracking, MESI, and a cell
//! that panics mid-run.

use std::panic::{self, AssertUnwindSafe};

use spcp::mem::{Addr, CacheConfig};
use spcp::noc::NocConfig;
use spcp::sim::DetRng;
use spcp::sync::{LockId, SyncPoint};
use spcp::system::{
    CmpSystem, CoherenceVariant, MachineConfig, PredictorKind, ProtocolKind, RunConfig, RunStats,
};
use spcp::workloads::{suite, BenchmarkSpec, Op, Workload};

/// One cell of the sequence.
enum Cell {
    /// A normal run, compared with a fresh-thread run.
    Run(&'static str, Workload, RunConfig),
    /// A run that panics after touching the machine, then a normal run of
    /// the same shape.
    Panics(RunConfig, Workload),
}

/// The benchmark cut to one iteration of the first three epochs of its
/// first phase, so the debug-mode suite stays fast.
fn trimmed(name: &str) -> BenchmarkSpec {
    let mut spec = suite::by_name(name).expect("known benchmark");
    spec.phases.truncate(1);
    spec.phases[0].epochs.truncate(3);
    spec.phases[0].iterations = 1;
    spec
}

fn machine_16(l2_kb: u64) -> MachineConfig {
    let mut m = MachineConfig::paper_16core();
    m.l2 = CacheConfig {
        size_bytes: l2_kb << 10,
        ..CacheConfig::l2_1mb()
    };
    m
}

fn machine_64() -> MachineConfig {
    let mut m = MachineConfig::paper_16core();
    m.num_cores = 64;
    m.noc = NocConfig {
        width: 8,
        height: 8,
        ..NocConfig::default()
    };
    m
}

fn sp() -> ProtocolKind {
    ProtocolKind::Predicted(PredictorKind::sp_default())
}

/// Every protocol family the simulator runs.
fn protocols() -> [(&'static str, ProtocolKind); 7] {
    [
        ("dir", ProtocolKind::Directory),
        ("bc", ProtocolKind::Broadcast),
        ("sp", sp()),
        ("uni", ProtocolKind::Predicted(PredictorKind::Uni)),
        (
            "addr",
            ProtocolKind::Predicted(PredictorKind::Addr {
                entries: None,
                macroblock_bytes: 256,
            }),
        ),
        (
            "inst",
            ProtocolKind::Predicted(PredictorKind::Inst { entries: None }),
        ),
        (
            "mc",
            ProtocolKind::MulticastSnoop(PredictorKind::sp_default()),
        ),
    ]
}

/// A 16-core workload that loads and stores a few hundred blocks, then
/// has thread 0 release a lock it never took, which panics the run.
fn panicking_workload() -> Workload {
    let threads = (0..16u64)
        .map(|t| {
            let mut ops: Vec<Op> = (0..300u64)
                .map(|i| {
                    let addr = Addr::new((i * 16 + t) * 64);
                    if i % 3 == 0 {
                        Op::Store { addr, pc: 7 }
                    } else {
                        Op::Load { addr, pc: 5 }
                    }
                })
                .collect();
            if t == 0 {
                ops.push(Op::Sync(SyncPoint::unlock(LockId::new(99))));
            }
            ops
        })
        .collect();
    Workload::from_threads("panics", threads)
}

/// The mixed cell list, before shuffling.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let fft = trimmed("fft").generate(16, 3);
    let x264 = trimmed("x264").generate(16, 4);
    let bodytrack = trimmed("bodytrack").generate(16, 5);
    for (label, proto) in protocols() {
        for l2_kb in [1024, 256] {
            let cfg = RunConfig::new(machine_16(l2_kb), proto.clone());
            cells.push(Cell::Run(label, fft.clone(), cfg.clone()));
            cells.push(Cell::Run(label, x264.clone(), cfg));
        }
    }
    let vips64 = trimmed("vips").generate(64, 6);
    for (label, proto) in protocols()
        .into_iter()
        .filter(|(label, _)| matches!(*label, "dir" | "mc"))
    {
        cells.push(Cell::Run(
            label,
            vips64.clone(),
            RunConfig::new(machine_64(), proto),
        ));
    }
    let paper = MachineConfig::paper_16core();
    cells.push(Cell::Run(
        "sp recording+tracing",
        bodytrack.clone(),
        RunConfig::new(paper.clone(), sp()).recording().tracing(),
    ));
    cells.push(Cell::Run(
        "sp snoop filter",
        bodytrack.clone(),
        RunConfig::new(paper.clone(), sp()).with_snoop_filter(),
    ));
    cells.push(Cell::Run(
        "sp migration, logical tracking",
        bodytrack.clone(),
        RunConfig::new(paper.clone(), sp()).with_migration(2, 3, true),
    ));
    let mut mesi = paper.clone();
    mesi.variant = CoherenceVariant::Mesi;
    cells.push(Cell::Run(
        "dir mesi",
        x264.clone(),
        RunConfig::new(mesi.clone(), ProtocolKind::Directory),
    ));
    cells.push(Cell::Run("sp mesi", fft, RunConfig::new(mesi, sp())));
    cells.push(Cell::Panics(
        RunConfig::new(paper.clone(), ProtocolKind::Directory),
        x264,
    ));
    cells.push(Cell::Panics(RunConfig::new(paper, sp()), bodytrack));
    cells
}

/// The statistics as one string that differs whenever any field does:
/// the full `Debug` form with both energies also given as raw bits.
fn canonical(stats: RunStats) -> String {
    format!(
        "{stats:?}\nnoc energy bits: {:#x}\nsnoop energy bits: {:#x}",
        stats.noc.energy.to_bits(),
        stats.snoop_energy.to_bits()
    )
}

/// Runs `wl` under `cfg` on a new thread, which starts with no spare.
fn run_on_fresh_thread(wl: &Workload, cfg: &RunConfig) -> String {
    std::thread::scope(|s| {
        s.spawn(|| canonical(CmpSystem::run_workload_validated(wl, cfg)))
            .join()
            .expect("fresh-thread run")
    })
}

#[test]
fn reused_machines_match_fresh_machines_cell_by_cell() {
    let mut sequence = cells();
    // Every cell twice, so most cells run on hardware that an earlier cell
    // of the same shape left behind.
    sequence.extend(cells());
    let mut rng = DetRng::seeded(0x7e05e);
    for i in (1..sequence.len()).rev() {
        sequence.swap(i, rng.index(i + 1));
    }
    let panics = panicking_workload();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut ran = 0;
            let mut check = |i: usize, label: &str, wl: &Workload, cfg: &RunConfig| {
                let reused = canonical(CmpSystem::run_workload_validated(wl, cfg));
                let fresh = run_on_fresh_thread(wl, cfg);
                assert!(
                    reused == fresh,
                    "cell {i} ({label}, {}) differs on a reused machine:\n\
                     reused: {reused}\nfresh:  {fresh}",
                    wl.name()
                );
                ran += 1;
            };
            for (i, cell) in sequence.iter().enumerate() {
                match cell {
                    Cell::Run(label, wl, cfg) => check(i, label, wl, cfg),
                    Cell::Panics(cfg, next) => {
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                            CmpSystem::run_workload(&panics, cfg)
                        }));
                        assert!(outcome.is_err(), "cell {i}: the run must panic");
                        check(i, "after a panic", next, cfg);
                    }
                }
            }
            assert_eq!(ran, sequence.len(), "every cell compares one run");
        })
        .join()
        .expect("reuse sequence");
    });
}
