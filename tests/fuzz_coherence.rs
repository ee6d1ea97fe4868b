//! Randomized whole-system fuzzing: random (but well-formed) multithreaded
//! programs are executed under every protocol with full coherence-invariant
//! validation, and cross-protocol conservation laws are checked.
//!
//! The inputs are driven by the workspace's own deterministic PRNG
//! (`spcp::sim::DetRng`) instead of an external property-testing crate, so
//! the suite runs fully offline and every case is addressable by its seed:
//! a failure report names the exact case to replay. Cases previously
//! recorded in `fuzz_coherence.proptest-regressions` are replayed as
//! explicit tests at the bottom of the file.

use spcp::mem::Addr;
use spcp::sim::DetRng;
use spcp::sync::{LockId, StaticSyncId, SyncPoint};
use spcp::system::{CmpSystem, MachineConfig, PredictorKind, ProtocolKind, RunConfig, RunStats};
use spcp::workloads::{Op, Workload};

/// Cases per randomized test (the former proptest case count).
const CASES: u64 = 24;
/// Base seed, xored with the per-test salt and case number.
const FUZZ_SEED: u64 = 0x5bcb_f00d;

/// One generated action inside an epoch.
#[derive(Debug, Clone)]
enum Action {
    Load(u8),
    Store(u8),
    /// Critical section on one of 4 locks with a few accesses inside.
    Critical(u8, u8),
}

fn random_action(rng: &mut DetRng) -> Action {
    match rng.index(3) {
        0 => Action::Load(rng.range(0, 32) as u8),
        1 => Action::Store(rng.range(0, 32) as u8),
        _ => Action::Critical(rng.range(0, 4) as u8, rng.range(1, 5) as u8),
    }
}

/// A program: per-epoch, per-thread action lists; all threads share the
/// same barrier skeleton. 1–3 epochs of 0–11 actions per thread, mirroring
/// the former proptest strategy.
fn random_program(rng: &mut DetRng, threads: usize) -> Vec<Vec<Vec<Action>>> {
    let epochs = rng.range(1, 4) as usize;
    (0..epochs)
        .map(|_| {
            (0..threads)
                .map(|_| {
                    let n = rng.range(0, 12) as usize;
                    (0..n).map(|_| random_action(rng)).collect()
                })
                .collect()
        })
        .collect()
}

/// Per-case RNG: every (test, case) pair gets an independent stream.
fn case_rng(test_salt: u64, case: u64) -> DetRng {
    DetRng::seeded(FUZZ_SEED ^ test_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

/// Lowers the generated program to op streams. Addresses come from a tiny
/// shared pool so threads genuinely collide.
fn lower(program: &[Vec<Vec<Action>>], threads: usize) -> Workload {
    let mut streams: Vec<Vec<Op>> = vec![Vec::new(); threads];
    for (e, epoch) in program.iter().enumerate() {
        for (t, stream) in streams.iter_mut().enumerate() {
            stream.push(Op::Sync(SyncPoint::barrier(StaticSyncId::new(
                e as u32 + 1,
            ))));
            for action in &epoch[t] {
                match *action {
                    Action::Load(b) => stream.push(Op::Load {
                        addr: Addr::new(b as u64 * 64),
                        pc: 0x100 + b as u32,
                    }),
                    Action::Store(b) => stream.push(Op::Store {
                        addr: Addr::new(b as u64 * 64),
                        pc: 0x200 + b as u32,
                    }),
                    Action::Critical(l, n) => {
                        let lock = LockId::new(l as u32);
                        stream.push(Op::Sync(SyncPoint::lock(lock)));
                        for i in 0..n {
                            let addr = Addr::new(0x4000_0000 + (l as u64 * 16 + i as u64) * 64);
                            if i % 2 == 0 {
                                stream.push(Op::Load { addr, pc: 0x300 });
                            } else {
                                stream.push(Op::Store { addr, pc: 0x304 });
                            }
                        }
                        stream.push(Op::Sync(SyncPoint::unlock(lock)));
                    }
                }
            }
        }
        // Close the program with a final barrier so every epoch ends.
        if e + 1 == program.len() {
            for stream in streams.iter_mut() {
                stream.push(Op::Sync(SyncPoint::barrier(StaticSyncId::new(99))));
            }
        }
    }
    Workload::from_threads("fuzz", streams)
}

fn small_machine() -> MachineConfig {
    let mut m = MachineConfig::paper_16core();
    m.num_cores = 4;
    m.noc = spcp::noc::NocConfig {
        width: 2,
        height: 2,
        ..spcp::noc::NocConfig::default()
    };
    m
}

fn run_validated(w: &Workload, proto: ProtocolKind) -> RunStats {
    CmpSystem::run_workload_validated(w, &RunConfig::new(small_machine(), proto))
}

/// The cross-protocol invariants checked on every program (shared by the
/// randomized sweep and the regression replays).
fn check_protocol_invariants(w: &Workload, ctx: &str) {
    let dir = run_validated(w, ProtocolKind::Directory);
    let bc = run_validated(w, ProtocolKind::Broadcast);
    let sp = run_validated(w, ProtocolKind::Predicted(PredictorKind::sp_default()));
    let mc = run_validated(w, ProtocolKind::MulticastSnoop(PredictorKind::sp_default()));

    // The op stream is protocol-independent.
    assert_eq!(dir.total_ops, bc.total_ops, "{ctx}");
    assert_eq!(dir.total_ops, sp.total_ops, "{ctx}");
    assert_eq!(dir.loads + dir.stores, sp.loads + sp.stores, "{ctx}");

    // Miss totals are timing-dependent for racy programs (a remote store
    // may invalidate between two loads under one protocol but not
    // another), so only bounds hold: every protocol misses at least once
    // per distinct cold block touched, and never more than the number of
    // memory operations.
    let distinct_blocks: std::collections::HashSet<u64> = w
        .threads()
        .iter()
        .flatten()
        .filter_map(|o| o.addr())
        .map(|a| a.block().index())
        .collect();
    for s in [&dir, &bc, &sp, &mc] {
        let total = s.comm_misses + s.noncomm_misses;
        assert!(total >= distinct_blocks.len() as u64, "{ctx}");
        assert!(total <= s.loads + s.stores, "{ctx}");
        assert_eq!(total, s.l2_misses, "{ctx}");
    }

    // Conservation: every communicating miss under prediction either
    // avoided indirection or paid it.
    assert_eq!(
        sp.indirections + sp.pred_sufficient_comm,
        sp.comm_misses,
        "{ctx}"
    );
    assert_eq!(
        mc.indirections + mc.pred_sufficient_comm,
        mc.comm_misses,
        "{ctx}"
    );
    // The baseline always pays.
    assert_eq!(dir.indirections, dir.comm_misses, "{ctx}");
}

/// Every protocol preserves coherence on arbitrary well-formed programs,
/// and they all agree on what the workload *is*.
#[test]
fn protocols_preserve_coherence_on_random_programs() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let program = random_program(&mut rng, 4);
        let w = lower(&program, 4);
        check_protocol_invariants(&w, &format!("case {case}: {program:?}"));
    }
}

/// Determinism: identical runs produce identical statistics.
#[test]
fn random_programs_run_deterministically() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let w = lower(&random_program(&mut rng, 4), 4);
        let cfg = RunConfig::new(
            small_machine(),
            ProtocolKind::Predicted(PredictorKind::sp_default()),
        )
        .recording();
        let a = CmpSystem::run_workload_validated(&w, &cfg);
        let b = CmpSystem::run_workload_validated(&w, &cfg);
        assert_eq!(a.exec_cycles, b.exec_cycles, "case {case}");
        assert_eq!(a.noc.byte_hops, b.noc.byte_hops, "case {case}");
        assert_eq!(a.comm_matrix, b.comm_matrix, "case {case}");
    }
}

/// Thread migration never breaks coherence or the conservation laws, with
/// either signature-tracking mode.
#[test]
fn migration_preserves_coherence() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let w = lower(&random_program(&mut rng, 4), 4);
        let every = rng.range(1, 3);
        let rotation = rng.range(1, 4) as usize;
        let logical = rng.chance(0.5);
        let cfg = RunConfig::new(
            small_machine(),
            ProtocolKind::Predicted(PredictorKind::sp_default()),
        )
        .with_migration(every, rotation, logical);
        let s = CmpSystem::run_workload_validated(&w, &cfg);
        let ctx = format!("case {case} every={every} rotation={rotation} logical={logical}");
        assert_eq!(
            s.indirections + s.pred_sufficient_comm,
            s.comm_misses,
            "{ctx}"
        );
        assert_eq!(s.miss_latency.count(), s.l2_misses, "{ctx}");
    }
}

/// The region filter never suppresses a communicating miss and keeps all
/// conservation laws intact.
#[test]
fn snoop_filter_preserves_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let w = lower(&random_program(&mut rng, 4), 4);
        let cfg = RunConfig::new(
            small_machine(),
            ProtocolKind::Predicted(PredictorKind::sp_default()),
        )
        .with_snoop_filter();
        let s = CmpSystem::run_workload_validated(&w, &cfg);
        assert_eq!(
            s.indirections + s.pred_sufficient_comm,
            s.comm_misses,
            "case {case}"
        );
    }
}

/// The predicted protocol can never lose misses: latency samples cover
/// every L2 miss, and sufficiency never exceeds attempts.
#[test]
fn prediction_accounting_is_consistent() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let w = lower(&random_program(&mut rng, 4), 4);
        let s = run_validated(&w, ProtocolKind::Predicted(PredictorKind::sp_default()));
        assert_eq!(s.miss_latency.count(), s.l2_misses, "case {case}");
        assert!(s.pred_sufficient >= s.pred_sufficient_comm, "case {case}");
        assert!(s.predictions >= s.pred_insufficient, "case {case}");
        assert_eq!(
            s.predictions,
            s.pred_sufficient + s.pred_insufficient,
            "case {case}"
        );
        assert_eq!(s.comm_miss_latency.count(), s.comm_misses, "case {case}");
    }
}

/// The runtime invariant layer (directory/cache agreement, NoC accounting,
/// epoch-volume conservation after every transaction) accepts arbitrary
/// well-formed programs under every protocol engine — at every cache
/// associativity. Each case draws L1 and L2 associativities from
/// {1, 2, 4, 8} so the SoA way layout (bitmask lanes, packed tag scans,
/// stamp eviction) is audited off the paper's default geometry too.
#[test]
fn random_programs_pass_runtime_audits() {
    if !spcp::system::invariants_compiled() {
        // Release build without `--features invariants`: the audit layer
        // is compiled out and there is nothing to exercise.
        return;
    }
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let program = random_program(&mut rng, 4);
        let w = lower(&program, 4);
        // 16 KB L1 and 1 MB L2 divide evenly at every width, so only the
        // way count (and thus set count) changes, never capacity.
        let mut machine = small_machine();
        machine.l1.assoc = *rng.pick(&[1usize, 2, 4, 8]);
        machine.l2.assoc = *rng.pick(&[1usize, 2, 4, 8]);
        for proto in [
            ProtocolKind::Directory,
            ProtocolKind::Broadcast,
            ProtocolKind::Predicted(PredictorKind::sp_default()),
            ProtocolKind::MulticastSnoop(PredictorKind::sp_default()),
        ] {
            let cfg = RunConfig::new(machine.clone(), proto);
            if let Err(v) = CmpSystem::run_workload_checked(&w, &cfg) {
                panic!(
                    "case {case} (l1 assoc {}, l2 assoc {}): {v}\nprogram: {program:?}",
                    machine.l1.assoc, machine.l2.assoc
                );
            }
        }
    }
}

/// Audited runs produce the same statistics as unaudited runs: the
/// invariant layer observes, never perturbs.
#[test]
fn runtime_audits_do_not_perturb_results() {
    if !spcp::system::invariants_compiled() {
        return;
    }
    for case in 0..4 {
        let mut rng = case_rng(7, case);
        let w = lower(&random_program(&mut rng, 4), 4);
        let cfg = RunConfig::new(
            small_machine(),
            ProtocolKind::Predicted(PredictorKind::sp_default()),
        )
        .recording();
        let plain = CmpSystem::run_workload(&w, &cfg);
        let checked = CmpSystem::run_workload_checked(&w, &cfg).expect("clean program");
        assert_eq!(plain.exec_cycles, checked.exec_cycles, "case {case}");
        assert_eq!(plain.noc.byte_hops, checked.noc.byte_hops, "case {case}");
        assert_eq!(plain.comm_matrix, checked.comm_matrix, "case {case}");
    }
}

// ---------------- Recorded regressions ----------------
//
// Explicit replays of the cases proptest once minimized into
// `fuzz_coherence.proptest-regressions`. Kept as plain tests so the
// counterexamples stay pinned forever, independent of any fuzzing
// framework.

/// Regression: one epoch where only threads 1 and 2 touch memory — thread 1
/// re-loads block 2 after thread 2 stores to it. Minimized by proptest from
/// a cross-protocol miss-accounting failure.
#[test]
fn regression_reload_after_remote_store() {
    let program: Vec<Vec<Vec<Action>>> = vec![vec![
        vec![],
        vec![
            Action::Load(2),
            Action::Load(3),
            Action::Load(4),
            Action::Load(0),
            Action::Load(2),
        ],
        vec![Action::Store(2)],
        vec![],
    ]];
    let w = lower(&program, 4);
    check_protocol_invariants(&w, "regression_reload_after_remote_store");
}
