//! Cross-crate integration tests: whole-system runs spanning workloads,
//! protocols and predictors, asserting the paper's qualitative shapes.

use spcp::system::{
    CmpSystem, MachineConfig, OracleBook, PredictorKind, ProtocolKind, RunConfig, RunStats,
};
use spcp::workloads::suite;

fn machine() -> MachineConfig {
    MachineConfig::paper_16core()
}

fn run(name: &str, proto: ProtocolKind) -> RunStats {
    let w = suite::by_name(name)
        .expect("known benchmark")
        .generate(16, 7);
    CmpSystem::run_workload(&w, &RunConfig::new(machine(), proto))
}

#[test]
fn validated_runs_for_every_protocol_and_a_mix_of_benchmarks() {
    for name in ["x264", "radix", "water-ns"] {
        let w = suite::by_name(name).unwrap().generate(16, 7);
        for proto in [
            ProtocolKind::Directory,
            ProtocolKind::Broadcast,
            ProtocolKind::Predicted(PredictorKind::sp_default()),
            ProtocolKind::Predicted(PredictorKind::Uni),
        ] {
            let s = CmpSystem::run_workload_validated(&w, &RunConfig::new(machine(), proto));
            assert!(s.exec_cycles > 0, "{name}");
            assert!(s.l2_misses > 0, "{name}");
        }
    }
}

#[test]
fn whole_pipeline_is_deterministic_per_seed() {
    // Recording, so the communication matrices hold something to compare.
    let cfg = RunConfig::new(
        machine(),
        ProtocolKind::Predicted(PredictorKind::sp_default()),
    )
    .recording();
    let ferret = || suite::by_name("ferret").unwrap().generate(16, 7);
    let a = CmpSystem::run_workload(&ferret(), &cfg);
    let b = CmpSystem::run_workload(&ferret(), &cfg);
    assert!(a.comm_matrix.total() > 0);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.noc.byte_hops, b.noc.byte_hops);
    assert_eq!(a.pred_sufficient_comm, b.pred_sufficient_comm);
    assert_eq!(a.comm_matrix, b.comm_matrix);
}

#[test]
fn different_seeds_change_timing_but_not_structure() {
    let spec = suite::by_name("ferret").unwrap();
    let cfg = RunConfig::new(machine(), ProtocolKind::Directory).recording();
    let a = CmpSystem::run_workload(&spec.generate(16, 1), &cfg);
    let b = CmpSystem::run_workload(&spec.generate(16, 2), &cfg);
    // Structure (ops, epochs) identical; random choices differ.
    assert_eq!(a.total_ops, b.total_ops);
    assert_ne!(a.comm_matrix, b.comm_matrix);
}

#[test]
fn sp_lands_between_directory_and_broadcast_on_comm_latency() {
    for name in ["x264", "facesim"] {
        let dir = run(name, ProtocolKind::Directory);
        let bc = run(name, ProtocolKind::Broadcast);
        let sp = run(name, ProtocolKind::Predicted(PredictorKind::sp_default()));
        let (d, b, s) = (
            dir.comm_miss_latency.mean(),
            bc.comm_miss_latency.mean(),
            sp.comm_miss_latency.mean(),
        );
        assert!(b < d, "{name}: broadcast {b} !< directory {d}");
        assert!(s < d, "{name}: SP {s} !< directory {d}");
        assert!(s > b * 0.9, "{name}: SP cannot beat broadcast by much");
        assert!(
            sp.bandwidth() > dir.bandwidth() && sp.bandwidth() < bc.bandwidth(),
            "{name}: bandwidth ordering"
        );
    }
}

#[test]
fn every_communicating_miss_either_indirects_or_was_predicted() {
    for name in ["x264", "fluidanimate", "dedup"] {
        let sp = run(name, ProtocolKind::Predicted(PredictorKind::sp_default()));
        assert_eq!(
            sp.indirections + sp.pred_sufficient_comm,
            sp.comm_misses,
            "{name}"
        );
    }
}

#[test]
fn protocols_agree_on_workload_classification() {
    // The communicating/non-communicating split is a property of the
    // workload + caches, not of the protocol.
    let dir = run("vips", ProtocolKind::Directory);
    let bc = run("vips", ProtocolKind::Broadcast);
    let sp = run("vips", ProtocolKind::Predicted(PredictorKind::sp_default()));
    assert_eq!(dir.comm_misses, bc.comm_misses);
    assert_eq!(dir.comm_misses, sp.comm_misses);
    assert_eq!(dir.noncomm_misses, sp.noncomm_misses);
}

#[test]
fn oracle_bounds_sp_accuracy_from_above() {
    for name in ["bodytrack", "streamcluster"] {
        let w = suite::by_name(name).unwrap().generate(16, 7);
        let rec = CmpSystem::run_workload(
            &w,
            &RunConfig::new(machine(), ProtocolKind::Directory).recording(),
        );
        let book = OracleBook::from_records(&rec.epoch_records, 0.10);
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
        assert!(
            oracle.accuracy() >= sp.accuracy() - 0.05,
            "{name}: oracle {} vs SP {}",
            oracle.accuracy(),
            sp.accuracy()
        );
    }
}

#[test]
fn sp_storage_is_orders_of_magnitude_below_addr() {
    let sp = run("fmm", ProtocolKind::Predicted(PredictorKind::sp_default()));
    let addr = run(
        "fmm",
        ProtocolKind::Predicted(PredictorKind::Addr {
            entries: None,
            macroblock_bytes: 256,
        }),
    );
    assert!(
        sp.predictor_storage_bits * 3 < addr.predictor_storage_bits,
        "SP {} bits !<< ADDR {} bits",
        sp.predictor_storage_bits,
        addr.predictor_storage_bits
    );
}

#[test]
fn high_and_low_sharing_benchmarks_are_ordered() {
    let radix = run("radix", ProtocolKind::Directory);
    let stream = run("streamcluster", ProtocolKind::Directory);
    assert!(radix.comm_ratio() < 0.4, "radix = {}", radix.comm_ratio());
    assert!(
        stream.comm_ratio() > 0.7,
        "streamcluster = {}",
        stream.comm_ratio()
    );
}

#[test]
fn recording_runs_reconcile_with_aggregate_stats() {
    let w = suite::by_name("water-sp").unwrap().generate(16, 7);
    let s = CmpSystem::run_workload(
        &w,
        &RunConfig::new(machine(), ProtocolKind::Directory).recording(),
    );
    let rec_total: u64 = s
        .epoch_records
        .iter()
        .flatten()
        .map(|r| r.total_volume())
        .sum();
    assert_eq!(rec_total, s.comm_matrix.total());
}

#[test]
fn smaller_machine_configs_also_run() {
    use spcp::noc::NocConfig;
    let mut m = machine();
    m.num_cores = 4;
    m.noc = NocConfig {
        width: 2,
        height: 2,
        ..NocConfig::default()
    };
    let w = suite::x264().generate(4, 7);
    let s = CmpSystem::run_workload_validated(
        &w,
        &RunConfig::new(m, ProtocolKind::Predicted(PredictorKind::sp_default())),
    );
    assert!(s.comm_misses > 0);
    assert!(s.accuracy() > 0.2);
}
