//! Micro-benchmarks of the core data structures: predictor operations (the
//! per-miss and per-sync-point costs the paper's §5.5 power argument rests
//! on), cache lookups, NoC routing, the trace codec and the race analyzer.
//!
//! Uses the dependency-free `spcp_bench::timing` runner so the workspace
//! builds offline. Run with `cargo bench -p spcp-bench --bench components`.

use std::hint::black_box;

use spcp_baselines::{AddrPredictor, GroupEntry, InstPredictor, UniPredictor};
use spcp_bench::timing;
use spcp_core::{
    AccessKind, CommCounters, MissInfo, PredictionOutcome, SpConfig, SpPredictor, SpTable,
    TargetPredictor,
};
use spcp_mem::{BlockAddr, CacheConfig, SetAssocCache};
use spcp_noc::{Fabric, Mesh, MsgKind, NocConfig};
use spcp_sim::{CoreId, CoreSet, Cycle};
use spcp_sync::{EpochId, StaticSyncId, SyncKind, SyncPoint};
use spcp_system::{CmpSystem, MachineConfig, ProtocolKind, RunConfig};
use spcp_trace::TraceEvent;

fn miss(i: u64) -> MissInfo {
    MissInfo::new(
        BlockAddr::from_index(i),
        (i as u32 % 64) * 4,
        AccessKind::Read,
    )
}

fn bench_sp_predictor() {
    timing::group("sp_predictor");
    // The SP-table is touched only on sync-points; misses hit a register.
    {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        p.on_sync_point(SyncPoint::barrier(StaticSyncId::new(1)), None);
        let mut i = 0u64;
        timing::bench("predict_per_miss", || {
            i += 1;
            black_box(p.predict(&miss(i)))
        });
    }
    {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        p.on_sync_point(SyncPoint::barrier(StaticSyncId::new(1)), None);
        let outcome = PredictionOutcome {
            actual: CoreSet::from_bits(0b10),
            predicted: CoreSet::from_bits(0b10),
            sufficient: true,
        };
        let mut i = 0u64;
        timing::bench("train_per_miss", || {
            i += 1;
            p.train(&miss(i), black_box(outcome));
        });
    }
    {
        let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
        let mut i = 0u32;
        timing::bench("sync_point_transition", || {
            i = (i + 1) % 30;
            p.on_sync_point(SyncPoint::barrier(StaticSyncId::new(i)), None);
        });
    }
}

fn bench_sp_table() {
    timing::group("sp_table");
    let id = |i: u32| EpochId {
        kind: SyncKind::Barrier,
        static_id: StaticSyncId::new(i),
    };
    {
        let mut t = SpTable::new(2, None);
        let mut i = 0u32;
        timing::bench("store", || {
            i = (i + 1) % 30;
            t.store(id(i), CoreSet::from_bits(i as u64));
        });
    }
    {
        let mut t = SpTable::new(2, None);
        for i in 0..30 {
            t.store(id(i), CoreSet::from_bits(i as u64));
        }
        let mut i = 0u32;
        timing::bench("history_lookup", || {
            i = (i + 1) % 30;
            black_box(t.history(id(i)).is_some())
        });
    }
}

fn bench_comm_counters() {
    timing::group("comm_counters");
    {
        let mut counters = CommCounters::new(16);
        let mut i = 0usize;
        timing::bench("record", || {
            i = (i + 1) % 16;
            counters.record(CoreId::new(i));
        });
    }
    {
        let mut counters = CommCounters::new(16);
        for i in 0..16 {
            for _ in 0..(i * 7 % 40) {
                counters.record(CoreId::new(i));
            }
        }
        timing::bench("hot_set_extraction", || {
            black_box(counters.hot_set(0.10, None))
        });
    }
}

fn bench_comparison_predictors() {
    timing::group("baseline_predictors");
    let outcome = PredictionOutcome {
        actual: CoreSet::from_bits(0b100),
        predicted: CoreSet::empty(),
        sufficient: false,
    };
    {
        let mut p = AddrPredictor::unlimited(CoreId::new(0), 16);
        let mut i = 0u64;
        timing::bench("addr_predict_and_train", || {
            i += 1;
            let m = miss(i % 4096);
            black_box(p.predict(&m));
            p.train(&m, outcome);
        });
    }
    {
        let mut p = InstPredictor::unlimited(CoreId::new(0), 16);
        let mut i = 0u64;
        timing::bench("inst_predict_and_train", || {
            i += 1;
            let m = miss(i % 4096);
            black_box(p.predict(&m));
            p.train(&m, outcome);
        });
    }
    {
        let mut p = UniPredictor::new(CoreId::new(0), 16);
        let mut i = 0u64;
        timing::bench("uni_predict_and_train", || {
            i += 1;
            let m = miss(i);
            black_box(p.predict(&m));
            p.train(&m, outcome);
        });
    }
    {
        let mut e = GroupEntry::new(16);
        let mut i = 0usize;
        timing::bench("group_entry_train_up", || {
            i = (i + 1) % 16;
            e.train_up(CoreId::new(i));
        });
    }
}

fn bench_cache() {
    timing::group("l2_cache");
    {
        let mut l2: SetAssocCache<u8> = SetAssocCache::new(CacheConfig::l2_1mb());
        for i in 0..4096 {
            l2.insert(BlockAddr::from_index(i), 0);
        }
        let mut i = 0u64;
        timing::bench("hit_lookup", || {
            i = (i + 1) % 4096;
            black_box(l2.lookup(BlockAddr::from_index(i)).is_some())
        });
    }
    {
        let mut l2: SetAssocCache<u8> = SetAssocCache::new(CacheConfig::l1_16kb());
        let mut i = 0u64;
        timing::bench("insert_with_eviction", || {
            i += 1;
            black_box(l2.insert(BlockAddr::from_index(i), 0))
        });
    }
}

fn bench_noc() {
    timing::group("noc");
    {
        let mesh = Mesh::new(4, 4);
        let mut i = 0usize;
        timing::bench("route_computation", || {
            i = (i + 1) % 256;
            black_box(mesh.route(CoreId::new(i / 16), CoreId::new(i % 16)))
        });
    }
    {
        let mut fabric = Fabric::new(NocConfig::default());
        let mut i = 0u64;
        timing::bench("timed_send", || {
            i += 1;
            black_box(fabric.send(
                CoreId::new((i % 16) as usize),
                CoreId::new(((i * 7) % 16) as usize),
                MsgKind::DataResponse,
                Cycle::new(i),
            ))
        });
    }
    // A 64-core broadcast: 63 snoop probes from one source over an 8×8
    // mesh, as one tree walk, from a corner (longest legs) and from the
    // centre (four short row/column fans). The per-message loop is the
    // reference the tree walk reproduces bit for bit.
    let mesh_8x8 = NocConfig {
        width: 8,
        height: 8,
        ..NocConfig::default()
    };
    for (name, src) in [("timed_fanout_corner", 0), ("timed_fanout_centre", 27)] {
        let mut fabric = Fabric::new(mesh_8x8.clone());
        let src = CoreId::new(src);
        let targets = CoreSet::all(64).difference(CoreSet::single(src));
        let mut i = 0u64;
        timing::bench(name, || {
            i += 1;
            let mut latest = Cycle::ZERO;
            fabric.fanout(
                src,
                targets,
                MsgKind::SnoopProbe,
                Cycle::new(i * 64),
                |_, t| latest = latest.max(t),
            );
            black_box(latest)
        });
    }
    {
        let mut fabric = Fabric::new(mesh_8x8);
        let src = CoreId::new(0);
        let targets = CoreSet::all(64).difference(CoreSet::single(src));
        let mut i = 0u64;
        timing::bench("timed_send_x63_corner", || {
            i += 1;
            let mut latest = Cycle::ZERO;
            for dst in targets.iter() {
                latest = latest.max(fabric.send(src, dst, MsgKind::SnoopProbe, Cycle::new(i * 64)));
            }
            black_box(latest)
        });
    }
}

/// `bench`'s trace at seed 7 on `machine` under the directory protocol.
fn real_trace(bench: &str, machine: MachineConfig) -> Vec<TraceEvent> {
    let workload = spcp_workloads::suite::by_name(bench)
        .expect("suite benchmark")
        .generate(machine.num_cores, 7);
    let cfg = RunConfig::new(machine, ProtocolKind::Directory).tracing();
    CmpSystem::run_workload(&workload, &cfg).trace
}

fn mesh_8x8() -> MachineConfig {
    let mut m = MachineConfig::paper_16core();
    m.num_cores = 64;
    m.noc = NocConfig {
        width: 8,
        height: 8,
        ..NocConfig::default()
    };
    m
}

fn bench_codec_pair(label: &str, events: &[TraceEvent]) {
    timing::bench(&format!("write_1k_{label}"), || {
        let mut buf = Vec::with_capacity(64 * 1024);
        spcp_trace::write_trace(&mut buf, events).expect("in-memory write");
        black_box(buf)
    });
    let mut encoded = Vec::new();
    spcp_trace::write_trace(&mut encoded, events).unwrap();
    timing::bench(&format!("read_1k_{label}"), || {
        black_box(spcp_trace::read_trace(encoded.as_slice()).expect("parse"))
    });
}

fn bench_trace_codec() {
    timing::group("trace_codec");
    let misses: Vec<TraceEvent> = (0..1000)
        .map(|i| TraceEvent::Miss {
            core: CoreId::new(i % 16),
            block: spcp_mem::BlockAddr::from_index(i as u64 * 7),
            pc: (i as u32) * 4,
            kind: AccessKind::Read,
            targets: CoreSet::from_bits((i as u64) % 65536),
        })
        .collect();
    bench_codec_pair("events", &misses);
    // Misses and sync points as a run records them: 1000 events from the
    // middle of a lock- and barrier-heavy trace.
    let trace = real_trace("fluidanimate", MachineConfig::paper_16core());
    let mid = trace.len() / 2;
    let mixed = &trace[mid..mid + 1000];
    let syncs = mixed
        .iter()
        .filter(|e| matches!(e, TraceEvent::Sync { .. }))
        .count();
    println!("  (mixed: {syncs} sync points in 1000 events)");
    bench_codec_pair("mixed", mixed);
}

fn bench_race_analysis() {
    timing::group("race_analysis");
    for (name, cores, trace) in [
        (
            "race_16core",
            16,
            real_trace("fluidanimate", MachineConfig::paper_16core()),
        ),
        ("race_64core", 64, real_trace("bodytrack", mesh_8x8())),
    ] {
        println!("  ({name}: {} events)", trace.len());
        timing::bench_samples(name, 10, || spcp_verify::analyze_races(cores, &trace));
    }
}

fn bench_workload_tools() {
    timing::group("workload_tools");
    const SPEC: &str = "benchmark bench
phase 4
  epoch 1 stable 2
    traffic 32 32
    private 8
  epoch 2 random
    cs 0 2 1 4
end
";
    timing::bench("textspec_parse", || {
        black_box(spcp_workloads::textspec::parse_spec(SPEC).expect("valid"))
    });
}

fn bench_flit_network() {
    timing::group("flit_network");
    let mut net = spcp_noc::flit::FlitNetwork::new(&spcp_noc::NocConfig::default());
    let mut delivered = Vec::new();
    let mut i = 0u64;
    timing::bench("step_under_load", || {
        i += 1;
        let src = (i % 16) as usize;
        let dst = ((i * 7) % 16) as usize;
        if src != dst {
            net.inject(CoreId::new(src), CoreId::new(dst), 2, i);
        }
        net.step(&mut delivered);
        delivered.clear();
    });
}

fn main() {
    bench_sp_predictor();
    bench_sp_table();
    bench_comm_counters();
    bench_comparison_predictors();
    bench_cache();
    bench_noc();
    bench_trace_codec();
    bench_race_analysis();
    bench_workload_tools();
    bench_flit_network();
}
