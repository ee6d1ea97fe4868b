//! Golden-snapshot regression tests: 12 benchmarks × 4 protocols at the
//! fixed figure seed on the paper's 16-core machine, plus one 64-core
//! snapshot (`mesh64`: trimmed lock and barrier benchmarks ×
//! {dir, bc, sp, mc} on an 8×8 mesh, the broadcast and two-phase
//! multicast-snoop fan-out at the core-count cap) and one snapshot of the
//! region snoop filter (`snoop_filter`: SP with the filter on), all under
//! `tests/golden/`. Any change to simulator behavior shows up as a precise
//! line diff. The streamed (spooled-to-disk) sweep path must reproduce
//! every golden byte for byte.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_regression
//! ```
//!
//! To add a benchmark without touching existing snapshots, regenerate
//! only its own file: `UPDATE_GOLDEN=1 cargo test --test
//! golden_regression golden_<bench>`.

use std::path::PathBuf;

use spcp::harness::{golden, RunMatrix, StreamConfig, SweepEngine};
use spcp::noc::NocConfig;
use spcp::system::{MachineConfig, PredictorKind, ProtocolKind};
use spcp::workloads::{suite, BenchmarkSpec};

const GOLDEN_BENCHES: [&str; 12] = [
    "fft",
    "lu",
    "x264",
    "radix",
    "ocean",
    "streamcluster",
    "bodytrack",
    "fluidanimate",
    "raytrace",
    "vips",
    "ferret",
    "dedup",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_matrix(bench: &str) -> RunMatrix {
    RunMatrix::new()
        .bench(suite::by_name(bench).expect("known benchmark"))
        .protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .protocol("uni", ProtocolKind::Predicted(PredictorKind::Uni))
}

/// The benchmark cut to one iteration of the first three epochs of its
/// first phase.
fn first_epochs_once(mut spec: BenchmarkSpec) -> BenchmarkSpec {
    spec.phases.truncate(1);
    spec.phases[0].epochs.truncate(3);
    spec.phases[0].iterations = 1;
    spec
}

/// The 64-core snapshot: an 8×8 mesh running a lock benchmark (vips) and a
/// barrier benchmark (bodytrack), each trimmed to three epochs of its first
/// phase so the debug-mode suite stays fast, under dir, bc, sp and mc
/// (multicast snooping: probes the predicted set and the home, then
/// broadcasts when that set misses a target).
fn mesh64_matrix() -> RunMatrix {
    let mut machine = MachineConfig::paper_16core();
    machine.num_cores = 64;
    machine.noc = NocConfig {
        width: 8,
        height: 8,
        ..NocConfig::default()
    };
    RunMatrix::new()
        .benches(
            ["vips", "bodytrack"]
                .map(|n| first_epochs_once(suite::by_name(n).expect("known benchmark"))),
        )
        .machine("mesh64", machine)
        .protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .protocol(
            "mc",
            ProtocolKind::MulticastSnoop(PredictorKind::sp_default()),
        )
}

/// The filter-on snapshot: SP with the region snoop filter (§5.3) on a
/// barrier-heavy, a pipeline and a data-parallel benchmark. The filter's
/// region tracker is kept only when the filter is on, so this is the one
/// snapshot that exercises it.
fn snoop_filter_matrix() -> RunMatrix {
    RunMatrix::new()
        .benches(["fft", "x264", "bodytrack"].map(|n| suite::by_name(n).expect("known benchmark")))
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .with_snoop_filter()
}

/// Every snapshot file: its name and the matrix it renders.
fn golden_files() -> Vec<(&'static str, RunMatrix)> {
    let mut files: Vec<(&'static str, RunMatrix)> = GOLDEN_BENCHES
        .iter()
        .map(|&b| (b, golden_matrix(b)))
        .collect();
    files.push(("mesh64", mesh64_matrix()));
    files.push(("snoop_filter", snoop_filter_matrix()));
    files
}

fn check_bench(bench: &str) {
    check_matrix(bench, &golden_matrix(bench));
}

fn check_matrix(name: &str, matrix: &RunMatrix) {
    let result = SweepEngine::new(2).run(matrix);
    assert_eq!(result.runs.len(), matrix.len());
    let rendered = golden::render(&result);
    let path = golden_dir().join(format!("{name}.golden"));
    match golden::check_or_update(&path, &rendered) {
        Ok(updated) => {
            if updated {
                println!("regenerated {}", path.display());
            }
        }
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn golden_fft() {
    check_bench(GOLDEN_BENCHES[0]);
}

#[test]
fn golden_lu() {
    check_bench(GOLDEN_BENCHES[1]);
}

#[test]
fn golden_x264() {
    check_bench(GOLDEN_BENCHES[2]);
}

#[test]
fn golden_radix() {
    check_bench(GOLDEN_BENCHES[3]);
}

#[test]
fn golden_ocean() {
    check_bench(GOLDEN_BENCHES[4]);
}

#[test]
fn golden_streamcluster() {
    check_bench(GOLDEN_BENCHES[5]);
}

#[test]
fn golden_bodytrack() {
    check_bench(GOLDEN_BENCHES[6]);
}

#[test]
fn golden_fluidanimate() {
    check_bench(GOLDEN_BENCHES[7]);
}

#[test]
fn golden_raytrace() {
    check_bench(GOLDEN_BENCHES[8]);
}

#[test]
fn golden_vips() {
    check_bench(GOLDEN_BENCHES[9]);
}

#[test]
fn golden_ferret() {
    check_bench(GOLDEN_BENCHES[10]);
}

#[test]
fn golden_dedup() {
    check_bench(GOLDEN_BENCHES[11]);
}

#[test]
fn golden_mesh64() {
    check_matrix("mesh64", &mesh64_matrix());
}

#[test]
fn golden_snoop_filter() {
    check_matrix("snoop_filter", &snoop_filter_matrix());
}

/// The streamed (write-ahead spool) path reproduces every golden file byte
/// for byte: the same matrix run through `run_streamed` renders from its
/// on-disk records to exactly the snapshot the in-memory path produced.
#[test]
fn streamed_path_reproduces_all_goldens() {
    let dir = std::env::temp_dir().join(format!("spcp-golden-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (bench, matrix) in golden_files() {
        let path = golden_dir().join(format!("{bench}.golden"));
        let stored = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            // Missing files are reported by the per-bench tests (or being
            // created right now under UPDATE_GOLDEN=1); don't double-fail.
            Err(_) => continue,
        };
        let spool = dir.join(bench);
        let streamed = SweepEngine::new(2)
            .run_streamed(&matrix, &StreamConfig::new(&spool))
            .expect("streamed sweep");
        let rendered = streamed.render_golden().expect("replay spool");
        assert_eq!(rendered, stored, "{bench}: streamed render diverges");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The golden files themselves stay well-formed: header line, one `[run …]`
/// block per matrix cell, only `field = integer` payload lines.
#[test]
fn golden_files_are_well_formed() {
    for (bench, matrix) in golden_files() {
        let path = golden_dir().join(format!("{bench}.golden"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            // Missing files are reported by the per-bench tests (or being
            // created right now under UPDATE_GOLDEN=1); don't double-fail.
            Err(_) => continue,
        };
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(golden::GOLDEN_HEADER), "{bench}");
        let mut run_blocks = 0;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if line.starts_with("[run ") && line.ends_with(']') {
                run_blocks += 1;
                continue;
            }
            let (field, value) = line.split_once(" = ").unwrap_or_else(|| {
                panic!("{bench}: malformed line {line:?}");
            });
            assert!(!field.is_empty(), "{bench}");
            assert!(
                value.chars().all(|c| c.is_ascii_digit()),
                "{bench}: non-integer value in {line:?}"
            );
        }
        assert_eq!(
            run_blocks,
            matrix.len(),
            "{bench}: expected one block per matrix cell"
        );
    }
}
