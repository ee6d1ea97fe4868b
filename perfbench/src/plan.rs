//! The four workloads: which cells each runs and how.
//!
//! Why each exists is in `perfbench/README.md`.

use spcp_harness::RunMatrix;
use spcp_noc::fabric::NocConfig;
use spcp_system::{MachineConfig, PredictorKind, ProtocolKind};
use spcp_workloads::{suite, BenchmarkSpec, Phase};

/// Consecutive workload seeds `farm_tiny` sweeps, starting at `--seed`.
pub const FARM_SEEDS: u64 = 50;

/// Passes a run makes even when they take longer than `--seconds`.
pub const MIN_PASSES: usize = 2;

/// Simulated operations the per-pass trace slice covers at least, on the
/// workloads that do not trace every cell.
pub const SLICE_OPS: u64 = 250_000;

/// One workload of the benchmark.
pub struct Plan {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// The cells, never recording: the spool and resume stages stream it.
    pub matrix: RunMatrix,
    /// Every cell runs with epoch recording and trace collection.
    pub traced_cells: bool,
    /// Cells execute inside `SweepEngine::run_streamed` (which generates
    /// each cell's inputs itself) instead of the benchmark's own loop.
    pub streamed: bool,
    /// Percentile of `cell_ns_per_op_tail`: the highest with at least ten
    /// cell samples beyond it at [`MIN_PASSES`], fixed per workload so a
    /// run with more passes reports the same percentile.
    pub tail_pct: f64,
}

fn sp() -> ProtocolKind {
    ProtocolKind::Predicted(PredictorKind::sp_default())
}

fn dir_bc_sp(m: RunMatrix) -> RunMatrix {
    m.protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", sp())
}

/// The benchmark cut to one instance of its first epoch.
fn first_epoch_once(mut spec: BenchmarkSpec) -> BenchmarkSpec {
    let epoch = spec.phases[0].epochs[0].clone();
    spec.phases = vec![Phase::new(vec![epoch], 1)];
    spec
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

/// Cell samples a pass yields: one per benchmark and protocol.
fn samples_per_pass(matrix: &RunMatrix) -> usize {
    let specs = matrix.expand();
    specs
        .windows(2)
        .filter(|w| {
            w[0].bench.name != w[1].bench.name || w[0].protocol_label != w[1].protocol_label
        })
        .count()
        + 1
}

/// The highest percentile with at least ten of `samples` beyond it.
fn tail_for(samples: usize) -> f64 {
    (1000.0 * (1.0 - 10.0 / samples as f64)).floor() / 10.0
}

impl Plan {
    /// The workload called `name` at workload seed `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Plan> {
        let (name, matrix, traced_cells, streamed) = match name {
            "paper16" => (
                "paper16",
                dir_bc_sp(RunMatrix::new().benches(suite::all())),
                false,
                false,
            ),
            "mesh64" => (
                "mesh64",
                dir_bc_sp(
                    RunMatrix::new()
                        .benches(
                            ["vips", "dedup", "ferret", "bodytrack"]
                                .map(|n| suite::by_name(n).expect("suite benchmark")),
                        )
                        .machine("mesh64", mesh_8x8()),
                ),
                false,
                false,
            ),
            "trace16" => (
                "trace16",
                RunMatrix::new()
                    .benches(suite::all())
                    .protocol("dir", ProtocolKind::Directory)
                    .protocol("sp", sp()),
                true,
                false,
            ),
            "farm_tiny" => (
                "farm_tiny",
                RunMatrix::new()
                    .benches(suite::all().into_iter().map(first_epoch_once))
                    .protocol("dir", ProtocolKind::Directory)
                    .protocol("sp", sp()),
                false,
                true,
            ),
            _ => return None,
        };
        let seeds: Vec<u64> = if name == "farm_tiny" {
            (0..FARM_SEEDS).map(|i| seed.wrapping_add(i)).collect()
        } else {
            vec![seed]
        };
        let matrix = matrix.seeds(&seeds);
        Some(Plan {
            name,
            tail_pct: tail_for(samples_per_pass(&matrix) * MIN_PASSES),
            matrix,
            traced_cells,
            streamed,
        })
    }
}
