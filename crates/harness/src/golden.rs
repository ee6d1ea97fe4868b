//! Golden-snapshot emit/verify for sweep results.
//!
//! Snapshots are a line-based text format (documented in
//! `docs/FORMATS.md`): one `[run …]` header per run followed by
//! `field = value` lines. Only exactly reproducible quantities — integers,
//! integer-derived moments and `f64` energies as their IEEE-754 bit
//! patterns — are snapshotted, so a golden file either matches bit-for-bit
//! or the simulator's behavior changed.
//!
//! Verification reads the file and compares strings; regeneration is gated
//! behind the `UPDATE_GOLDEN=1` environment variable so CI can never
//! silently rewrite its own reference data.

use std::fmt;
use std::fs;
use std::path::Path;

use spcp_system::RunStats;

use crate::engine::{Replay, SweepResult};
use crate::matrix::RunSpec;
use crate::spool::SpoolError;

/// Magic first line of every golden file; bump the version when the field
/// set changes so stale files fail loudly instead of diffing confusingly.
pub const GOLDEN_HEADER: &str = "# spcp golden v2";

/// Renders the snapshot of one run.
pub fn snapshot_run(spec: &RunSpec, stats: &RunStats) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "[run {} {} seed={} machine={} cores={}]\n",
        spec.bench.name, spec.protocol_label, spec.seed, spec.machine_label, spec.machine.num_cores
    ));
    let mut field = |name: &str, value: u128| {
        out.push_str(&format!("{name} = {value}\n"));
    };
    field("total_ops", stats.total_ops as u128);
    field("loads", stats.loads as u128);
    field("stores", stats.stores as u128);
    field("l1_hits", stats.l1_hits as u128);
    field("l2_hits", stats.l2_hits as u128);
    field("l2_misses", stats.l2_misses as u128);
    field("upgrades", stats.upgrades as u128);
    field("comm_misses", stats.comm_misses as u128);
    field("noncomm_misses", stats.noncomm_misses as u128);
    field("exec_cycles", stats.exec_cycles as u128);
    field("miss_latency_sum", stats.miss_latency.sum());
    field("miss_latency_count", stats.miss_latency.count() as u128);
    field("comm_miss_latency_sum", stats.comm_miss_latency.sum());
    field(
        "comm_miss_latency_count",
        stats.comm_miss_latency.count() as u128,
    );
    field("noc_messages", stats.noc.messages as u128);
    field("noc_bytes_injected", stats.noc.bytes_injected as u128);
    field("noc_byte_hops", stats.noc.byte_hops as u128);
    field("noc_ctrl_byte_hops", stats.noc.ctrl_byte_hops as u128);
    field("noc_contention_cycles", stats.noc.contention_cycles as u128);
    field("noc_energy_bits", stats.noc.energy.to_bits() as u128);
    field("snoop_probes", stats.snoop_probes as u128);
    field("snoop_energy_bits", stats.snoop_energy.to_bits() as u128);
    field("predictions", stats.predictions as u128);
    field("pred_sufficient", stats.pred_sufficient as u128);
    field("pred_sufficient_comm", stats.pred_sufficient_comm as u128);
    field("pred_insufficient", stats.pred_insufficient as u128);
    field("indirections", stats.indirections as u128);
    field("predicted_set_sum", stats.predicted_set_sum as u128);
    field("pred_overhead_comm", stats.pred_overhead_comm as u128);
    field("pred_overhead_noncomm", stats.pred_overhead_noncomm as u128);
    field("actual_set_sum", stats.actual_set_sum as u128);
    field(
        "predictor_storage_bits",
        stats.predictor_storage_bits as u128,
    );
    field("filtered_predictions", stats.filtered_predictions as u128);
    field("migrations", stats.migrations as u128);
    out
}

/// Renders a whole in-memory sweep (runs in canonical matrix order).
pub fn render(result: &SweepResult) -> String {
    render_sweep(result).expect("an in-memory sweep replays without I/O")
}

/// Renders any finished sweep, in memory or spooled: the header, then one
/// [`snapshot_run`] block per run in canonical matrix order.
pub fn render_sweep(sweep: &dyn Replay) -> Result<String, SpoolError> {
    let mut out = format!("{GOLDEN_HEADER}\n");
    sweep.replay(&mut |spec, stats, _| {
        out.push('\n');
        out.push_str(&snapshot_run(spec, stats));
    })?;
    Ok(out)
}

/// Why a golden check failed.
#[derive(Debug)]
pub enum GoldenError {
    /// No golden file exists at the path yet.
    Missing {
        /// The expected file location.
        path: String,
    },
    /// The rendered snapshot differs from the stored one.
    Mismatch {
        /// The golden file location.
        path: String,
        /// 1-based line number of the first difference.
        line: usize,
        /// The stored line (empty if the file ended early).
        expected: String,
        /// The freshly rendered line (empty if the render ended early).
        actual: String,
    },
    /// Reading or writing the file failed.
    Io {
        /// The file location.
        path: String,
        /// The underlying error, stringified.
        error: String,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Missing { path } => write!(
                f,
                "golden file {path} does not exist; run with UPDATE_GOLDEN=1 to create it"
            ),
            GoldenError::Mismatch {
                path,
                line,
                expected,
                actual,
            } => write!(
                f,
                "golden mismatch at {path}:{line}\n  golden: {expected}\n  actual: {actual}\n\
                 rerun with UPDATE_GOLDEN=1 to accept the new behavior"
            ),
            GoldenError::Io { path, error } => write!(f, "golden io error at {path}: {error}"),
        }
    }
}

impl std::error::Error for GoldenError {}

/// True when the caller asked to regenerate goldens (`UPDATE_GOLDEN=1`).
pub fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Verifies `rendered` against the golden file at `path`, or rewrites the
/// file when [`update_requested`] is set.
///
/// Returns `Ok(true)` when the file was (re)written, `Ok(false)` when it
/// matched.
pub fn check_or_update(path: &Path, rendered: &str) -> Result<bool, GoldenError> {
    let path_str = path.display().to_string();
    if update_requested() {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| GoldenError::Io {
                path: path_str.clone(),
                error: e.to_string(),
            })?;
        }
        fs::write(path, rendered).map_err(|e| GoldenError::Io {
            path: path_str,
            error: e.to_string(),
        })?;
        return Ok(true);
    }
    let stored = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(GoldenError::Missing { path: path_str })
        }
        Err(e) => {
            return Err(GoldenError::Io {
                path: path_str,
                error: e.to_string(),
            })
        }
    };
    compare(&path_str, &stored, rendered)?;
    Ok(false)
}

/// Line-by-line comparison with a precise first-difference report.
fn compare(path: &str, stored: &str, rendered: &str) -> Result<(), GoldenError> {
    let mut golden_lines = stored.lines();
    let mut fresh_lines = rendered.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (golden_lines.next(), fresh_lines.next()) {
            (None, None) => return Ok(()),
            (g, a) => {
                let g = g.unwrap_or("");
                let a = a.unwrap_or("");
                if g != a {
                    return Err(GoldenError::Mismatch {
                        path: path.to_string(),
                        line,
                        expected: g.to_string(),
                        actual: a.to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use crate::matrix::RunMatrix;
    use spcp_system::ProtocolKind;
    use spcp_workloads::suite;

    fn one_run() -> SweepResult {
        let matrix = RunMatrix::new()
            .bench(suite::by_name("fft").unwrap())
            .protocol("dir", ProtocolKind::Directory);
        SweepEngine::new(1).run(&matrix)
    }

    #[test]
    fn snapshot_has_header_and_run_block() {
        let text = render(&one_run());
        assert!(text.starts_with(GOLDEN_HEADER));
        assert!(text.contains("[run fft dir seed=7 machine=paper16 cores=16]"));
        assert!(text.contains("exec_cycles = "));
        assert!(text.contains("noc_byte_hops = "));
    }

    #[test]
    fn snapshot_is_reproducible() {
        assert_eq!(render(&one_run()), render(&one_run()));
    }

    #[test]
    fn compare_reports_first_divergent_line() {
        let err = compare("x", "a\nb\nc", "a\nB\nc").unwrap_err();
        match err {
            GoldenError::Mismatch {
                line,
                expected,
                actual,
                ..
            } => {
                assert_eq!(line, 2);
                assert_eq!(expected, "b");
                assert_eq!(actual, "B");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn compare_catches_length_differences() {
        assert!(compare("x", "a\nb", "a").is_err());
        assert!(compare("x", "a", "a\nb").is_err());
        assert!(compare("x", "a\nb", "a\nb").is_ok());
    }

    #[test]
    fn missing_file_is_a_missing_error() {
        if update_requested() {
            // Under UPDATE_GOLDEN=1 the call would write instead of verify.
            return;
        }
        let err = check_or_update(Path::new("/nonexistent/dir/g.txt"), "x").unwrap_err();
        assert!(matches!(err, GoldenError::Missing { .. }));
        assert!(err.to_string().contains("UPDATE_GOLDEN=1"));
    }
}
