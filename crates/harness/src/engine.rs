//! The parallel sweep engine: fans a run matrix out over a scoped worker
//! pool and hands every finished run to a sink.
//!
//! There is one pool (`pool`). Workers claim specs through a shared
//! cursor, execute them, and hand each finished [`RunRecord`] to their own
//! sink: an in-memory buffer for [`SweepEngine::run_specs`], a spool shard
//! writer for [`SweepEngine::run_streamed`]. Either way a finished sweep is
//! read back through [`Replay`], one run at a time in canonical order.
//!
//! Determinism contract: each run is an isolated single-threaded simulation
//! keyed only by its [`RunSpec`], and every report is rebuilt in
//! `RunSpec::index` order. Worker count and OS scheduling therefore affect
//! wall-clock time only — never a single bit of the statistics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spcp_system::RunStats;

use crate::matrix::{RunMatrix, RunSpec};
use crate::record::RunRecord;
use crate::spool::SpoolError;

/// Outcome of one run: stats plus the engine's own timing metadata.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that produced this result.
    pub spec: RunSpec,
    /// The run's statistics.
    pub stats: RunStats,
    /// Wall-clock time this single run took.
    pub wall: Duration,
    /// Which worker slot executed the run (informational only).
    pub worker: usize,
}

/// All results of one sweep, in canonical matrix order.
#[derive(Debug)]
pub struct SweepResult {
    /// Per-run results, ordered by `RunSpec::index`.
    pub runs: Vec<RunResult>,
    /// Wall-clock time for the whole sweep.
    pub elapsed: Duration,
    /// Worker count the sweep ran with.
    pub jobs: usize,
}

impl SweepResult {
    /// Looks up one run by its matrix coordinates (first machine match).
    pub fn get(&self, bench: &str, protocol_label: &str, seed: u64) -> Option<&RunResult> {
        self.runs.iter().find(|r| {
            r.spec.bench.name == bench
                && r.spec.protocol_label == protocol_label
                && r.spec.seed == seed
        })
    }

    /// Looks up one run by its full matrix coordinates, including machine.
    pub fn get_on(
        &self,
        bench: &str,
        protocol_label: &str,
        seed: u64,
        machine_label: &str,
    ) -> Option<&RunResult> {
        self.runs.iter().find(|r| {
            r.spec.bench.name == bench
                && r.spec.protocol_label == protocol_label
                && r.spec.seed == seed
                && r.spec.machine_label == machine_label
        })
    }

    /// Looks up one run by bench, protocol, seed and variant label (any
    /// machine). The neutral default variant has the empty label.
    pub fn get_variant(
        &self,
        bench: &str,
        protocol_label: &str,
        seed: u64,
        variant_label: &str,
    ) -> Option<&RunResult> {
        self.runs.iter().find(|r| {
            r.spec.bench.name == bench
                && r.spec.protocol_label == protocol_label
                && r.spec.seed == seed
                && r.spec.variant.label == variant_label
        })
    }

    /// All runs under the given protocol label, in canonical matrix order.
    pub fn by_protocol(&self, label: &str) -> Vec<&RunResult> {
        self.runs
            .iter()
            .filter(|r| r.spec.protocol_label == label)
            .collect()
    }

    /// Sum of per-run wall times: the serial-equivalent workload.
    pub fn busy_time(&self) -> Duration {
        self.runs.iter().map(|r| r.wall).sum()
    }

    /// Observed parallel speedup: busy time over elapsed time.
    ///
    /// ≈1.0 at `--jobs 1`; approaches the worker count when runs are
    /// well-balanced and cores are available.
    pub fn speedup(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            return 1.0;
        }
        self.busy_time().as_secs_f64() / elapsed
    }

    /// Simulated memory operations retired per wall-clock second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let ops: u64 = self.runs.iter().map(|r| r.stats.total_ops).sum();
        ops as f64 / elapsed
    }

    /// One-line timing report, e.g. for bench binaries.
    pub fn timing_line(&self) -> String {
        format!(
            "{} runs | jobs={} | wall {:.2}s | busy {:.2}s | speedup {:.2}x | {:.0} ops/s",
            self.runs.len(),
            self.jobs,
            self.elapsed.as_secs_f64(),
            self.busy_time().as_secs_f64(),
            self.speedup(),
            self.throughput_ops_per_sec(),
        )
    }
}

/// A finished sweep read back one run at a time in canonical matrix
/// order: from memory ([`SweepResult`]) or from spool shards
/// ([`crate::StreamedSweep`]). Every report is one fold over it.
pub trait Replay {
    /// Calls `f` once per run with its spec, statistics and wall time.
    ///
    /// # Errors
    ///
    /// Spool failures of a streamed sweep; an in-memory one never fails.
    fn replay(&self, f: &mut dyn FnMut(&RunSpec, &RunStats, Duration)) -> Result<(), SpoolError>;
}

impl Replay for SweepResult {
    fn replay(&self, f: &mut dyn FnMut(&RunSpec, &RunStats, Duration)) -> Result<(), SpoolError> {
        for r in &self.runs {
            f(&r.spec, &r.stats, r.wall);
        }
        Ok(())
    }
}

/// A fixed-width worker pool that executes [`RunMatrix`] sweeps.
///
/// # Examples
///
/// ```
/// use spcp_harness::{RunMatrix, SweepEngine};
/// use spcp_system::ProtocolKind;
/// use spcp_workloads::suite;
///
/// let matrix = RunMatrix::new()
///     .bench(suite::by_name("fft").unwrap())
///     .protocol("dir", ProtocolKind::Directory);
/// let result = SweepEngine::new(2).run(&matrix);
/// assert_eq!(result.runs.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepEngine {
    jobs: usize,
}

impl SweepEngine {
    /// An engine with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        SweepEngine { jobs: jobs.max(1) }
    }

    /// An engine sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepEngine::new(jobs)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Expands and executes a matrix.
    pub fn run(&self, matrix: &RunMatrix) -> SweepResult {
        self.run_specs(matrix.expand())
    }

    /// Executes pre-expanded specs (their `index` fields define result
    /// order; they need not be contiguous).
    pub fn run_specs(&self, mut specs: Vec<RunSpec>) -> SweepResult {
        let started = Instant::now();
        let jobs = self.workers(specs.len());
        let mut done: Vec<Vec<RunRecord>> = vec![Vec::new(); jobs];
        let claims: Vec<&RunSpec> = specs.iter().collect();
        let sinks = done.iter_mut().map(|buf| {
            move |rec| {
                buf.push(rec);
                Ok(())
            }
        });
        pool(&claims, sinks.collect()).expect("in-memory sinks cannot fail");

        // Each buffer holds its worker's runs; index order is canonical.
        let mut records: Vec<RunRecord> = done.into_iter().flatten().collect();
        records.sort_unstable_by_key(|r| r.index);
        specs.sort_by_key(|s| s.index);
        let runs = specs
            .into_iter()
            .zip(records)
            .map(|(spec, rec)| RunResult {
                spec,
                stats: rec.stats,
                wall: rec.wall,
                worker: rec.worker,
            })
            .collect();
        SweepResult {
            runs,
            elapsed: started.elapsed(),
            jobs,
        }
    }

    /// Workers a sweep of `n` runs uses: `jobs`, but no more than runs
    /// (and at least one).
    pub(crate) fn workers(&self, n: usize) -> usize {
        self.jobs.min(n.max(1))
    }
}

/// The engine's one worker pool: one worker per sink. Workers claim
/// `specs` through a shared cursor, execute them, and hand each finished
/// run to their own sink, so a sink sees its runs in ascending position.
/// Returns the first sink error once every worker has stopped.
pub(crate) fn pool<S>(specs: &[&RunSpec], sinks: Vec<S>) -> Result<(), SpoolError>
where
    S: FnMut(RunRecord) -> Result<(), SpoolError> + Send,
{
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = sinks
            .into_iter()
            .enumerate()
            .map(|(worker, mut sink)| {
                let cursor = &cursor;
                scope.spawn(move || {
                    while let Some(spec) = specs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let t0 = Instant::now();
                        let stats = spec.execute();
                        let wall = t0.elapsed();
                        sink(RunRecord {
                            index: spec.index,
                            id: spec.id(),
                            wall,
                            worker,
                            stats,
                        })?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("sweep worker panicked"))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::golden;
    use spcp_system::ProtocolKind;
    use spcp_workloads::suite;

    /// Everything a report can read of a sweep: its golden render plus
    /// each run's `Debug` text.
    pub(crate) fn report_text(sweep: &dyn Replay) -> String {
        let mut out = golden::render_sweep(sweep).expect("replay");
        sweep
            .replay(&mut |_, stats, _| out.push_str(&format!("{stats:?}\n")))
            .expect("replay");
        out
    }

    fn small_matrix() -> RunMatrix {
        RunMatrix::new()
            .bench(suite::by_name("fft").unwrap())
            .bench(suite::by_name("radix").unwrap())
            .protocol("dir", ProtocolKind::Directory)
            .protocol("bc", ProtocolKind::Broadcast)
    }

    #[test]
    fn results_arrive_in_matrix_order() {
        let result = SweepEngine::new(3).run(&small_matrix());
        assert_eq!(result.runs.len(), 4);
        for (i, r) in result.runs.iter().enumerate() {
            assert_eq!(r.spec.index, i);
        }
        assert!(result.get("fft", "dir", 7).is_some());
        assert!(result.get("fft", "missing", 7).is_none());
        assert!(result.get_on("fft", "dir", 7, "paper16").is_some());
        assert!(result.get_on("fft", "dir", 7, "other").is_none());
        let dirs = result.by_protocol("dir");
        assert_eq!(dirs.len(), 2);
        assert!(dirs.iter().all(|r| r.spec.protocol_label == "dir"));
    }

    #[test]
    fn worker_count_does_not_change_stats() {
        let serial = SweepEngine::new(1).run(&small_matrix());
        let parallel = SweepEngine::new(4).run(&small_matrix());
        assert_eq!(report_text(&serial), report_text(&parallel));
    }

    #[test]
    fn timing_metrics_are_sane() {
        let result = SweepEngine::new(2).run(&small_matrix());
        assert!(result.elapsed > Duration::ZERO);
        assert!(result.busy_time() > Duration::ZERO);
        assert!(result.speedup() > 0.0);
        assert!(result.throughput_ops_per_sec() > 0.0);
        assert!(result.timing_line().contains("jobs=2"));
        assert!(result.runs.iter().all(|r| r.wall > Duration::ZERO));
    }

    #[test]
    fn run_specs_returns_index_order() {
        let mut specs = small_matrix().expand();
        specs.reverse();
        let result = SweepEngine::new(2).run_specs(specs);
        assert!(result
            .runs
            .iter()
            .enumerate()
            .all(|(i, r)| r.spec.index == i));
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(SweepEngine::new(0).jobs(), 1);
    }

    #[test]
    fn empty_spec_list_is_fine() {
        let result = SweepEngine::new(4).run_specs(Vec::new());
        assert!(result.runs.is_empty());
        assert_eq!(
            golden::render(&result),
            format!("{}\n", golden::GOLDEN_HEADER)
        );
    }
}
