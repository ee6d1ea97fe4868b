//! Streamed sweep execution: run a matrix with results spooled to disk
//! instead of buffered in memory, with crash-safe resume.
//!
//! [`SweepEngine::run_streamed`] runs the engine's one worker pool with a
//! spool writer as each worker's sink: completed runs are appended to the
//! worker's own shard file ([`crate::spool`]). Aggregation then replays the
//! shards through a bounded-memory merge, so a sweep's peak memory is
//! O(workers + one record per shard) regardless of matrix size.
//!
//! Resume: a re-invocation with [`StreamConfig::resume`] scans the
//! existing shards, treats every run with a complete (checksummed,
//! newline-terminated) record as done, and re-enqueues only the rest.
//! Torn tail records from a crash are discarded by the frame layer, so
//! the affected runs simply run again; determinism makes the re-run
//! records bit-identical to what was lost.

use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use spcp_system::RunStats;

use crate::engine::{pool, Replay, RunResult, SweepEngine, SweepResult};
use crate::golden;
use crate::matrix::{RunMatrix, RunSpec};
use crate::record::{RunRecord, ShardHeader, RECORD_VERSION};
use crate::spool::{self, SpoolError, SpoolMerge, SpoolWriter};

/// Default record count between spool fsyncs.
pub const DEFAULT_FLUSH_EVERY: usize = 32;

/// Where and how a streamed sweep spools its results.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Spool directory (created if missing).
    pub dir: PathBuf,
    /// Records between fsyncs per shard; bounds crash loss.
    pub flush_every: usize,
    /// Continue an interrupted sweep in `dir` instead of requiring it
    /// fresh.
    pub resume: bool,
}

impl StreamConfig {
    /// A fresh-sweep config for `dir` with the default flush interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StreamConfig {
            dir: dir.into(),
            flush_every: DEFAULT_FLUSH_EVERY,
            resume: false,
        }
    }

    /// Sets the fsync interval (records per shard; clamped to ≥ 1).
    pub fn flush_every(mut self, n: usize) -> Self {
        self.flush_every = n.max(1);
        self
    }

    /// Enables resuming an interrupted sweep.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }
}

/// Handle to a completed streamed sweep: the spool directory plus enough
/// metadata to replay it in canonical order.
///
/// Unlike [`SweepResult`] this holds **no** run statistics in memory —
/// every accessor replays the spool through the bounded-memory merge.
#[derive(Debug)]
pub struct StreamedSweep {
    specs: Vec<RunSpec>,
    dir: PathBuf,
    fingerprint: u64,
    /// Runs executed by this invocation.
    pub executed: usize,
    /// Runs skipped because a complete record already existed (resume).
    pub resumed: usize,
    /// Wall-clock time of this invocation's execution phase.
    pub elapsed: Duration,
    /// Worker count the sweep ran with.
    pub jobs: usize,
}

impl SweepEngine {
    /// Runs a matrix with results streamed to a spool directory.
    ///
    /// Fresh mode errors with [`SpoolError::NotEmpty`] if the directory
    /// already holds shards; resume mode scans them, skips complete runs
    /// and executes only the remainder (writing a new shard generation so
    /// every shard file stays sorted by run index).
    pub fn run_streamed(
        &self,
        matrix: &RunMatrix,
        cfg: &StreamConfig,
    ) -> Result<StreamedSweep, SpoolError> {
        let specs = matrix.expand();
        let fingerprint = spool::fingerprint(&specs);
        fs::create_dir_all(&cfg.dir).map_err(|e| SpoolError::Io {
            path: cfg.dir.clone(),
            error: e,
        })?;

        let existing = spool::shard_files(&cfg.dir)?;
        if !existing.is_empty() && !cfg.resume {
            return Err(SpoolError::NotEmpty {
                dir: cfg.dir.clone(),
            });
        }
        let done = scan_done(&existing, &specs, fingerprint)?;
        let remaining: Vec<&RunSpec> = specs.iter().filter(|s| !done.contains(&s.index)).collect();
        let generation = spool::next_generation(&cfg.dir)?;

        let started = Instant::now();
        let header = ShardHeader {
            version: RECORD_VERSION,
            fingerprint,
            specs: specs.len() as u64,
        };
        let jobs = self.workers(remaining.len());
        let mut writers: Vec<SpoolWriter> = (0..jobs)
            .map(|worker| {
                let path = cfg.dir.join(spool::shard_name(generation, worker));
                SpoolWriter::new(path, header.clone(), cfg.flush_every)
            })
            .collect();
        let sinks = writers
            .iter_mut()
            .map(|w| move |rec: RunRecord| w.append(&rec));
        let ran = pool(&remaining, sinks.collect());
        // Sync every shard, even after a failed worker, before reporting.
        let synced = writers.into_iter().try_for_each(SpoolWriter::finish);
        ran.and(synced)?;

        Ok(StreamedSweep {
            executed: remaining.len(),
            resumed: done.len(),
            elapsed: started.elapsed(),
            jobs,
            specs,
            dir: cfg.dir.clone(),
            fingerprint,
        })
    }
}

/// Scans existing shards and returns the indices of runs whose records
/// are complete, validating every record against the matrix.
fn scan_done(
    shards: &[PathBuf],
    specs: &[RunSpec],
    fingerprint: u64,
) -> Result<HashSet<usize>, SpoolError> {
    let mut done = HashSet::new();
    let mut merge = SpoolMerge::open(shards, fingerprint)?;
    while let Some(rec) = merge.next()? {
        let spec = specs.get(rec.index).ok_or_else(|| SpoolError::Corrupt {
            path: shards.first().cloned().unwrap_or_default(),
            detail: format!(
                "record index {} outside the {}-run matrix",
                rec.index,
                specs.len()
            ),
        })?;
        if spec.id() != rec.id {
            return Err(SpoolError::Corrupt {
                path: shards.first().cloned().unwrap_or_default(),
                detail: format!(
                    "record at index {} is '{}' but the matrix expects '{}'",
                    rec.index,
                    rec.id,
                    spec.id()
                ),
            });
        }
        done.insert(rec.index);
    }
    Ok(done)
}

impl StreamedSweep {
    /// The canonical specs this sweep covers.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// The spool directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// The matrix fingerprint stamped into every shard header.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Replays the spool in canonical matrix order, calling `f` once per
    /// run with its spec and record.
    ///
    /// Holds one record per shard in memory. Errors with
    /// [`SpoolError::Incomplete`] if any run lacks a complete record and
    /// [`SpoolError::Corrupt`] if a record contradicts the matrix.
    pub fn for_each_run<F>(&self, mut f: F) -> Result<(), SpoolError>
    where
        F: FnMut(&RunSpec, &RunRecord),
    {
        let shards = spool::shard_files(&self.dir)?;
        let mut merge = SpoolMerge::open(&shards, self.fingerprint)?;
        let mut seen = 0usize;
        let mut spec_iter = self.specs.iter();
        while let Some(rec) = merge.next()? {
            // Merged records arrive in strictly ascending index order, so
            // a single forward walk over the specs pairs them up.
            let spec = loop {
                match spec_iter.next() {
                    Some(s) if s.index == rec.index => break s,
                    Some(s) if s.index < rec.index => {
                        // A spec with no record: counted at the end.
                        continue;
                    }
                    _ => {
                        return Err(SpoolError::Corrupt {
                            path: self.dir.clone(),
                            detail: format!(
                                "record index {} does not appear in the matrix",
                                rec.index
                            ),
                        })
                    }
                }
            };
            if spec.id() != rec.id {
                return Err(SpoolError::Corrupt {
                    path: self.dir.clone(),
                    detail: format!(
                        "record at index {} is '{}' but the matrix expects '{}'",
                        rec.index,
                        rec.id,
                        spec.id()
                    ),
                });
            }
            f(spec, &rec);
            seen += 1;
        }
        if seen != self.specs.len() {
            return Err(SpoolError::Incomplete {
                missing: self.specs.len() - seen,
                total: self.specs.len(),
            });
        }
        Ok(())
    }

    /// Renders the sweep's golden snapshot, byte-identical to
    /// [`golden::render`] of the equivalent in-memory sweep, without
    /// buffering runs.
    pub fn render_golden(&self) -> Result<String, SpoolError> {
        golden::render_sweep(self)
    }

    /// Loads the whole spool into an in-memory [`SweepResult`].
    ///
    /// This forfeits the bounded-memory property — it exists so small
    /// streamed sweeps can reuse the in-memory reporting helpers.
    pub fn into_sweep_result(self) -> Result<SweepResult, SpoolError> {
        let mut runs = Vec::with_capacity(self.specs.len());
        self.for_each_run(|spec, rec| {
            runs.push(RunResult {
                spec: spec.clone(),
                stats: rec.stats.clone(),
                wall: rec.wall,
                worker: rec.worker,
            });
        })?;
        Ok(SweepResult {
            runs,
            elapsed: self.elapsed,
            jobs: self.jobs,
        })
    }

    /// One-line status for stderr, e.g.
    /// `40 runs | 12 resumed | 28 executed | jobs=4 | wall 1.23s`.
    pub fn status_line(&self) -> String {
        format!(
            "{} runs | {} resumed | {} executed | jobs={} | wall {:.2}s",
            self.specs.len(),
            self.resumed,
            self.executed,
            self.jobs,
            self.elapsed.as_secs_f64(),
        )
    }
}

impl Replay for StreamedSweep {
    fn replay(&self, f: &mut dyn FnMut(&RunSpec, &RunStats, Duration)) -> Result<(), SpoolError> {
        self.for_each_run(|spec, rec| f(spec, &rec.stats, rec.wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::report_text;
    use spcp_system::ProtocolKind;
    use spcp_workloads::suite;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spcp-stream-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_matrix() -> RunMatrix {
        RunMatrix::new()
            .bench(suite::by_name("fft").unwrap())
            .bench(suite::by_name("radix").unwrap())
            .protocol("dir", ProtocolKind::Directory)
            .protocol("bc", ProtocolKind::Broadcast)
    }

    #[test]
    fn streamed_matches_in_memory() {
        let dir = tmp_dir("match");
        let matrix = small_matrix();
        let mem = SweepEngine::new(2).run(&matrix);
        let streamed = SweepEngine::new(2)
            .run_streamed(&matrix, &StreamConfig::new(&dir))
            .unwrap();
        assert_eq!(streamed.executed, 4);
        assert_eq!(streamed.resumed, 0);
        assert_eq!(streamed.render_golden().unwrap(), golden::render(&mem));
        assert_eq!(report_text(&streamed), report_text(&mem));
        let loaded = streamed.into_sweep_result().unwrap();
        assert_eq!(report_text(&loaded), report_text(&mem));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_sweep_refuses_dirty_dir() {
        let dir = tmp_dir("dirty");
        let matrix = small_matrix();
        SweepEngine::new(1)
            .run_streamed(&matrix, &StreamConfig::new(&dir))
            .unwrap();
        match SweepEngine::new(1).run_streamed(&matrix, &StreamConfig::new(&dir)) {
            Err(SpoolError::NotEmpty { .. }) => {}
            other => panic!("expected NotEmpty, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_of_complete_sweep_is_a_no_op() {
        let dir = tmp_dir("noop");
        let matrix = small_matrix();
        let first = SweepEngine::new(2)
            .run_streamed(&matrix, &StreamConfig::new(&dir))
            .unwrap();
        let again = SweepEngine::new(2)
            .run_streamed(&matrix, &StreamConfig::new(&dir).resume(true))
            .unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, 4);
        assert_eq!(report_text(&again), report_text(&first));
        assert!(again.status_line().contains("4 resumed"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_different_matrix() {
        let dir = tmp_dir("mismatch");
        SweepEngine::new(1)
            .run_streamed(&small_matrix(), &StreamConfig::new(&dir))
            .unwrap();
        let other = RunMatrix::new()
            .bench(suite::by_name("lu").unwrap())
            .protocol("dir", ProtocolKind::Directory);
        match SweepEngine::new(1).run_streamed(&other, &StreamConfig::new(&dir).resume(true)) {
            Err(SpoolError::MatrixMismatch { .. }) => {}
            other => panic!("expected MatrixMismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incomplete_spool_is_reported() {
        let dir = tmp_dir("incomplete");
        let matrix = small_matrix();
        let streamed = SweepEngine::new(1)
            .run_streamed(&matrix, &StreamConfig::new(&dir))
            .unwrap();
        // Drop one complete record by truncating the single shard file
        // just before its final frame.
        let shards = spool::shard_files(&dir).unwrap();
        assert_eq!(shards.len(), 1);
        let text = fs::read_to_string(&shards[0]).unwrap();
        let without_last = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.pop();
            let mut s = lines.join("\n");
            s.push('\n');
            s
        };
        fs::write(&shards[0], without_last).unwrap();
        match streamed.render_golden() {
            Err(SpoolError::Incomplete { missing, total }) => {
                assert_eq!(missing, 1);
                assert_eq!(total, 4);
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_matrix_streams_trivially() {
        let dir = tmp_dir("empty");
        let matrix = RunMatrix::new();
        let streamed = SweepEngine::new(4)
            .run_streamed(&matrix, &StreamConfig::new(&dir))
            .unwrap();
        assert_eq!(streamed.executed, 0);
        let header_only = format!("{}\n", golden::GOLDEN_HEADER);
        assert_eq!(streamed.render_golden().unwrap(), header_only);
        let _ = fs::remove_dir_all(&dir);
    }
}
