//! The [`Lab`]: how an experiment runs its simulations.

use std::cell::Cell;
use std::io;

use spcp_harness::{RunMatrix, SpoolError, StreamConfig, SweepEngine, SweepResult};

/// A worker count plus, optionally, a spool directory: everything an
/// experiment needs to run its sweeps.
///
/// Without a spool every sweep runs through the in-memory engine. With
/// one, sweep number `n` of the experiment spools to `<out>/<n>` (under
/// the experiment's own directory), so experiments that sweep more
/// than once never share shards and `--resume` replays each sweep from its
/// own directory.
#[derive(Debug)]
pub struct Lab {
    jobs: usize,
    stream: Option<StreamConfig>,
    sweeps: Cell<usize>,
}

impl Lab {
    /// An in-memory lab with `jobs` workers (at least one).
    pub fn new(jobs: usize) -> Self {
        Lab {
            jobs: jobs.max(1),
            stream: None,
            sweeps: Cell::new(0),
        }
    }

    /// Spools every sweep under `cfg.dir`, resuming when `cfg.resume`.
    pub fn streamed(mut self, cfg: StreamConfig) -> Self {
        self.stream = Some(cfg);
        self
    }

    /// A fresh lab for the experiment `name`: same workers, spool under
    /// `<out>/<name>`, sweeps numbered from zero.
    pub(crate) fn scoped(&self, name: &str) -> Lab {
        Lab {
            jobs: self.jobs,
            stream: self.stream.as_ref().map(|cfg| StreamConfig {
                dir: cfg.dir.join(name),
                ..cfg.clone()
            }),
            sweeps: Cell::new(0),
        }
    }

    /// Runs `matrix` and returns its runs in canonical order, printing the
    /// harness status line to stderr.
    ///
    /// Recording matrices cannot stream (their per-epoch payloads are not
    /// spooled), so they run in memory with a note on stderr.
    ///
    /// # Errors
    ///
    /// Spool failures: a non-empty spool without `--resume`, a spool from
    /// a different matrix, or an I/O error.
    pub fn sweep(&self, matrix: &RunMatrix) -> io::Result<SweepResult> {
        let ordinal = self.sweeps.replace(self.sweeps.get() + 1);
        let engine = SweepEngine::new(self.jobs);
        if let Some(cfg) = &self.stream {
            let cfg = StreamConfig {
                dir: cfg.dir.join(ordinal.to_string()),
                ..cfg.clone()
            };
            match engine.run_streamed(matrix, &cfg) {
                Ok(streamed) => {
                    eprintln!("[harness] {}", streamed.status_line());
                    return streamed.into_sweep_result().map_err(io::Error::other);
                }
                Err(SpoolError::Unsupported(why)) => eprintln!("[harness] --out ignored: {why}"),
                Err(e) => return Err(io::Error::other(e)),
            }
        }
        let result = engine.run(matrix);
        eprintln!("[harness] {}", result.timing_line());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcp_harness::golden;
    use spcp_system::{PredictorKind, ProtocolKind, RunStats};
    use spcp_workloads::suite;

    /// A sweep's golden render plus each run's `Debug` text, without the
    /// communication matrix, which spools leave out.
    fn report(sweep: &SweepResult) -> String {
        let mut out = golden::render(sweep);
        for run in &sweep.runs {
            let spooled = RunStats {
                comm_matrix: Default::default(),
                ..run.stats.clone()
            };
            out.push_str(&format!("{spooled:?}\n"));
        }
        out
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spcp-lab-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streamed_sweep_and_resume_match_in_memory() {
        let dir = tmp_dir("stream");
        let matrix = RunMatrix::new()
            .bench(suite::x264())
            .protocol("dir", ProtocolKind::Directory)
            .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()));
        let mem = Lab::new(2).sweep(&matrix).unwrap();
        let cfg = StreamConfig::new(&dir).flush_every(1);
        let streamed = Lab::new(2).streamed(cfg.clone()).sweep(&matrix).unwrap();
        assert_eq!(report(&mem), report(&streamed));
        // A second fresh run into the same spool is refused...
        assert!(Lab::new(2).streamed(cfg.clone()).sweep(&matrix).is_err());
        // ...while resuming the finished spool re-runs nothing and agrees.
        let resumed = Lab::new(2)
            .streamed(cfg.resume(true))
            .sweep(&matrix)
            .unwrap();
        assert_eq!(report(&mem), report(&resumed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recording_sweep_falls_back_to_memory() {
        let dir = tmp_dir("recfall");
        let matrix = RunMatrix::new()
            .bench(suite::x264())
            .protocol("dir", ProtocolKind::Directory)
            .recording();
        let lab = Lab::new(1).streamed(StreamConfig::new(&dir));
        let result = lab.sweep(&matrix).unwrap();
        assert_eq!(result.runs.len(), 1);
        assert!(!result.runs[0].stats.epoch_records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two sweeps that share a protocol label but not a protocol must not
    /// replay each other's shards, fresh or resumed.
    #[test]
    fn sweeps_sharing_a_label_spool_apart() {
        let dir = tmp_dir("multi");
        let one_cell = |kind| RunMatrix::new().bench(suite::x264()).protocol("p", kind);
        let bc = one_cell(ProtocolKind::Broadcast);
        let mc = one_cell(ProtocolKind::MulticastSnoop(PredictorKind::sp_default()));
        let mem = Lab::new(1);
        let expected = [mem.sweep(&bc).unwrap(), mem.sweep(&mc).unwrap()];
        assert_ne!(report(&expected[0]), report(&expected[1]));
        for resume in [false, true] {
            let lab = Lab::new(1)
                .streamed(StreamConfig::new(&dir).resume(resume))
                .scoped("exp");
            for (matrix, want) in [&bc, &mc].into_iter().zip(&expected) {
                let got = lab.sweep(matrix).unwrap();
                assert_eq!(report(&got), report(want), "resume={resume}");
                assert_eq!(
                    got.runs[0].stats.snoop_probes,
                    want.runs[0].stats.snoop_probes
                );
            }
        }
        assert!(dir.join("exp").join("0").is_dir() && dir.join("exp").join("1").is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
