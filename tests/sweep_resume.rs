//! Crash-safe resume of streamed sweeps: kill a sweep mid-write (simulated
//! by truncating a shard inside a record and deleting another shard
//! outright), resume with the same matrix, and verify that only the missing
//! cells re-run and the final report is byte-for-byte the uninterrupted
//! sweep's.

use std::path::PathBuf;

use spcp::harness::record::{self, RECORD_VERSION};
use spcp::harness::spool::{self, SpoolError};
use spcp::harness::{frame, Replay, RunMatrix, StreamConfig, SweepEngine};
use spcp::system::{PredictorKind, ProtocolKind};
use spcp::workloads::suite;

/// 2 benchmarks × 3 protocols × 2 seeds = 12 runs.
fn matrix_12() -> RunMatrix {
    RunMatrix::new()
        .bench(suite::by_name("fft").unwrap())
        .bench(suite::by_name("radix").unwrap())
        .protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .seeds(&[7, 11])
}

struct Spool(PathBuf);

impl Spool {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spcp-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Spool(dir)
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every run's statistics as `Debug` text, in canonical order: the fields
/// the golden render does not show (latency extremes, the histogram, SP's
/// counters) included.
fn runs_debug(sweep: &dyn Replay) -> String {
    let mut out = String::new();
    sweep
        .replay(&mut |spec, stats, _| out.push_str(&format!("{}: {stats:?}\n", spec.id())))
        .expect("replay");
    out
}

/// Counts the complete records currently recoverable from the spool.
fn recoverable(dir: &std::path::Path, fingerprint: u64) -> usize {
    let shards = spool::shard_files(dir).expect("list shards");
    let mut merge = spool::SpoolMerge::open(&shards, fingerprint).expect("open shards");
    let mut n = 0;
    while merge.next().expect("merge").is_some() {
        n += 1;
    }
    n
}

#[test]
fn kill_then_resume_is_bit_identical_to_uninterrupted() {
    let matrix = matrix_12();

    // The uninterrupted reference sweep.
    let clean = Spool::new("clean");
    let uninterrupted = SweepEngine::new(4)
        .run_streamed(&matrix, &StreamConfig::new(&clean.0))
        .expect("reference sweep");
    let reference_render = uninterrupted.render_golden().expect("replay");
    let reference_runs = runs_debug(&uninterrupted);

    // The "crashed" sweep: run to completion, then damage the spool the
    // way a mid-write kill would — one shard loses bytes inside its last
    // record (torn frame), another disappears entirely (never flushed).
    let crashed = Spool::new("crashed");
    let first = SweepEngine::new(4)
        .run_streamed(&matrix, &StreamConfig::new(&crashed.0))
        .expect("first sweep");
    assert_eq!(first.executed, 12);
    let fingerprint = first.fingerprint();

    let shards = spool::shard_files(&crashed.0).expect("list shards");
    assert!(shards.len() >= 2, "4 workers over 12 runs make >=2 shards");
    // Tear the tail record of the first shard: cut inside the frame, not
    // at the line boundary.
    let torn = &shards[0];
    let bytes = std::fs::read(torn).expect("read shard");
    assert!(bytes.ends_with(b"\n"));
    std::fs::write(torn, &bytes[..bytes.len() - 7]).expect("truncate shard");
    // Drop the last shard wholesale.
    std::fs::remove_file(shards.last().unwrap()).expect("remove shard");

    let survivors = recoverable(&crashed.0, fingerprint);
    assert!(survivors < 12, "the damage must lose at least one record");

    // Fresh mode refuses the dirty directory...
    let fresh = SweepEngine::new(4).run_streamed(&matrix, &StreamConfig::new(&crashed.0));
    assert!(matches!(fresh, Err(SpoolError::NotEmpty { .. })));

    // ...resume re-runs exactly the missing cells...
    let resumed = SweepEngine::new(4)
        .run_streamed(&matrix, &StreamConfig::new(&crashed.0).resume(true))
        .expect("resumed sweep");
    assert_eq!(resumed.resumed, survivors);
    assert_eq!(resumed.executed, 12 - survivors);

    // ...and the final report is byte-for-byte the uninterrupted one's.
    assert_eq!(resumed.render_golden().expect("replay"), reference_render);
    assert_eq!(runs_debug(&resumed), reference_runs);
}

#[test]
fn resume_after_clean_completion_executes_nothing() {
    let matrix = matrix_12();
    let spool = Spool::new("noop");
    let first = SweepEngine::new(2)
        .run_streamed(&matrix, &StreamConfig::new(&spool.0))
        .expect("first sweep");
    let render = first.render_golden().expect("replay");

    let again = SweepEngine::new(2)
        .run_streamed(&matrix, &StreamConfig::new(&spool.0).resume(true))
        .expect("resume");
    assert_eq!(again.executed, 0);
    assert_eq!(again.resumed, 12);
    assert_eq!(again.render_golden().expect("replay"), render);
}

#[test]
fn resume_rejects_a_different_matrix() {
    let spool = Spool::new("mismatch");
    SweepEngine::new(2)
        .run_streamed(&matrix_12(), &StreamConfig::new(&spool.0))
        .expect("first sweep");

    // Same shape, different seed set: a different experiment entirely.
    let other = RunMatrix::new()
        .bench(suite::by_name("fft").unwrap())
        .bench(suite::by_name("radix").unwrap())
        .protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .seeds(&[13, 17]);
    let err = SweepEngine::new(2).run_streamed(&other, &StreamConfig::new(&spool.0).resume(true));
    assert!(matches!(err, Err(SpoolError::MatrixMismatch { .. })));
}

#[test]
fn resume_rejects_a_toggled_snoop_filter() {
    let spool = Spool::new("filter");
    let matrix = RunMatrix::new()
        .bench(suite::by_name("fft").unwrap())
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()));
    SweepEngine::new(1)
        .run_streamed(&matrix, &StreamConfig::new(&spool.0))
        .expect("first sweep");

    // Same cell ids, but the filter changes every statistic.
    let filtered = matrix.with_snoop_filter();
    let err =
        SweepEngine::new(1).run_streamed(&filtered, &StreamConfig::new(&spool.0).resume(true));
    assert!(matches!(err, Err(SpoolError::MatrixMismatch { .. })));
}

#[test]
fn resume_refuses_a_shard_of_another_spool_version() {
    let spool = Spool::new("version");
    let matrix = RunMatrix::new()
        .bench(suite::by_name("fft").unwrap())
        .protocol("dir", ProtocolKind::Directory);
    SweepEngine::new(1)
        .run_streamed(&matrix, &StreamConfig::new(&spool.0))
        .expect("first sweep");

    // Re-stamp the shard's header frame as an older format's.
    let shards = spool::shard_files(&spool.0).expect("list shards");
    let text = std::fs::read_to_string(&shards[0]).expect("read shard");
    let (first, rest) = text.split_once('\n').expect("header line");
    let payload = frame::decode_line(first.as_bytes()).expect("header frame");
    let mut header = record::decode_header(payload).expect("header");
    header.version = RECORD_VERSION - 1;
    let restamped = frame::encode(&record::encode_header(&header));
    std::fs::write(&shards[0], format!("{restamped}{rest}")).expect("rewrite shard");

    let err = SweepEngine::new(1).run_streamed(&matrix, &StreamConfig::new(&spool.0).resume(true));
    match err {
        Err(SpoolError::Corrupt { detail, .. }) => assert_eq!(
            detail,
            format!("unsupported spool version {}", RECORD_VERSION - 1)
        ),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}
