//! Parallel-determinism guarantees of the sweep engine: a ≥24-run matrix
//! produces bit-identical per-run stats and reports at `--jobs 1`,
//! `--jobs 4` and `--jobs 8`. The same guarantees are pinned for the
//! streamed (spooled-to-disk) path: streaming at any job count reproduces
//! the in-memory sweep bit for bit, and the shard merge order never changes
//! the report.

use std::path::PathBuf;

use spcp::harness::spool::{self, SpoolMerge};
use spcp::harness::{golden, Replay, RunMatrix, StreamConfig, SweepEngine, SweepResult};
use spcp::sim::DetRng;
use spcp::system::{PredictorKind, ProtocolKind, RunStats};
use spcp::workloads::suite;

/// 3 benchmarks × 4 protocols × 2 seeds = 24 runs.
fn matrix_24() -> RunMatrix {
    RunMatrix::new()
        .bench(suite::by_name("fft").unwrap())
        .bench(suite::by_name("radix").unwrap())
        .bench(suite::by_name("lu").unwrap())
        .protocol("dir", ProtocolKind::Directory)
        .protocol("bc", ProtocolKind::Broadcast)
        .protocol("sp", ProtocolKind::Predicted(PredictorKind::sp_default()))
        .protocol("uni", ProtocolKind::Predicted(PredictorKind::Uni))
        .seeds(&[7, 11])
}

/// One run's statistics as `Debug` text: every field a report can read,
/// the latency extremes, the histogram and SP's counters included.
fn run_debug(id: &str, stats: &RunStats) -> String {
    format!("{id}: {stats:?}\n")
}

/// Every run's [`run_debug`], in canonical order.
fn runs_text(sweep: &dyn Replay) -> String {
    let mut out = String::new();
    sweep
        .replay(&mut |spec, stats, _| out.push_str(&run_debug(&spec.id(), stats)))
        .expect("replay");
    out
}

/// The golden render of a sweep followed by its [`runs_text`].
fn report_text(sweep: &dyn Replay) -> String {
    golden::render_sweep(sweep).expect("replay") + &runs_text(sweep)
}

fn assert_bit_identical(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.runs.len(), b.runs.len());
    assert_eq!(report_text(a), report_text(b));
}

#[test]
fn jobs_1_4_8_are_bit_identical() {
    let matrix = matrix_24();
    assert_eq!(matrix.len(), 24);
    let serial = SweepEngine::new(1).run(&matrix);
    let four = SweepEngine::new(4).run(&matrix);
    let eight = SweepEngine::new(8).run(&matrix);
    assert_eq!(serial.jobs, 1);
    assert_bit_identical(&serial, &four);
    assert_bit_identical(&serial, &eight);

    // The harness's own timing metrics must report a ≥3x speedup on a
    // 4+-core machine. On smaller machines (e.g. a 1-core CI container)
    // parallelism cannot help, so only check the metrics are present.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "serial: {}\n jobs8: {}  ({cores} cores available)",
        serial.timing_line(),
        eight.timing_line()
    );
    if cores >= 4 {
        assert!(
            eight.speedup() >= 3.0,
            "expected >=3x speedup on a {cores}-core machine, got {:.2}x",
            eight.speedup()
        );
    }
    assert!(eight.speedup() > 0.0);
    assert!(eight.throughput_ops_per_sec() > 0.0);
}

/// A scratch spool directory, wiped before (and after) use so reruns and
/// crashed prior runs never leak shards into the test.
struct Spool(PathBuf);

impl Spool {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spcp-det-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Spool(dir)
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn streamed_jobs_1_4_8_bit_identical_to_in_memory() {
    let matrix = matrix_24();
    let reference = SweepEngine::new(1).run(&matrix);
    let reference_render = golden::render(&reference);

    for jobs in [1usize, 4, 8] {
        let spool = Spool::new(&format!("jobs{jobs}"));
        let streamed = SweepEngine::new(jobs)
            .run_streamed(&matrix, &StreamConfig::new(&spool.0))
            .expect("streamed sweep");
        assert_eq!(streamed.executed, 24, "jobs={jobs}");
        assert_eq!(streamed.resumed, 0, "jobs={jobs}");

        // The golden rendering — every counter of every run — is byte-for-
        // byte the in-memory engine's, no matter the worker count.
        let render = streamed.render_golden().expect("replay spool");
        assert_eq!(render, reference_render, "jobs={jobs}");
        assert_eq!(
            report_text(&streamed),
            report_text(&reference),
            "jobs={jobs}"
        );

        // Rehydrating the spool into a SweepResult matches too (canonical
        // run order, identical stats).
        let rehydrated = streamed.into_sweep_result().expect("replay spool");
        assert_bit_identical(&reference, &rehydrated);
    }
}

#[test]
fn shard_merge_order_never_changes_report() {
    let matrix = matrix_24();
    let spool = Spool::new("mergeorder");
    let streamed = SweepEngine::new(4)
        .run_streamed(&matrix, &StreamConfig::new(&spool.0))
        .expect("streamed sweep");
    let reference = runs_text(&streamed);
    let fingerprint = streamed.fingerprint();

    let shards = spool::shard_files(&spool.0).expect("list shards");
    assert!(!shards.is_empty());

    let mut rng = DetRng::seeded(0x5eed);
    for trial in 0..10 {
        let mut order = shards.clone();
        rng.shuffle(&mut order);
        let mut merge = SpoolMerge::open(&order, fingerprint).expect("open shards");
        let mut runs = String::new();
        let mut last_index = None;
        while let Some(rec) = merge.next().expect("merge") {
            // Records always drain in canonical matrix order, regardless
            // of the order the shard files were listed in.
            assert!(last_index < Some(rec.index), "trial {trial}");
            last_index = Some(rec.index);
            runs.push_str(&run_debug(&rec.id, &rec.stats));
        }
        assert_eq!(runs, reference, "trial {trial}");
    }
}

#[test]
fn sweep_reports_every_run_and_histograms_every_miss() {
    let result = SweepEngine::new(2).run(&matrix_24());
    assert_eq!(result.runs.len(), 24);
    let predictions: u64 = result.runs.iter().map(|r| r.stats.predictions).sum();
    assert!(predictions > 0, "sp/uni runs must predict");
    for run in &result.runs {
        let id = run.spec.id();
        assert!(run.stats.noc.byte_hops > 0, "{id}");
        assert_eq!(
            run.stats.miss_latency.count(),
            run.stats.miss_latency_hist.total(),
            "{id}: every miss latency sample is histogrammed"
        );
    }
}
