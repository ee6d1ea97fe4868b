//! Set-up, measured passes and the traced run's layer probes.
//!
//! A pass runs every cell of the workload once, renders the merged report
//! from a spool, cuts every shard to half and resumes, and pushes trace
//! events through the trace and race layers. Every host-time metric is a
//! median over passes or over cell samples of all passes, normalized by
//! the pass's host slowdown (see `hostref`).

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spcp_core::TargetPredictor;
use spcp_core::{shared_lock_table, MissInfo, PredictionOutcome, SpConfig, SpPredictor};
use spcp_harness::record::{RunRecord, ShardHeader, RECORD_VERSION};
use spcp_harness::spool::{self, ShardReader, SpoolMerge, SpoolWriter};
use spcp_harness::stream::DEFAULT_FLUSH_EVERY;
use spcp_harness::{golden, RunMatrix, RunSpec, StreamConfig, StreamedSweep, SweepEngine};
use spcp_mem::directory::Directory;
use spcp_mem::{BlockAddr, SetAssocCache};
use spcp_sim::CoreId;
use spcp_sync::{LockId, StaticSyncId, SyncKind, SyncPoint};
use spcp_system::{CmpSystem, ProtocolKind, RunConfig, RunStats};
use spcp_trace::{read_trace, write_trace, TraceAnalyzer, TraceEvent};
use spcp_workloads::{Op, Workload};

use crate::alloc;
use crate::hostref::HostRef;
use crate::plan::{Plan, SLICE_OPS};
use crate::span::timed;

/// Reference chunks taken back to back at a pass's start and after the
/// streamed sweep, which no chunk can interrupt.
const SETTLE_CHUNKS: usize = 4;

/// Times each slice trace goes through the trace pipeline in a pass: one
/// pass's slice traces take ~0.2 s, too short to time steadily.
const SLICE_TRACE_REPEATS: usize = 4;

/// Protocol labels in metric order.
const PROTOCOLS: [&str; 3] = ["dir", "bc", "sp"];

fn proto_index(label: &str) -> usize {
    PROTOCOLS
        .iter()
        .position(|p| *p == label)
        .expect("workloads use only dir, bc and sp")
}

/// Output checks, each counted against the checks attempted.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Ends the process on an I/O failure (of the spool or of an in-memory
/// trace): the benchmark cannot measure without them.
fn fatal<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(2);
    })
}

/// One set-up: the expanded cells and every cell's generated inputs.
pub struct Setup {
    pub specs: Vec<RunSpec>,
    pub inputs: Vec<Workload>,
    /// Host seconds of the set-up, reference chunks left out.
    pub secs: f64,
    pub gen_secs: f64,
    pub gen_ops: u64,
}

/// Matrix expansion, `BenchmarkSpec::generate` for every cell, and a
/// fresh spool directory.
pub fn setup(plan: &Plan, spool_root: &Path, host: &mut HostRef) -> Setup {
    let mark = host.mark();
    let t0 = Instant::now();
    let specs = plan.matrix.expand();
    let mut gen_secs = 0.0;
    let inputs: Vec<Workload> = specs
        .iter()
        .map(|s| {
            let (w, dt) = timed("workloads.generate", || {
                s.bench.generate(s.machine.num_cores, s.seed)
            });
            gen_secs += dt;
            host.tick();
            w
        })
        .collect();
    if spool_root.exists() {
        fatal(fs::remove_dir_all(spool_root), "clearing the spool");
    }
    fatal(fs::create_dir_all(spool_root), "creating the spool");
    let gen_ops = inputs.iter().map(|w| w.total_ops() as u64).sum();
    Setup {
        specs,
        inputs,
        secs: t0.elapsed().as_secs_f64() - host.spent(mark),
        gen_secs,
        gen_ops,
    }
}

fn run_config(spec: &RunSpec, traced: bool) -> RunConfig {
    let cfg = RunConfig::new(spec.machine.clone(), spec.protocol.clone());
    if traced {
        cfg.recording().tracing()
    } else {
        cfg
    }
}

/// Trace-layer work of one pass.
#[derive(Default, Clone, Copy)]
pub struct TraceTally {
    pub events: u64,
    pub bytes: u64,
    pub encode: f64,
    pub decode: f64,
    pub analyze: f64,
    pub race: f64,
}

impl TraceTally {
    pub fn secs(&self) -> f64 {
        self.encode + self.decode + self.analyze + self.race
    }
}

/// `write_trace` → `read_trace` (must round-trip equal) →
/// `TraceAnalyzer::from_events` → `analyze_races`.
fn trace_pipeline(
    cores: usize,
    events: &[TraceEvent],
    tally: &mut TraceTally,
    checks: &mut Checks,
) {
    let mut buf = Vec::new();
    let (written, encode) = timed("trace.write", || write_trace(&mut buf, events));
    fatal(written, "encoding a trace in memory");
    let (back, decode) = timed("trace.read", || read_trace(buf.as_slice()));
    let back = back.unwrap_or_default();
    checks.check(back == events, || {
        "trace read back differs from the trace written".into()
    });
    let (analyzer, analyze) = timed("trace.analyze", || TraceAnalyzer::from_events(cores, &back));
    std::hint::black_box(analyzer.comm_misses());
    let (report, race) = timed("verify.races", || spcp_verify::analyze_races(cores, &back));
    std::hint::black_box(report.races.len());
    tally.events += events.len() as u64;
    tally.bytes += buf.len() as u64;
    tally.encode += encode;
    tally.decode += decode;
    tally.analyze += analyze;
    tally.race += race;
}

/// Harness-layer numbers of one pass (traced run).
#[derive(Default, Clone, Copy)]
pub struct HarnessTally {
    pub appends: u64,
    pub append_secs: f64,
    pub merges: u64,
    pub merge_secs: f64,
    pub bytes: u64,
    pub records: u64,
    pub resume_scan_secs: f64,
    pub engine_overhead_secs: f64,
}

/// Everything one pass measured.
pub struct Pass {
    /// Host seconds inside the simulate calls, by protocol.
    pub sim_secs: [f64; 3],
    /// Simulated operations, by protocol.
    pub sim_ops: [u64; 3],
    /// Host ns per simulated operation of every cell sample (see
    /// [`cell_ns`]).
    pub cell_ns: Vec<f64>,
    /// First cell's start to the merged report rendered from the spool,
    /// reference chunks left out.
    pub window_secs: f64,
    pub resume_secs: f64,
    pub trace: TraceTally,
    /// The host's slowdown while the trace pipeline ran: the pass's where
    /// every cell's trace goes through it, else that of the slice stage,
    /// whose chunks interleave with the pipeline calls.
    pub trace_slowdown: f64,
    pub harness: HarnessTally,
    pub allocs: u64,
    pub alloc_ops: u64,
    pub heap_peak: u64,
    /// Every cell's statistics in canonical order; kept for pass 0 only.
    pub stats: Vec<RunStats>,
    /// The merged report; kept for pass 0 only.
    pub report: String,
    /// The host's slowdown during the pass (see [`HostRef`]).
    pub slowdown: f64,
}

impl Pass {
    pub fn sim_ops_per_s(&self) -> f64 {
        self.sim_ops.iter().sum::<u64>() as f64 / self.sim_secs.iter().sum::<f64>()
    }
}

/// Host ns per simulated operation of every cell sample: one benchmark
/// under one protocol over all of its seeds, so that a `farm_tiny` sample
/// (50 one-epoch cells) spans tens of milliseconds.
fn cell_ns(specs: &[RunSpec], cell_secs: &[f64], stats: &[RunStats]) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut secs, mut ops) = (0.0, 0u64);
    for (i, spec) in specs.iter().enumerate() {
        secs += cell_secs[i];
        ops += stats[i].total_ops;
        let group_ends = specs.get(i + 1).is_none_or(|next| {
            next.bench.name != spec.bench.name || next.protocol_label != spec.protocol_label
        });
        if group_ends {
            out.push(secs * 1e9 / ops as f64);
            (secs, ops) = (0.0, 0);
        }
    }
    out
}

/// State a run carries across passes.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub seed: u64,
    pub setup: &'a Setup,
    pub spool_root: PathBuf,
    /// The traced run: validated simulation, allocation counting, layer
    /// spans.
    pub traced_run: bool,
    /// Cells re-run with tracing on workloads that do not trace every
    /// cell, and the layer probes' inputs.
    pub slice: Vec<usize>,
    pub checks: Checks,
    pub host: HostRef,
}

/// The slice: canonical-order dir and sp cells until at least
/// [`SLICE_OPS`] operations and one sp cell.
pub fn slice_of(setup: &Setup) -> Vec<usize> {
    let mut out = Vec::new();
    let mut ops = 0;
    let mut has_sp = false;
    for (i, spec) in setup.specs.iter().enumerate() {
        if spec.protocol_label == "bc" {
            continue;
        }
        if ops >= SLICE_OPS && has_sp {
            break;
        }
        out.push(i);
        ops += setup.inputs[i].total_ops() as u64;
        has_sp |= spec.protocol_label == "sp";
    }
    out
}

/// One simulate call; the traced run validates the final machine state
/// (a violation counts as a failed check) and counts allocations.
fn simulate(ctx: &mut Ctx, w: &Workload, cfg: &RunConfig) -> (RunStats, f64, alloc::Window) {
    let run = |validated: bool| {
        timed("system.run_workload", || {
            if validated {
                CmpSystem::run_workload_validated(w, cfg)
            } else {
                CmpSystem::run_workload(w, cfg)
            }
        })
    };
    if !ctx.traced_run {
        let (stats, secs) = run(false);
        return (stats, secs, alloc::Window::default());
    }
    let (outcome, window) = alloc::counted(|| catch_unwind(AssertUnwindSafe(|| run(true))));
    ctx.checks.check(outcome.is_ok(), || {
        format!("{}: coherence validation failed", w.name())
    });
    let (stats, secs) = outcome.unwrap_or_else(|_| run(false));
    (stats, secs, window)
}

fn header(specs: &[RunSpec]) -> ShardHeader {
    ShardHeader {
        version: RECORD_VERSION,
        fingerprint: spool::fingerprint(specs),
        specs: specs.len() as u64,
    }
}

fn shard_bytes(dir: &Path) -> u64 {
    fatal(spool::shard_files(dir), "listing shards")
        .iter()
        .map(|p| fs::metadata(p).map_or(0, |m| m.len()))
        .sum()
}

/// Replays the spool through `SpoolMerge::next` and appends every record
/// into a second spool through `SpoolWriter::append`, timing each call.
fn harness_probe(ctx: &Ctx, dir: &Path, tally: &mut HarnessTally) {
    let specs = &ctx.setup.specs;
    let shards = fatal(spool::shard_files(dir), "listing shards");
    let mut merge = fatal(
        SpoolMerge::open(&shards, spool::fingerprint(specs)),
        "opening the spool",
    );
    let copy = dir.with_extension("copy");
    fatal(fs::create_dir_all(&copy), "creating the spool copy");
    let mut writer = SpoolWriter::new(
        copy.join(spool::shard_name(0, 0)),
        header(specs),
        DEFAULT_FLUSH_EVERY,
    );
    loop {
        let (next, secs) = timed("harness.merge_next", || merge.next());
        let Some(rec) = fatal(next, "merging the spool") else {
            break;
        };
        tally.merges += 1;
        tally.merge_secs += secs;
        let (res, secs) = timed("harness.append", || writer.append(&rec));
        fatal(res, "appending to the spool copy");
        tally.appends += 1;
        tally.append_secs += secs;
    }
    fatal(writer.finish(), "syncing the spool copy");
    tally.bytes += shard_bytes(dir);
    tally.records += specs.len() as u64;
    fatal(fs::remove_dir_all(&copy), "removing the spool copy");
}

fn streamed(matrix: &RunMatrix, dir: &Path, resume: bool) -> StreamedSweep {
    let cfg = StreamConfig::new(dir).resume(resume);
    let (out, _) = timed("harness.run_streamed", || {
        SweepEngine::new(1).run_streamed(matrix, &cfg)
    });
    fatal(out, "streaming the sweep")
}

fn render(sweep: &StreamedSweep) -> String {
    fatal(
        timed("harness.render", || sweep.render_golden()).0,
        "rendering the report",
    )
}

/// The matrix the spool stages stream; the traced run validates its cells.
fn stream_matrix(ctx: &Ctx) -> RunMatrix {
    if ctx.traced_run {
        ctx.plan.matrix.clone().validated()
    } else {
        ctx.plan.matrix.clone()
    }
}

/// Cuts every shard to half its length, resumes, and re-renders the
/// report. Returns the report and host seconds.
fn resume_stage(ctx: &Ctx, dir: &Path, tally: &mut HarnessTally) -> (String, f64) {
    let t0 = Instant::now();
    for shard in fatal(spool::shard_files(dir), "listing shards") {
        let len = fatal(fs::metadata(&shard), "sizing a shard").len();
        let file = fatal(
            fs::OpenOptions::new().write(true).open(&shard),
            "opening a shard",
        );
        fatal(file.set_len(len / 2), "cutting a shard");
    }
    let sweep = streamed(&stream_matrix(ctx), dir, true);
    let report = render(&sweep);
    let secs = t0.elapsed().as_secs_f64();
    if ctx.traced_run {
        // The resume wrote generation 1; its records are the re-run cells.
        let mut rerun = Duration::ZERO;
        let path = dir.join(spool::shard_name(1, 0));
        if path.exists() {
            let mut reader = fatal(ShardReader::open(&path), "reading the resumed shard");
            while let Some(rec) = fatal(reader.next_record(), "reading the resumed shard") {
                rerun += rec.wall;
            }
        }
        tally.resume_scan_secs += secs - rerun.as_secs_f64();
        tally.engine_overhead_secs += sweep.elapsed.as_secs_f64() - rerun.as_secs_f64();
    }
    (report, secs)
}

/// Runs one measured pass.
pub fn pass(ctx: &mut Ctx, index: usize) -> Pass {
    let dir = ctx.spool_root.join(format!("pass{index}"));
    fatal(fs::create_dir_all(&dir), "creating the pass spool");
    let n = ctx.setup.specs.len();
    let mut p = Pass {
        sim_secs: [0.0; 3],
        sim_ops: [0; 3],
        cell_ns: Vec::new(),
        window_secs: 0.0,
        resume_secs: 0.0,
        trace: TraceTally::default(),
        trace_slowdown: 0.0,
        harness: HarnessTally::default(),
        allocs: 0,
        alloc_ops: 0,
        heap_peak: 0,
        stats: Vec::new(),
        report: String::new(),
        slowdown: 0.0,
    };

    let mut cell_secs = Vec::with_capacity(n);
    let mark = ctx.host.mark();
    for _ in 0..SETTLE_CHUNKS {
        ctx.host.chunk();
    }
    let window_mark = ctx.host.mark();
    let t_first = Instant::now();
    if ctx.plan.streamed {
        let matrix = stream_matrix(ctx);
        let outcome = catch_unwind(AssertUnwindSafe(|| streamed(&matrix, &dir, false)));
        ctx.checks.check(outcome.is_ok(), || {
            "a streamed cell failed validation".into()
        });
        let sweep = outcome.unwrap_or_else(|_| {
            // Measure the pass anyway, without validation, in a clean spool.
            fatal(fs::remove_dir_all(&dir), "clearing the pass spool");
            streamed(&ctx.plan.matrix, &dir, false)
        });
        for _ in 0..SETTLE_CHUNKS {
            ctx.host.chunk();
        }
        p.report = render(&sweep);
        p.window_secs = t_first.elapsed().as_secs_f64() - ctx.host.spent(window_mark);
        let mut stats = Vec::with_capacity(n);
        fatal(
            sweep.for_each_run(|spec, rec| {
                let k = proto_index(&spec.protocol_label);
                let secs = rec.wall.as_secs_f64();
                p.sim_secs[k] += secs;
                p.sim_ops[k] += rec.stats.total_ops;
                cell_secs.push(secs);
                stats.push(rec.stats.clone());
            }),
            "replaying the spool",
        );
        p.stats = stats;
    } else {
        let traced_cells = ctx.plan.traced_cells;
        let mut slots: Vec<Option<(RunStats, f64)>> = vec![None; n];
        // Interleaved order (benchmark × protocol round-robin), rotated
        // each pass so a slow period of the host lands on different cells.
        let offset = index * (n * 3 / 8 + 1) % n;
        for k in 0..n {
            let i = (k + offset) % n;
            let spec = &ctx.setup.specs[i];
            let cfg = run_config(spec, traced_cells);
            let w = &ctx.setup.inputs[i];
            let (mut stats, secs, window) = simulate(ctx, w, &cfg);
            let j = proto_index(&spec.protocol_label);
            p.sim_secs[j] += secs;
            p.sim_ops[j] += stats.total_ops;
            p.allocs += window.allocs;
            p.alloc_ops += stats.total_ops;
            p.heap_peak = p.heap_peak.max(window.peak_bytes);
            if traced_cells {
                let trace = std::mem::take(&mut stats.trace);
                trace_pipeline(
                    spec.machine.num_cores,
                    &trace,
                    &mut p.trace,
                    &mut ctx.checks,
                );
                stats.epoch_records = Vec::new();
            }
            slots[i] = Some((stats, secs));
            ctx.host.tick();
        }
        let specs = &ctx.setup.specs;
        let mut writer = SpoolWriter::new(
            dir.join(spool::shard_name(0, 0)),
            header(specs),
            DEFAULT_FLUSH_EVERY,
        );
        let mut all = Vec::with_capacity(n);
        for (spec, slot) in specs.iter().zip(slots) {
            let (stats, secs) = slot.expect("every cell ran");
            cell_secs.push(secs);
            let rec = RunRecord {
                index: spec.index,
                id: spec.id(),
                wall: Duration::from_secs_f64(secs),
                worker: 0,
                stats,
            };
            let (res, secs) = timed("harness.append", || writer.append(&rec));
            fatal(res, "appending to the spool");
            p.harness.appends += 1;
            p.harness.append_secs += secs;
            all.push(rec.stats);
        }
        fatal(writer.finish(), "syncing the spool");
        // Resuming a complete spool runs nothing and hands back the sweep.
        let sweep = streamed(&stream_matrix(ctx), &dir, true);
        p.report = render(&sweep);
        p.window_secs = t_first.elapsed().as_secs_f64() - ctx.host.spent(window_mark);
        p.stats = all;
    }

    for (spec, (stats, w)) in ctx
        .setup
        .specs
        .iter()
        .zip(p.stats.iter().zip(&ctx.setup.inputs))
    {
        ctx.checks
            .check(stats.total_ops == w.total_ops() as u64, || {
                format!(
                    "{}: {} of {} operations retired",
                    spec.id(),
                    stats.total_ops,
                    w.total_ops()
                )
            });
    }
    p.cell_ns = cell_ns(&ctx.setup.specs, &cell_secs, &p.stats);

    if ctx.traced_run {
        let mut tally = p.harness;
        harness_probe(ctx, &dir, &mut tally);
        p.harness = tally;
    }
    ctx.host.chunk();
    let (resumed, secs) = resume_stage(ctx, &dir, &mut p.harness);
    p.resume_secs = secs;
    ctx.host.chunk();
    ctx.checks.check(resumed == p.report, || {
        "resumed report differs from the fresh one".into()
    });

    if !ctx.plan.traced_cells {
        let trace_mark = ctx.host.mark();
        for &i in &ctx.slice.clone() {
            let spec = &ctx.setup.specs[i];
            let (mut stats, _) = timed("system.run_workload.traced", || {
                CmpSystem::run_workload(&ctx.setup.inputs[i], &run_config(spec, true))
            });
            let trace = std::mem::take(&mut stats.trace);
            for _ in 0..SLICE_TRACE_REPEATS {
                trace_pipeline(
                    spec.machine.num_cores,
                    &trace,
                    &mut p.trace,
                    &mut ctx.checks,
                );
                ctx.host.tick();
            }
        }
        p.trace_slowdown = ctx.host.slowdown(trace_mark);
    }
    fatal(fs::remove_dir_all(&dir), "removing the pass spool");
    p.slowdown = ctx.host.slowdown(mark);
    if ctx.plan.traced_cells {
        p.trace_slowdown = p.slowdown;
    }
    p
}

/// Checks every seed-7 `paper16` cell of a golden benchmark against its
/// block in `tests/golden/<bench>.golden`.
pub fn check_goldens(ctx: &mut Ctx, stats: &[RunStats]) {
    if ctx.plan.name != "paper16" || ctx.seed != 7 {
        return;
    }
    for (spec, s) in ctx.setup.specs.iter().zip(stats) {
        let Some((_, text)) = GOLDEN.iter().find(|(b, _)| *b == spec.bench.name) else {
            continue;
        };
        let got = golden::snapshot_run(spec, s);
        let head = got.lines().next().unwrap_or_default();
        let want = text.find(head).map(|at| {
            let rest = &text[at..];
            &rest[..rest.find("\n\n").map_or(rest.len(), |e| e + 1)]
        });
        ctx.checks.check(want == Some(got.as_str()), || {
            format!("{}: differs from its golden block", spec.id())
        });
    }
}

const GOLDEN: [(&str, &str); 12] = [
    ("fft", include_str!("../../tests/golden/fft.golden")),
    ("lu", include_str!("../../tests/golden/lu.golden")),
    ("x264", include_str!("../../tests/golden/x264.golden")),
    ("radix", include_str!("../../tests/golden/radix.golden")),
    ("ocean", include_str!("../../tests/golden/ocean.golden")),
    (
        "streamcluster",
        include_str!("../../tests/golden/streamcluster.golden"),
    ),
    (
        "bodytrack",
        include_str!("../../tests/golden/bodytrack.golden"),
    ),
    (
        "fluidanimate",
        include_str!("../../tests/golden/fluidanimate.golden"),
    ),
    (
        "raytrace",
        include_str!("../../tests/golden/raytrace.golden"),
    ),
    ("vips", include_str!("../../tests/golden/vips.golden")),
    ("ferret", include_str!("../../tests/golden/ferret.golden")),
    ("dedup", include_str!("../../tests/golden/dedup.golden")),
];

/// The three simulated design results of the sp-vs-dir comparison:
/// geometric-mean exec-cycle speedup, accuracy and byte-hop overhead.
pub fn design(specs: &[RunSpec], stats: &[RunStats]) -> [f64; 3] {
    let find = |bench: &str, seed: u64, label: &str| {
        specs
            .iter()
            .zip(stats)
            .find(|(s, _)| s.bench.name == bench && s.seed == seed && s.protocol_label == label)
            .map(|(_, st)| st)
    };
    let (mut log_sum, mut pairs) = (0.0, 0u32);
    let (mut suff, mut comm, mut sp_hops, mut dir_hops) = (0u64, 0u64, 0u64, 0u64);
    for (spec, sp) in specs
        .iter()
        .zip(stats)
        .filter(|(s, _)| s.protocol_label == "sp")
    {
        let dir = find(spec.bench.name, spec.seed, "dir").expect("every sp cell has a dir twin");
        log_sum += (dir.exec_cycles as f64 / sp.exec_cycles as f64).ln();
        pairs += 1;
        suff += sp.pred_sufficient_comm;
        comm += sp.comm_misses;
        sp_hops += sp.noc.byte_hops;
        dir_hops += dir.noc.byte_hops;
    }
    [
        (log_sum / pairs as f64).exp(),
        suff as f64 / comm as f64,
        sp_hops as f64 / dir_hops as f64 - 1.0,
    ]
}

// ------------------------------------------------------------- probes

/// Per-layer numbers only the traced run measures, on the slice.
pub struct Probes {
    pub record_overhead: f64,
    pub cache_ns_per_access: f64,
    pub dir_ns_per_miss: f64,
    pub replay_ns_per_miss: f64,
    pub build_ms: f64,
    /// (host seconds, ops, NoC messages) of the slice's dir inputs under
    /// dir and under bc; used where the workload has no bc cells.
    pub dir_vs_bc: [(f64, u64, u64); 2],
    pub slice_allocs: u64,
    pub slice_ops: u64,
    pub slice_heap_peak: u64,
}

pub fn probes(ctx: &Ctx) -> Probes {
    let setup = ctx.setup;
    let slice = &ctx.slice;
    // Recording cost: the slice plain vs with recording and tracing,
    // alternated so host drift hits both.
    let (mut plain, mut recorded) = (0.0, 0.0);
    let (mut slice_allocs, mut slice_ops, mut slice_heap_peak) = (0, 0, 0);
    let mut traces: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
    for round in 0..3 {
        for &i in slice {
            let spec = &setup.specs[i];
            let w = &setup.inputs[i];
            let ((stats, secs), window) = alloc::counted(|| {
                timed("system.run_workload.plain", || {
                    CmpSystem::run_workload(w, &run_config(spec, false))
                })
            });
            plain += secs;
            if round == 0 {
                slice_allocs += window.allocs;
                slice_ops += stats.total_ops;
                slice_heap_peak = slice_heap_peak.max(window.peak_bytes);
            }
            let (mut stats, secs) = timed("system.run_workload.traced", || {
                CmpSystem::run_workload(w, &run_config(spec, true))
            });
            recorded += secs;
            if round == 0 {
                traces.push((i, std::mem::take(&mut stats.trace)));
            }
        }
    }

    // Cache layer: each core's addresses through an L1 + L2 of the
    // machine's geometry, filling on miss.
    let mut accesses = 0u64;
    let mut cache_secs = 0.0;
    for &i in slice
        .iter()
        .filter(|&&i| setup.specs[i].protocol_label == "dir")
    {
        let machine = &setup.specs[i].machine;
        for thread in setup.inputs[i].threads() {
            let blocks: Vec<BlockAddr> = thread
                .iter()
                .filter_map(Op::addr)
                .map(|a| a.block())
                .collect();
            let mut l1: SetAssocCache<()> = SetAssocCache::new(machine.l1);
            let mut l2: SetAssocCache<()> = SetAssocCache::new(machine.l2);
            let ((), secs) = timed("mem.cache_replay", || {
                for &b in &blocks {
                    if l1.lookup(b).is_none() {
                        if l2.lookup(b).is_none() {
                            l2.insert(b, ());
                        }
                        l1.insert(b, ());
                    }
                }
            });
            std::hint::black_box((l1.hits(), l2.hits()));
            cache_secs += secs;
            accesses += blocks.len() as u64;
        }
    }

    // Directory layer: the dir traces' misses as sharer updates.
    let (mut dir_misses, mut dir_secs) = (0u64, 0.0);
    // Predictor layer: each core's sync points and misses of the sp traces
    // through that core's predictor.
    let (mut sp_misses, mut sp_secs) = (0u64, 0.0);
    for (i, trace) in &traces {
        let cores = setup.specs[*i].machine.num_cores;
        if setup.specs[*i].protocol_label == "dir" {
            let mut dir = Directory::new(cores);
            let ((), secs) = timed("mem.dir_replay", || {
                for ev in trace {
                    if let TraceEvent::Miss {
                        core, block, kind, ..
                    } = *ev
                    {
                        if kind.is_exclusive() {
                            dir.record_exclusive(block, core);
                        } else {
                            dir.record_shared(block, core);
                        }
                    }
                }
            });
            std::hint::black_box(dir.tracked_blocks());
            dir_secs += secs;
            dir_misses += trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Miss { .. }))
                .count() as u64;
        } else {
            let cfg = SpConfig::default();
            let locks = shared_lock_table(cfg.history_depth);
            let mut preds: Vec<SpPredictor> = (0..cores)
                .map(|c| {
                    SpPredictor::with_lock_table(CoreId::new(c), cores, cfg.clone(), locks.clone())
                })
                .collect();
            let ((), secs) = timed("core.predictor_replay", || {
                for ev in trace {
                    match *ev {
                        TraceEvent::Sync {
                            core,
                            kind,
                            static_id,
                            ..
                        } => {
                            let point = match kind {
                                SyncKind::Lock => SyncPoint::lock(LockId::new(static_id)),
                                SyncKind::Unlock => SyncPoint::unlock(LockId::new(static_id)),
                                _ => SyncPoint::other(kind, StaticSyncId::new(static_id)),
                            };
                            preds[core.index()].on_sync_point(point, None);
                        }
                        TraceEvent::Miss {
                            core,
                            block,
                            pc,
                            kind,
                            targets,
                        } => {
                            let miss = MissInfo::new(block, pc, kind);
                            let p = &mut preds[core.index()];
                            let predicted = p.predict(&miss);
                            let sufficient =
                                !predicted.is_empty() && predicted.is_superset(targets);
                            p.train(
                                &miss,
                                PredictionOutcome {
                                    actual: targets,
                                    predicted,
                                    sufficient,
                                },
                            );
                        }
                    }
                }
            });
            std::hint::black_box(preds.iter().map(|p| p.stats().predictions).sum::<u64>());
            sp_secs += secs;
            sp_misses += trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Miss { .. }))
                .count() as u64;
        }
    }

    // NoC cost of broadcast: the slice's dir inputs under dir and bc.
    let mut dir_vs_bc = [(0.0, 0u64, 0u64); 2];
    for &i in slice
        .iter()
        .filter(|&&i| setup.specs[i].protocol_label == "dir")
    {
        let spec = &setup.specs[i];
        for (k, proto) in [ProtocolKind::Directory, ProtocolKind::Broadcast]
            .into_iter()
            .enumerate()
        {
            let cfg = RunConfig::new(spec.machine.clone(), proto);
            let (stats, secs) = timed("system.run_workload.noc_probe", || {
                CmpSystem::run_workload(&setup.inputs[i], &cfg)
            });
            dir_vs_bc[k].0 += secs;
            dir_vs_bc[k].1 += stats.total_ops;
            dir_vs_bc[k].2 += stats.noc.messages;
        }
    }

    // Machine construction: an empty workload of the same machine.
    let spec = &setup.specs[0];
    let empty = Workload::from_threads("empty", vec![Vec::new(); spec.machine.num_cores]);
    let cfg = RunConfig::new(spec.machine.clone(), spec.protocol.clone());
    let mut builds: Vec<f64> = (0..21)
        .map(|_| timed("system.build", || CmpSystem::run_workload(&empty, &cfg)).1)
        .collect();

    Probes {
        record_overhead: recorded / plain,
        cache_ns_per_access: cache_secs * 1e9 / accesses as f64,
        dir_ns_per_miss: dir_secs * 1e9 / dir_misses as f64,
        replay_ns_per_miss: sp_secs * 1e9 / sp_misses as f64,
        build_ms: crate::stats::median(&mut builds) * 1e3,
        dir_vs_bc,
        slice_allocs,
        slice_ops,
        slice_heap_peak,
    }
}
