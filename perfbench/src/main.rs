//! The SPCP benchmark: end-to-end metrics of four single-threaded
//! workloads (`--trace 0`) or per-layer metrics from spans around calls
//! into each crate (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper16 --seed 7 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a table of the same
//! metrics goes to standard error. See `perfbench/README.md`.

mod alloc;
mod bench;
mod hostref;
mod plan;
mod span;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench::{Checks, Ctx, Pass};
use plan::Plan;
use stats::{median, quantile};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run at least; more run until [`SETUP_SECS`] have passed.
/// `setup_s` is their median: one `mesh64` set-up takes only ~25 ms.
const MIN_SETUPS: usize = 5;
const SETUP_SECS: f64 = 1.0;

const USAGE: &str = "usage: spcp-perfbench --workload paper16|mesh64|trace16|farm_tiny \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A metric line: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(plan) = Plan::new(&args.workload, args.seed) else {
        eprintln!("unknown workload '{}'\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let spool_root =
        PathBuf::from(".perfbench_spool").join(format!("{}-{}", plan.name, std::process::id()));
    span::set_recording(args.trace);

    // Every set-up is normalized by the slowdown over all of them, which
    // rests on many more chunks than a single short set-up holds.
    let mut host = hostref::HostRef::new();
    let setup_mark = host.mark();
    let setups_t0 = Instant::now();
    let mut setup_secs = Vec::new();
    let mut gen_secs = Vec::new();
    let mut last = None;
    while setup_secs.len() < MIN_SETUPS || setups_t0.elapsed().as_secs_f64() < SETUP_SECS {
        drop(last.take());
        let s = bench::setup(&plan, &spool_root, &mut host);
        setup_secs.push(s.secs);
        gen_secs.push(s.gen_secs);
        last = Some(s);
    }
    let setup_slowdown = host.slowdown(setup_mark);
    for secs in &mut setup_secs {
        *secs /= setup_slowdown;
    }
    let setup = last.expect("at least one set-up");
    let mut ctx = Ctx {
        plan: &plan,
        seed: args.seed,
        slice: bench::slice_of(&setup),
        setup: &setup,
        spool_root: spool_root.clone(),
        traced_run: args.trace,
        checks: Checks::default(),
        host,
    };

    // Passes until the next one would end more than half a pass past
    // `--seconds`, and at least `plan::MIN_PASSES`. The traced run
    // alternates passes with and without tracing to measure its overhead.
    // Each later pass is checked against pass 0 as soon as it ends and
    // then drops its statistics and report, so memory does not grow with
    // the pass count.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let mut design = [0.0; 3];
    loop {
        let traced = args.trace && passes.len().is_multiple_of(2);
        span::set_recording(traced);
        ctx.traced_run = traced;
        let i = passes.len();
        let mut p = bench::pass(&mut ctx, i);
        bench::check_goldens(&mut ctx, &p.stats);
        match passes.first() {
            None => design = bench::design(&setup.specs, &p.stats),
            Some((first, _)) => {
                ctx.checks.check(p.report == first.report, || {
                    format!("pass {i} report differs from pass 0")
                });
                let again = bench::design(&setup.specs, &p.stats);
                ctx.checks
                    .check(again.map(f64::to_bits) == design.map(f64::to_bits), || {
                        format!("pass {i} sp metrics {again:?} differ from pass 0 {design:?}")
                    });
                p.stats = Vec::new();
                p.report = String::new();
            }
        }
        passes.push((p, traced));
        let elapsed = t0.elapsed();
        let mean = elapsed / passes.len() as u32;
        if passes.len() >= plan::MIN_PASSES && elapsed + mean / 2 >= budget {
            break;
        }
    }
    let measured = t0.elapsed().as_secs_f64();

    let first = &passes[0].0;
    let samples: usize = passes.iter().map(|(p, _)| p.cell_ns.len()).sum();
    eprintln!(
        "{}: seed {}, {} passes in {measured:.1}s, {} cells/pass, {samples} cell samples, tail = p{}",
        plan.name,
        args.seed,
        passes.len(),
        first.stats.len(),
        plan.tail_pct
    );

    let metrics = if args.trace {
        span::set_recording(true);
        let probes = bench::probes(&ctx);
        let path = PathBuf::from(".perfbench_out")
            .join(format!("spans-{}-seed{}.jsonl", plan.name, args.seed));
        match span::write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
        eprintln!(
            "{:<32} {:>12} {:>12} {:>9}",
            "span", "self s", "total s", "count"
        );
        for (name, (own, total, count)) in span::self_times() {
            eprintln!("{name:<32} {own:>12.6} {total:>12.6} {count:>9}");
        }
        per_layer(&ctx, &passes, &mut gen_secs, &probes)
    } else {
        end_to_end(&plan, setup.specs.len(), &passes, &mut setup_secs, design)
    };

    if spool_root.exists() {
        if let Err(e) = std::fs::remove_dir_all(&spool_root) {
            eprintln!("warning: could not remove {}: {e}", spool_root.display());
        }
    }
    // Drop the parent directory too when no other run is using it.
    let _ = std::fs::remove_dir(".perfbench_spool");

    let mut json = String::from("{\"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("warning: {name} is not finite; reported as 0");
            0.0
        };
        eprintln!("{name:<28} {value:>20.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let checks = &ctx.checks;
    json.push_str(&format!(
        "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    ));
    println!("{json}");
}

/// The host-time metrics of `passes`: the four rates and times (medians
/// over passes) and every cell sample's ns per op. When `normalized`, each
/// pass's times are divided by its host slowdown (rates multiplied), the
/// trace pipeline's by the slowdown of its own stage; see `hostref`.
/// Otherwise the names carry a `raw.` prefix.
fn host_times(passes: &[&Pass], cells: usize, normalized: bool) -> ([Metric; 4], Vec<f64>) {
    let k = |p: &Pass| if normalized { p.slowdown } else { 1.0 };
    let names = if normalized {
        [
            "sim_ops_per_s",
            "cells_per_s",
            "resume_s",
            "trace_events_per_s",
        ]
    } else {
        [
            "raw.sim_ops_per_s",
            "raw.cells_per_s",
            "raw.resume_s",
            "raw.trace_events_per_s",
        ]
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        let mut v: Vec<f64> = passes.iter().map(|p| f(p)).collect();
        median(&mut v)
    };
    let rates = [
        (names[0], per_pass(&|p| p.sim_ops_per_s() * k(p)), "ops/s"),
        (
            names[1],
            per_pass(&|p| cells as f64 / p.window_secs * k(p)),
            "cells/s",
        ),
        (names[2], per_pass(&|p| p.resume_secs / k(p)), "s"),
        (
            names[3],
            per_pass(&|p| {
                let k = if normalized { p.trace_slowdown } else { 1.0 };
                p.trace.events as f64 / p.trace.secs() * k
            }),
            "events/s",
        ),
    ];
    let cell_ns = passes
        .iter()
        .flat_map(|p| p.cell_ns.iter().map(move |ns| ns / k(p)))
        .collect();
    (rates, cell_ns)
}

fn end_to_end(
    plan: &Plan,
    cells: usize,
    passes: &[(Pass, bool)],
    setup_secs: &mut [f64],
    design: [f64; 3],
) -> Vec<Metric> {
    let all: Vec<&Pass> = passes.iter().map(|(p, _)| p).collect();
    let (raw, mut raw_ns) = host_times(&all, cells, false);
    let mut slowdowns: Vec<f64> = all.iter().map(|p| p.slowdown).collect();
    eprintln!(
        "host slowdown: median {:.3} over passes; raw:",
        median(&mut slowdowns)
    );
    for (name, value, unit) in raw {
        eprintln!("  {name:<26} {value:>20.6} {unit}");
    }
    eprintln!(
        "  {:<26} {:>20.6} ns",
        "raw.cell_ns_per_op_p50",
        median(&mut raw_ns)
    );

    let (rates, mut cell_ns) = host_times(&all, cells, true);
    let mut out = rates.to_vec();
    out.extend([
        ("cell_ns_per_op_p50", median(&mut cell_ns), "ns"),
        (
            "cell_ns_per_op_tail",
            quantile(&mut cell_ns, plan.tail_pct / 100.0),
            "ns",
        ),
        ("setup_s", median(setup_secs), "s"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ("sp_exec_speedup", design[0], "ratio"),
        ("sp_accuracy", design[1], "fraction"),
        ("sp_bw_overhead", design[2], "fraction"),
    ]);
    out
}

fn per_layer(
    ctx: &Ctx,
    passes: &[(Pass, bool)],
    gen_secs: &mut [f64],
    probes: &bench::Probes,
) -> Vec<Metric> {
    let on: Vec<&Pass> = passes.iter().filter(|(_, t)| *t).map(|(p, _)| p).collect();
    let off: Vec<&Pass> = passes.iter().filter(|(_, t)| !*t).map(|(p, _)| p).collect();
    let med = |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| -> f64 {
        let mut v: Vec<f64> = ps.iter().map(|p| f(p)).collect();
        median(&mut v)
    };
    let setup = ctx.setup;
    let stats = &on[0].stats;
    let sum = |f: &dyn Fn(&spcp_system::RunStats) -> u64| -> f64 {
        stats.iter().map(f).sum::<u64>() as f64
    };
    let sp_sum = |f: &dyn Fn(&spcp_system::RunStats) -> u64| -> f64 {
        setup
            .specs
            .iter()
            .zip(stats)
            .filter(|(s, _)| s.protocol_label == "sp")
            .map(|(_, st)| f(st))
            .sum::<u64>() as f64
    };
    let msgs = |label: &str| -> f64 {
        setup
            .specs
            .iter()
            .zip(stats)
            .filter(|(s, _)| s.protocol_label == label)
            .map(|(_, st)| st.noc.messages)
            .sum::<u64>() as f64
    };

    // Per protocol: the workload's own cells, or the broadcast probe on
    // the slice where the workload has no bc cells.
    let has_bc = on[0].sim_ops[1] > 0;
    let sim_s = |k: usize| -> f64 {
        if k == 1 && !has_bc {
            probes.dir_vs_bc[1].0
        } else {
            med(&on, &|p| p.sim_secs[k])
        }
    };
    let ns_per_op = |k: usize| -> f64 {
        if k == 1 && !has_bc {
            probes.dir_vs_bc[1].0 * 1e9 / probes.dir_vs_bc[1].1 as f64
        } else {
            med(&on, &|p| p.sim_secs[k] * 1e9 / p.sim_ops[k] as f64)
        }
    };
    let ns_per_extra_msg = if has_bc {
        med(&on, &|p| (p.sim_secs[1] - p.sim_secs[0]) * 1e9) / (msgs("bc") - msgs("dir"))
    } else {
        let [d, b] = probes.dir_vs_bc;
        (b.0 - d.0) * 1e9 / (b.2 as f64 - d.2 as f64)
    };
    let (allocs, alloc_ops, heap_peak) = if ctx.plan.streamed {
        (
            probes.slice_allocs,
            probes.slice_ops,
            probes.slice_heap_peak,
        )
    } else {
        (
            on.iter().map(|p| p.allocs).sum(),
            on.iter().map(|p| p.alloc_ops).sum(),
            on.iter().map(|p| p.heap_peak).max().unwrap_or(0),
        )
    };
    let harness =
        |f: &dyn Fn(&bench::HarnessTally) -> f64| -> f64 { on.iter().map(|p| f(&p.harness)).sum() };
    let trace =
        |f: &dyn Fn(&bench::TraceTally) -> f64| -> f64 { on.iter().map(|p| f(&p.trace)).sum() };
    let events = trace(&|t| t.events as f64);
    let accesses = sum(&|s| s.loads + s.stores);
    let gen_s = median(gen_secs);

    let mut out = vec![
        ("workloads.gen_s", gen_s, "s"),
        (
            "workloads.gen_ns_per_op",
            gen_s * 1e9 / setup.gen_ops as f64,
            "ns",
        ),
        ("system.sim_s.dir", sim_s(0), "s"),
        ("system.sim_s.bc", sim_s(1), "s"),
        ("system.sim_s.sp", sim_s(2), "s"),
        ("system.ns_per_op.dir", ns_per_op(0), "ns"),
        ("system.ns_per_op.bc", ns_per_op(1), "ns"),
        ("system.ns_per_op.sp", ns_per_op(2), "ns"),
        ("system.build_ms", probes.build_ms, "ms"),
        ("system.record_overhead", probes.record_overhead, "ratio"),
        (
            "system.allocs_per_kop",
            allocs as f64 * 1e3 / alloc_ops as f64,
            "allocs/kop",
        ),
        (
            "system.heap_peak_mb",
            heap_peak as f64 / (1u64 << 20) as f64,
            "MB",
        ),
        (
            "mem.l1_hit_ratio",
            sum(&|s| s.l1_hits) / accesses,
            "fraction",
        ),
        (
            "mem.l2_miss_ratio",
            sum(&|s| s.l2_misses) / (accesses - sum(&|s| s.l1_hits)),
            "fraction",
        ),
        ("mem.cache_ns_per_access", probes.cache_ns_per_access, "ns"),
        ("mem.dir_ns_per_miss", probes.dir_ns_per_miss, "ns"),
        ("noc.messages", sum(&|s| s.noc.messages), "count"),
        ("noc.byte_hops", sum(&|s| s.noc.byte_hops), "count"),
        (
            "noc.contention_cycles",
            sum(&|s| s.noc.contention_cycles),
            "count",
        ),
        ("noc.ns_per_extra_msg", ns_per_extra_msg, "ns"),
        ("core.predictions", sp_sum(&|s| s.predictions), "count"),
        (
            "core.sufficient_ratio",
            sp_sum(&|s| s.pred_sufficient) / sp_sum(&|s| s.predictions),
            "fraction",
        ),
        (
            "core.mean_predicted_set",
            sp_sum(&|s| s.predicted_set_sum) / sp_sum(&|s| s.predictions),
            "cores",
        ),
        ("core.replay_ns_per_miss", probes.replay_ns_per_miss, "ns"),
        (
            "harness.append_us_per_record",
            harness(&|h| h.append_secs) * 1e6 / harness(&|h| h.appends as f64),
            "us",
        ),
        (
            "harness.merge_us_per_record",
            harness(&|h| h.merge_secs) * 1e6 / harness(&|h| h.merges as f64),
            "us",
        ),
        (
            "harness.bytes_per_record",
            harness(&|h| h.bytes as f64) / harness(&|h| h.records as f64),
            "bytes",
        ),
        (
            "harness.resume_scan_s",
            med(&on, &|p| p.harness.resume_scan_secs),
            "s",
        ),
        (
            "harness.engine_overhead_s",
            med(&on, &|p| p.harness.engine_overhead_secs),
            "s",
        ),
        (
            "trace.encode_ns_per_event",
            trace(&|t| t.encode) * 1e9 / events,
            "ns",
        ),
        (
            "trace.decode_ns_per_event",
            trace(&|t| t.decode) * 1e9 / events,
            "ns",
        ),
        (
            "trace.bytes_per_event",
            trace(&|t| t.bytes as f64) / events,
            "bytes",
        ),
        (
            "trace.analyze_ns_per_event",
            trace(&|t| t.analyze) * 1e9 / events,
            "ns",
        ),
        (
            "verify.race_ns_per_event",
            trace(&|t| t.race) * 1e9 / events,
            "ns",
        ),
        (
            "trace_overhead",
            med(&off, &|p| p.sim_ops_per_s()) / med(&on, &|p| p.sim_ops_per_s()),
            "ratio",
        ),
    ];
    // The end-to-end host-time metrics before normalization, and the
    // slowdown they are normalized by, from the passes without tracing.
    let (raw, mut raw_ns) = host_times(&off, ctx.setup.specs.len(), false);
    out.extend(raw);
    out.extend([
        ("raw.cell_ns_per_op_p50", median(&mut raw_ns), "ns"),
        ("host.slowdown", med(&off, &|p| p.slowdown), "ratio"),
    ]);
    out
}
