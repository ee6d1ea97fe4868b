//! `spcp` — command-line driver for the SP-prediction reproduction.
//!
//! ```text
//! spcp list
//! spcp run --bench ocean --protocol sp [--seed 7] [--filter] [--json]
//! spcp compare --bench x264 [--seed 7]
//! spcp characterize --bench streamcluster [--core 0]
//! ```

mod args;
mod report;

use std::io::Write;

use args::Args;
use spcp_harness::{golden, Replay, RunMatrix, StreamConfig, SweepEngine};
use spcp_sim::MeanAccumulator;
use spcp_system::{CmpSystem, CoherenceVariant, MachineConfig, ProtocolKind, RunConfig};
use spcp_verify::{analyze_races, ModelChecker, ModelConfig};
use spcp_workloads::suite;

const USAGE: &str = "spcp — synchronization-point coherence prediction simulator

USAGE:
  spcp list                                     list benchmark models
  spcp run --bench <name> --protocol <p>        simulate one run
      [--seed <n>] [--filter] [--json]
      (--spec-file <path> runs a text workload spec instead of --bench)
      protocols: directory broadcast sp addr inst uni multicast
  spcp compare --bench <name> [--seed <n>]      all protocols side by side
      [--jobs <n>] [--out <dir>] [--resume] [--flush-every <n>]
  spcp sweep [--benches a,b,..] [--protocols p,q,..]
      [--seeds 7,11,..] [--jobs <n>]            parallel run matrix
      [--out <dir>]                             stream results to spool shards
      [--resume]                                continue an interrupted sweep,
                                                re-running only missing cells
      [--flush-every <n>]                       records between spool fsyncs
                                                (default 32)
      [--golden <file>] [--update-golden]       verify/write a golden snapshot
      [--timing]                                per-run wall-clock + ops/s
                                                report on stderr
  spcp characterize --bench <name> [--core <n>] sync-epoch hot sets
  spcp trace --bench <name> --out <file>        collect a miss/sync trace
      [--seed <n>] [--cores <n>]                (n = 4, 9, .., 64 cores on
                                                a square mesh; default 16)
  spcp analyze --trace <file> [--cores <n>]     characterize a trace file
  spcp matrix --bench <name> [--protocol <p>]   communication-matrix heatmap
  spcp check [--bench <name>] [--protocol <p>]  run with coherence audits on
      [--seed <n>]                              (all benchmarks when no --bench)
  spcp check --model [--cores 2..4] [--lines 1..2]
      [--mesi] [--no-predictor-race]            exhaustive protocol model check
  spcp check --trace <file> [--cores <n>]       sync-epoch race analysis
      exit status is nonzero on any violation / race
  spcp exp list                                 list the paper's figures,
                                                tables and extensions
  spcp exp <name>... | all                      regenerate them on stdout
      [--jobs <n>] [--out <dir>] [--resume]     (sweeps spool under
      [--flush-every <n>]                       <dir>/<name>/<n>)
";

fn protocol_from(name: &str) -> Result<ProtocolKind, String> {
    spcp_bench::protocol(name).ok_or_else(|| format!("unknown protocol '{name}'"))
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<14} {:>9} {:>9} {:>11} {:>11}",
        "benchmark", "statEp", "statCS", "dynEp/core", "~ops/core"
    );
    for s in suite::all() {
        println!(
            "{:<14} {:>9} {:>9} {:>11} {:>11}",
            s.name,
            s.static_epochs(),
            s.static_critical_sections(),
            s.dynamic_epochs_per_core(),
            s.ops_per_core(),
        );
    }
    Ok(())
}

fn load_spec(args: &Args) -> Result<spcp_workloads::BenchmarkSpec, String> {
    if let Some(path) = args.opt("spec-file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return spcp_workloads::textspec::parse_spec(&text).map_err(|e| e.to_string());
    }
    let bench = args
        .opt("bench")
        .ok_or("run requires --bench <name> or --spec-file <path>")?;
    suite::by_name(bench).ok_or_else(|| format!("unknown benchmark '{bench}'"))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let protocol = protocol_from(args.opt("protocol").unwrap_or("sp"))?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let workload = spec.generate(16, seed);
    let mut cfg = RunConfig::new(MachineConfig::paper_16core(), protocol);
    if args.flag("filter") {
        cfg = cfg.with_snoop_filter();
    }
    let stats = CmpSystem::run_workload(&workload, &cfg);
    if args.flag("json") {
        println!("{}", report::json_summary(&stats));
    } else {
        print!("{}", report::text_summary(&stats));
    }
    Ok(())
}

/// `--jobs <n>` with the machine's parallelism as the default.
fn jobs_arg(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Ok(args.opt_parse("jobs", default)?.max(1))
}

/// `--out/--resume/--flush-every`: the streamed-spool options shared by
/// `sweep` and `compare`. `None` selects the in-memory path.
fn stream_config_from(args: &Args) -> Result<Option<StreamConfig>, String> {
    let Some(dir) = args.opt("out") else {
        if args.flag("resume") {
            return Err("--resume requires --out <dir>".into());
        }
        if args.opt("flush-every").is_some() {
            return Err("--flush-every requires --out <dir>".into());
        }
        return Ok(None);
    };
    let flush: usize = args.opt_parse("flush-every", spcp_harness::stream::DEFAULT_FLUSH_EVERY)?;
    if flush == 0 {
        return Err("--flush-every must be at least 1".into());
    }
    Ok(Some(
        StreamConfig::new(dir)
            .flush_every(flush)
            .resume(args.flag("resume")),
    ))
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let bench = args.opt("bench").ok_or("compare requires --bench <name>")?;
    let spec = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark '{bench}'"))?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let mut matrix = RunMatrix::new().bench(spec).seeds(&[seed]);
    for (label, kind) in spcp_bench::protocols() {
        matrix = matrix.protocol(label, kind);
    }
    let sweep = run_sweep(args, &matrix)?;
    println!(
        "{:<12} {:>10} {:>9} {:>12} {:>9} {:>11}",
        "protocol", "exec", "misslat", "byte-hops", "accuracy", "storage(KB)"
    );
    sweep
        .replay(&mut |spec, s, _| {
            println!(
                "{:<12} {:>10} {:>9.1} {:>12} {:>8.1}% {:>11.2}",
                spec.protocol_label,
                s.exec_cycles,
                s.miss_latency.mean(),
                s.noc.byte_hops,
                s.accuracy() * 100.0,
                s.predictor_storage_bits as f64 / 8.0 / 1024.0,
            )
        })
        .map_err(|e| e.to_string())
}

/// Runs `matrix` on `--jobs` workers, spooling it under `--out` when
/// given, and prints the harness status line on stderr.
fn run_sweep(args: &Args, matrix: &RunMatrix) -> Result<Box<dyn Replay>, String> {
    let engine = SweepEngine::new(jobs_arg(args)?);
    Ok(match stream_config_from(args)? {
        Some(cfg) => {
            let streamed = engine
                .run_streamed(matrix, &cfg)
                .map_err(|e| e.to_string())?;
            eprintln!("[harness] {}", streamed.status_line());
            Box::new(streamed)
        }
        None => {
            let result = engine.run(matrix);
            eprintln!("[harness] {}", result.timing_line());
            Box::new(result)
        }
    })
}

/// Splits a comma-separated option; `None` when absent.
fn list_opt<'a>(args: &'a Args, key: &str) -> Option<Vec<&'a str>> {
    args.opt(key).map(|v| {
        v.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    })
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let mut matrix = RunMatrix::new();
    match list_opt(args, "benches") {
        Some(names) => {
            for name in names {
                let spec =
                    suite::by_name(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
                matrix = matrix.bench(spec);
            }
        }
        None => matrix = matrix.benches(suite::all()),
    }
    for name in list_opt(args, "protocols").unwrap_or_else(|| vec!["directory", "sp"]) {
        matrix = matrix.protocol(name, protocol_from(name)?);
    }
    if let Some(seeds) = list_opt(args, "seeds") {
        let parsed: Vec<u64> = seeds
            .iter()
            .map(|s| s.parse().map_err(|_| format!("invalid seed '{s}'")))
            .collect::<Result<_, String>>()?;
        matrix = matrix.seeds(&parsed);
    }
    if args.flag("filter") {
        matrix = matrix.with_snoop_filter();
    }
    if matrix.is_empty() {
        return Err("sweep matrix is empty".into());
    }

    let sweep = run_sweep(args, &matrix)?;
    // Timing goes to stderr only: stdout (and golden files) must stay
    // bit-identical across hosts and worker counts.
    if args.flag("timing") {
        eprintln!("[harness] per-run timing");
        sweep
            .replay(&mut |spec, s, wall| {
                let secs = wall.as_secs_f64();
                let ops_per_sec = s.total_ops as f64 / secs.max(f64::MIN_POSITIVE);
                eprintln!("{:<30}  {secs:>9.3}s  {ops_per_sec:>12.0} ops/s", spec.id());
            })
            .map_err(|e| e.to_string())?;
    }

    if let Some(path) = args.opt("golden") {
        let rendered = golden::render_sweep(&*sweep).map_err(|e| e.to_string())?;
        return golden_out(args, path, &rendered);
    }

    println!(
        "{:<30} {:>10} {:>9} {:>12} {:>9}",
        "run", "exec", "misslat", "byte-hops", "accuracy"
    );
    let (mut runs, mut ops, mut comm_misses, mut sufficient) = (0u64, 0u64, 0u64, 0u64);
    let mut latency = MeanAccumulator::new();
    sweep
        .replay(&mut |spec, s, _| {
            println!(
                "{:<30} {:>10} {:>9.1} {:>12} {:>8.1}%",
                spec.id(),
                s.exec_cycles,
                s.miss_latency.mean(),
                s.noc.byte_hops,
                s.accuracy() * 100.0,
            );
            runs += 1;
            ops += s.total_ops;
            latency.merge(&s.miss_latency);
            // The column's `RunStats::accuracy`, pooled over the runs
            // that predict: a non-predicting run's communicating misses
            // would only dilute it.
            if s.predictions > 0 {
                comm_misses += s.comm_misses;
                sufficient += s.pred_sufficient_comm;
            }
        })
        .map_err(|e| e.to_string())?;
    let accuracy = sufficient as f64 / comm_misses.max(1) as f64;
    println!(
        "---\n{runs} runs | {ops} ops | mean miss latency {:.1} | accuracy {:.1}%",
        latency.mean(),
        accuracy * 100.0,
    );
    Ok(())
}

/// Writes or verifies a golden snapshot at `path`.
fn golden_out(args: &Args, path: &str, rendered: &str) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if args.flag("update-golden") {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        std::fs::write(path, rendered).map_err(|e| e.to_string())?;
        println!("wrote golden snapshot {}", path.display());
        return Ok(());
    }
    match golden::check_or_update(path, rendered) {
        Ok(true) => println!("wrote golden snapshot {}", path.display()),
        Ok(false) => println!("golden snapshot {} matches", path.display()),
        Err(e) => return Err(e.to_string()),
    }
    Ok(())
}

/// `spcp exp list | <name>… | all`: runs registered experiments, each
/// writing its report to stdout.
fn cmd_exp(args: &Args) -> Result<(), String> {
    use spcp_bench::{experiment, EXPERIMENTS};
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let listed = |what: String| format!("{what}; experiments:\n  {}", names.join("\n  "));
    let selected: Vec<_> = match args.positional.as_slice() {
        [one] if one == "list" => {
            return writeln!(std::io::stdout(), "{}", names.join("\n")).map_err(|e| e.to_string())
        }
        [one] if one == "all" => EXPERIMENTS.iter().collect(),
        [] => return Err(listed("exp needs `list`, `all` or experiment names".into())),
        given => given
            .iter()
            .map(|n| experiment(n).ok_or_else(|| listed(format!("unknown experiment '{n}'"))))
            .collect::<Result<_, _>>()?,
    };
    let mut lab = spcp_bench::Lab::new(jobs_arg(args)?);
    if let Some(cfg) = stream_config_from(args)? {
        lab = lab.streamed(cfg);
    }
    let mut out = std::io::stdout().lock();
    for e in selected {
        e.execute(&lab, &mut out)
            .map_err(|err| format!("{}: {err}", e.name))?;
    }
    Ok(())
}

fn cmd_characterize(args: &Args) -> Result<(), String> {
    let bench = args
        .opt("bench")
        .ok_or("characterize requires --bench <name>")?;
    let spec = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark '{bench}'"))?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let core: usize = args.opt_parse("core", 0)?;
    if core >= 16 {
        return Err("--core must be below 16".into());
    }
    let workload = spec.generate(16, seed);
    let stats = CmpSystem::run_workload(
        &workload,
        &RunConfig::new(MachineConfig::paper_16core(), ProtocolKind::Directory).recording(),
    );
    println!(
        "{bench}, core {core}: {} epoch instances",
        stats.epoch_records[core].len()
    );
    println!("{:<26} {:>8} {:>5}  hot set", "epoch", "volume", "size");
    for r in stats.epoch_records[core].iter().take(50) {
        let hot = r.hot_set(0.10);
        let bits: String = (0..16)
            .map(|i| {
                if hot.contains(spcp_sim::CoreId::new(i)) {
                    'X'
                } else {
                    '.'
                }
            })
            .collect();
        println!(
            "{:<26} {:>8} {:>5}  {}",
            format!("({}, {})", r.id, r.instance),
            r.total_volume(),
            hot.len(),
            bits
        );
    }
    Ok(())
}

/// The paper's machine with `cores` cores on a square mesh; 16 cores is
/// the paper's 4 × 4 machine itself.
fn square_mesh(cores: usize) -> Result<MachineConfig, String> {
    let side = (2..=8).find(|s| s * s == cores).ok_or_else(|| {
        format!("--cores must be a perfect square from 4 to 64 (a square mesh), got {cores}")
    })?;
    let mut machine = MachineConfig::paper_16core();
    machine.num_cores = cores;
    machine.noc.width = side;
    machine.noc.height = side;
    Ok(machine)
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let bench = args.opt("bench").ok_or("trace requires --bench <name>")?;
    let out = args.opt("out").ok_or("trace requires --out <file>")?;
    let spec = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark '{bench}'"))?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let machine = square_mesh(args.opt_parse("cores", 16)?)?;
    let workload = spec.generate(machine.num_cores, seed);
    let stats = CmpSystem::run_workload(
        &workload,
        &RunConfig::new(machine, ProtocolKind::Directory).tracing(),
    );
    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    spcp_trace::write_trace(&mut w, &stats.trace).map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {} events ({} misses) for {bench} to {out}",
        stats.trace.len(),
        stats.l2_misses
    );
    Ok(())
}

/// Reads the trace at `path` for a `cores`-core machine, refusing a trace
/// that names a core (issuer or miss target) the machine does not have.
fn read_trace_for(path: &str, cores: usize) -> Result<Vec<spcp_trace::TraceEvent>, String> {
    let max = spcp_sim::CoreSet::MAX_CORES;
    if !(1..=max).contains(&cores) {
        return Err(format!("--cores must be 1..={max}, got {cores}"));
    }
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let events = spcp_trace::read_trace(file).map_err(|e| format!("{path}: {e}"))?;
    if let Some((i, core)) = spcp_trace::first_core_out_of_range(&events, cores) {
        return Err(format!(
            "{path}: event {} names core {}, but --cores is {cores}; \
             pass the core count of the machine that recorded the trace \
             (at least --cores {})",
            i + 1,
            core.index(),
            core.index() + 1
        ));
    }
    Ok(events)
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let path = args.opt("trace").ok_or("analyze requires --trace <file>")?;
    let cores: usize = args.opt_parse("cores", 16)?;
    let events = read_trace_for(path, cores)?;
    let a = spcp_trace::TraceAnalyzer::from_events(cores, &events);
    println!("events               {}", events.len());
    println!("L2 misses            {}", a.total_misses());
    println!(
        "communicating        {} ({:.1}%)",
        a.comm_misses(),
        a.comm_ratio() * 100.0
    );
    println!("static epochs/core   {:.1}", a.static_epochs_per_core());
    println!("dynamic epochs/core  {:.1}", a.dynamic_epochs_per_core());
    let dist = a.hot_set_size_distribution(0.10);
    let total: u64 = dist.iter().sum();
    if total > 0 {
        println!(
            "hot-set sizes        1:{:.0}% 2:{:.0}% 3:{:.0}% 4:{:.0}% >=5:{:.0}%",
            dist[0] as f64 / total as f64 * 100.0,
            dist[1] as f64 / total as f64 * 100.0,
            dist[2] as f64 / total as f64 * 100.0,
            dist[3] as f64 / total as f64 * 100.0,
            dist[4] as f64 / total as f64 * 100.0,
        );
    }
    Ok(())
}

fn cmd_matrix(args: &Args) -> Result<(), String> {
    let bench = args.opt("bench").ok_or("matrix requires --bench <name>")?;
    let spec = suite::by_name(bench).ok_or_else(|| format!("unknown benchmark '{bench}'"))?;
    let protocol = protocol_from(args.opt("protocol").unwrap_or("directory"))?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let workload = spec.generate(16, seed);
    let stats = CmpSystem::run_workload(
        &workload,
        &RunConfig::new(MachineConfig::paper_16core(), protocol),
    );
    let max = stats.comm_matrix.max().max(1);
    // Log-ish shading so sparse rows stay visible.
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    println!("{bench}: communication volume, source rows x target columns");
    println!(
        "      {}",
        (0..16).map(|i| format!("{i:>3}")).collect::<String>()
    );
    for (src, row) in stats.comm_matrix.rows().enumerate() {
        print!("  {src:>2} |");
        for &v in row {
            let shade = if v == 0 {
                shades[0]
            } else {
                let idx = 1
                    + ((v as f64).ln_1p() / (max as f64).ln_1p() * (shades.len() - 2) as f64)
                        .round() as usize;
                shades[idx.min(shades.len() - 1)]
            };
            print!("  {shade}");
        }
        println!(" | {}", row.iter().sum::<u64>());
    }
    println!("(max cell = {max} communication events)");
    Ok(())
}

/// `spcp check --model`: exhaustive state enumeration of the protocol
/// transition tables on a small configuration.
fn cmd_check_model(args: &Args) -> Result<(), String> {
    let cores: usize = args.opt_parse("cores", 2)?;
    let lines: usize = args.opt_parse("lines", 1)?;
    if !(2..=4).contains(&cores) {
        return Err("--cores must be 2..=4 (exhaustive enumeration)".into());
    }
    if !(1..=2).contains(&lines) {
        return Err("--lines must be 1..=2 (exhaustive enumeration)".into());
    }
    let cfg = ModelConfig {
        cores,
        lines,
        variant: if args.flag("mesi") {
            CoherenceVariant::Mesi
        } else {
            CoherenceVariant::Mesif
        },
        predictor_race: !args.flag("no-predictor-race"),
    };
    let label = format!(
        "{} cores x {} lines, {:?}{}",
        cfg.cores,
        cfg.lines,
        cfg.variant,
        if cfg.predictor_race {
            ", predictor-race audit"
        } else {
            ""
        }
    );
    match ModelChecker::new(cfg).check() {
        Ok(stats) => {
            println!(
                "model check ok: {label}; {} states, {} transitions, 0 violations",
                stats.states, stats.transitions
            );
            Ok(())
        }
        Err(cex) => Err(format!("model check FAILED: {label}\n{cex}")),
    }
}

/// `spcp check --trace <file>`: happens-before race analysis of a recorded
/// trace.
fn cmd_check_trace(args: &Args, path: &str) -> Result<(), String> {
    let cores: usize = args.opt_parse("cores", 16)?;
    let events = read_trace_for(path, cores)?;
    let report = analyze_races(cores, &events);
    println!("{path}: {}", report.summary());
    if report.is_clean() {
        return Ok(());
    }
    let mut msg = format!("{} unordered communication pair(s):", report.races.len());
    for f in report.races.iter().take(20) {
        msg.push_str(&format!("\n  {f}"));
    }
    if report.races.len() > 20 {
        msg.push_str(&format!("\n  ... and {} more", report.races.len() - 20));
    }
    Err(msg)
}

/// `spcp check`: one benchmark (or the whole suite) under the runtime
/// coherence audit layer; any violation aborts with a nonzero exit.
fn cmd_check(args: &Args) -> Result<(), String> {
    if args.flag("model") {
        return cmd_check_model(args);
    }
    if let Some(path) = args.opt("trace") {
        return cmd_check_trace(args, path);
    }
    if !spcp_system::invariants_compiled() {
        return Err(
            "this binary was built without the runtime invariant layer; \
             rebuild with `cargo build --features invariants` \
             (debug builds always include it)"
                .into(),
        );
    }
    let protocol = protocol_from(args.opt("protocol").unwrap_or("sp"))?;
    let seed: u64 = args.opt_parse("seed", 7)?;
    let specs = match args.opt("bench") {
        Some(_) => vec![load_spec(args)?],
        None if args.opt("spec-file").is_some() => vec![load_spec(args)?],
        None => suite::all(),
    };
    let mut transactions = 0u64;
    for spec in &specs {
        let workload = spec.generate(16, seed);
        let cfg = RunConfig::new(MachineConfig::paper_16core(), protocol.clone());
        let stats = CmpSystem::run_workload_checked(&workload, &cfg)
            .map_err(|v| format!("{}: {v}", spec.name))?;
        println!(
            "{:<14} ok  {:>8} misses audited, {:>10} cycles",
            spec.name, stats.l2_misses, stats.exec_cycles
        );
        transactions += stats.l2_misses;
    }
    println!(
        "check ok: {} benchmark(s), {} transactions audited, 0 violations",
        specs.len(),
        transactions
    );
    Ok(())
}

fn dispatch(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(args),
        "compare" => cmd_compare(args),
        "sweep" => cmd_sweep(args),
        "characterize" => cmd_characterize(args),
        "trace" => cmd_trace(args),
        "analyze" => cmd_analyze(args),
        "matrix" => cmd_matrix(args),
        "check" => cmd_check(args),
        "exp" => cmd_exp(args),
        "" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    if let Err(e) = dispatch(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_parsing_covers_all_schemes() {
        for p in [
            "directory",
            "broadcast",
            "sp",
            "addr",
            "inst",
            "uni",
            "multicast",
        ] {
            assert!(protocol_from(p).is_ok(), "{p}");
        }
        assert!(protocol_from("bogus").is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        let a = Args::parse(["frobnicate".to_string()]);
        assert!(dispatch(&a).is_err());
    }

    #[test]
    fn run_requires_bench() {
        let a = Args::parse(["run".to_string()]);
        assert!(dispatch(&a).unwrap_err().contains("--bench"));
    }

    #[test]
    fn run_from_spec_file() {
        let path = std::env::temp_dir().join("spcp-cli-test.spec");
        std::fs::write(
            &path,
            "benchmark filetest
phase 2
  epoch 1 stable 2
    traffic 16 16
end
",
        )
        .unwrap();
        let a = Args::parse(
            format!("run --spec-file {} --protocol sp --json", path.display())
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_spec_file_reports_line() {
        let path = std::env::temp_dir().join("spcp-cli-bad.spec");
        std::fs::write(
            &path,
            "benchmark x
phase 0
end
",
        )
        .unwrap();
        let a = Args::parse(
            format!("run --spec-file {}", path.display())
                .split_whitespace()
                .map(String::from),
        );
        let err = dispatch(&a).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn list_succeeds() {
        assert!(cmd_list().is_ok());
    }

    #[test]
    fn trace_then_analyze_round_trip() {
        let dir = std::env::temp_dir().join("spcp-cli-test-trace.txt");
        let path = dir.to_str().unwrap().to_string();
        let t = Args::parse(
            format!("trace --bench x264 --out {path}")
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&t).is_ok());
        let a = Args::parse(
            format!("analyze --trace {path}")
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn matrix_smoke() {
        let a = Args::parse("matrix --bench x264".split_whitespace().map(String::from));
        assert!(dispatch(&a).is_ok());
    }

    #[test]
    fn analyze_missing_file_errors() {
        let a = Args::parse(
            "analyze --trace /nonexistent/x.trace"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_err());
    }

    #[test]
    fn compare_smoke_with_jobs() {
        let a = Args::parse(
            "compare --bench x264 --jobs 2"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
    }

    #[test]
    fn sweep_smoke() {
        let a = Args::parse(
            "sweep --benches fft,lu --protocols dir,sp --seeds 7 --jobs 2"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
    }

    #[test]
    fn sweep_rejects_unknown_benchmark() {
        let a = Args::parse(
            "sweep --benches nosuch --jobs 1"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).unwrap_err().contains("nosuch"));
    }

    #[test]
    fn sweep_golden_write_then_verify() {
        let path = std::env::temp_dir().join("spcp-cli-test-sweep.golden");
        let p = path.display();
        let write = Args::parse(
            format!("sweep --benches fft --protocols dir --jobs 1 --golden {p} --update-golden")
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&write).is_ok());
        let verify = Args::parse(
            format!("sweep --benches fft --protocols dir --jobs 1 --golden {p}")
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&verify).is_ok());
        let drifted = Args::parse(
            format!("sweep --benches fft --protocols sp --jobs 1 --golden {p}")
                .split_whitespace()
                .map(String::from),
        );
        if !spcp_harness::golden::update_requested() {
            assert!(dispatch(&drifted).unwrap_err().contains("mismatch"));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn sweep_streamed_then_resume_and_golden() {
        let dir = std::env::temp_dir().join(format!("spcp-cli-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gold = dir.join("stream.golden");
        let d = dir.display();
        let g = gold.display();
        // Streamed sweep writing a golden snapshot.
        let write = Args::parse(
            format!(
                "sweep --benches fft --protocols dir,sp --jobs 2 \
                 --out {d} --flush-every 1 --golden {g} --update-golden"
            )
            .split_whitespace()
            .map(String::from),
        );
        assert!(dispatch(&write).is_ok());
        // Same spool without --resume is refused; with --resume it is a
        // no-op and still verifies the golden byte for byte.
        let dirty = Args::parse(
            format!("sweep --benches fft --protocols dir,sp --jobs 2 --out {d} --golden {g}")
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&dirty).unwrap_err().contains("--resume"));
        if !spcp_harness::golden::update_requested() {
            let resume = Args::parse(
                format!(
                    "sweep --benches fft --protocols dir,sp --jobs 2 \
                     --out {d} --resume --golden {g}"
                )
                .split_whitespace()
                .map(String::from),
            );
            assert!(dispatch(&resume).is_ok());
            // The streamed golden matches the in-memory render.
            let verify = Args::parse(
                format!("sweep --benches fft --protocols dir,sp --jobs 1 --golden {g}")
                    .split_whitespace()
                    .map(String::from),
            );
            assert!(dispatch(&verify).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_streamed_smoke() {
        let dir = std::env::temp_dir().join(format!("spcp-cli-cmpstream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = Args::parse(
            format!("compare --bench x264 --jobs 2 --out {}", dir.display())
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_flags_require_out() {
        let a = Args::parse(
            "sweep --benches fft --protocols dir --resume"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).unwrap_err().contains("--out"));
        let a = Args::parse(
            "sweep --benches fft --protocols dir --flush-every 4"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).unwrap_err().contains("--out"));
    }

    #[test]
    fn check_model_smoke() {
        let a = Args::parse(
            "check --model --cores 2 --lines 1"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
    }

    #[test]
    fn check_model_rejects_large_configs() {
        let a = Args::parse(
            "check --model --cores 9"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).unwrap_err().contains("--cores"));
    }

    #[test]
    fn check_workload_smoke() {
        // Test builds carry debug_assertions, so the audits are compiled.
        let a = Args::parse(
            "check --bench x264 --protocol sp"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
    }

    #[test]
    fn check_trace_flags_unordered_sharing() {
        use spcp_core::AccessKind;
        use spcp_sim::{CoreId, CoreSet};
        let racy = vec![
            spcp_trace::TraceEvent::Miss {
                core: CoreId::new(0),
                block: spcp_mem::BlockAddr::from_index(5),
                pc: 0,
                kind: AccessKind::Write,
                targets: CoreSet::empty(),
            },
            spcp_trace::TraceEvent::Miss {
                core: CoreId::new(1),
                block: spcp_mem::BlockAddr::from_index(5),
                pc: 0,
                kind: AccessKind::Read,
                targets: CoreSet::single(CoreId::new(0)),
            },
        ];
        let path = std::env::temp_dir().join("spcp-cli-check-racy.trace");
        let mut buf = Vec::new();
        spcp_trace::write_trace(&mut buf, &racy).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let a = Args::parse(
            format!("check --trace {} --cores 2", path.display())
                .split_whitespace()
                .map(String::from),
        );
        let err = dispatch(&a).unwrap_err();
        assert!(err.contains("unordered"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    /// Writes `events` to a fresh temporary trace file named after `tag`.
    fn temp_trace(tag: &str, events: &[spcp_trace::TraceEvent]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("spcp-cli-{tag}-{}.trace", std::process::id()));
        let mut buf = Vec::new();
        spcp_trace::write_trace(&mut buf, events).unwrap();
        std::fs::write(&path, &buf).unwrap();
        path
    }

    fn run_cli(line: &str) -> Result<(), String> {
        dispatch(&Args::parse(line.split_whitespace().map(String::from)))
    }

    #[test]
    fn trace_commands_reject_cores_beyond_the_machine() {
        use spcp_core::AccessKind;
        use spcp_sim::{CoreId, CoreSet};
        // A 64-core trace read with the default `--cores 16`: first an
        // issuing core out of range, then only a miss target.
        let issuer = temp_trace(
            "issuer64",
            &[spcp_trace::TraceEvent::Miss {
                core: CoreId::new(40),
                block: spcp_mem::BlockAddr::from_index(5),
                pc: 0,
                kind: AccessKind::Write,
                targets: CoreSet::empty(),
            }],
        );
        let target = temp_trace(
            "target64",
            &[spcp_trace::TraceEvent::Miss {
                core: CoreId::new(2),
                block: spcp_mem::BlockAddr::from_index(5),
                pc: 0,
                kind: AccessKind::Read,
                targets: CoreSet::single(CoreId::new(63)),
            }],
        );
        for (path, core) in [(&issuer, 40), (&target, 63)] {
            for cmd in ["analyze", "check"] {
                let err = run_cli(&format!("{cmd} --trace {}", path.display())).unwrap_err();
                assert!(err.contains(&format!("core {core}")), "{cmd}: {err}");
                assert!(err.contains("--cores is 16"), "{cmd}: {err}");
            }
            // The recording machine's core count reads it fine.
            assert!(run_cli(&format!("analyze --trace {} --cores 64", path.display())).is_ok());
            assert!(run_cli(&format!("check --trace {} --cores 64", path.display())).is_ok());
        }
        let err = run_cli(&format!("check --trace {} --cores 0", issuer.display())).unwrap_err();
        assert!(err.contains("--cores"), "{err}");
        let _ = std::fs::remove_file(issuer);
        let _ = std::fs::remove_file(target);
    }

    #[test]
    fn trace_commands_report_malformed_lines() {
        let path = std::env::temp_dir().join(format!("spcp-cli-bad-{}.trace", std::process::id()));
        std::fs::write(&path, "M 0 1 0 R 0\nM 99 1 0 R 0\n").unwrap();
        for cmd in ["analyze", "check"] {
            let err = run_cli(&format!("{cmd} --trace {}", path.display())).unwrap_err();
            assert!(
                err.contains("line 2") && err.contains("bad core"),
                "{cmd}: {err}"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_smoke_on_small_benchmark() {
        let a = Args::parse(
            "run --bench x264 --protocol sp --json"
                .split_whitespace()
                .map(String::from),
        );
        assert!(dispatch(&a).is_ok());
    }
}
