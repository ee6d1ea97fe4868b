//! `spcp trace --cores`: recording on a square mesh, read back by the
//! trace commands.

use std::process::{Command, Output};

use spcp_system::{CmpSystem, MachineConfig, ProtocolKind, RunConfig};
use spcp_workloads::suite;

fn spcp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spcp"))
        .args(args)
        .output()
        .expect("spcp runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn a_64_core_trace_checks_like_the_in_memory_trace() {
    let path = std::env::temp_dir().join(format!("spcp-cli-vips64-{}.trace", std::process::id()));
    let file = path.to_str().expect("UTF-8 temp path");
    let o = spcp(&["trace", "--bench", "vips", "--cores", "64", "--out", file]);
    assert!(o.status.success(), "{}", stderr(&o));

    let mut machine = MachineConfig::paper_16core();
    machine.num_cores = 64;
    machine.noc.width = 8;
    machine.noc.height = 8;
    let workload = suite::by_name("vips")
        .expect("known benchmark")
        .generate(64, 7);
    let trace = CmpSystem::run_workload(
        &workload,
        &RunConfig::new(machine, ProtocolKind::Directory).tracing(),
    )
    .trace;
    let report = spcp_verify::analyze_races(64, &trace);
    assert!(
        !report.is_clean(),
        "vips shares without ordering at 64 cores"
    );

    let o = spcp(&["check", "--trace", file, "--cores", "64"]);
    assert_eq!(o.status.code(), Some(1), "{}", stderr(&o));
    assert_eq!(stdout(&o), format!("{file}: {}\n", report.summary()));
    assert!(stderr(&o).contains("unordered"), "{}", stderr(&o));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_refuses_cores_off_a_square_mesh() {
    let path = std::env::temp_dir().join(format!("spcp-cli-unmade-{}.trace", std::process::id()));
    let file = path.to_str().expect("UTF-8 temp path");
    for cores in ["1", "12", "81", "0"] {
        let o = spcp(&["trace", "--bench", "fft", "--cores", cores, "--out", file]);
        assert!(!o.status.success(), "--cores {cores} accepted");
        let err = stderr(&o);
        assert!(err.contains("--cores") && err.contains(cores), "{err}");
        assert!(!path.exists(), "--cores {cores} wrote a trace");
    }
}
