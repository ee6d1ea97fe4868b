//! `spcp sweep` and `spcp compare`: the in-memory and the spooled sweep
//! print the same report.

use std::path::PathBuf;
use std::process::{Command, Output};

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

/// Runs `spcp` and returns its stdout, failing on a non-zero exit.
fn ok(args: &[&str]) -> String {
    let o = spcp(args);
    assert!(o.status.success(), "{args:?}: {}", stderr(&o));
    stdout(&o)
}

/// A spool directory removed when dropped.
struct Spool(PathBuf);

impl Spool {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spcp-sweep-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Spool(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp dir")
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SWEEP: [&str; 9] = [
    "sweep",
    "--benches",
    "fft,lu",
    "--protocols",
    "dir,sp",
    "--seeds",
    "7",
    "--jobs",
    "2",
];

fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    base.iter().chain(extra).copied().collect()
}

#[test]
fn sweep_prints_the_same_report_in_memory_spooled_and_resumed() {
    let spool = Spool::new("report");
    let in_memory = ok(&SWEEP);
    assert!(in_memory.contains("fft/dir/seed7/paper16"), "{in_memory}");
    assert!(in_memory.contains("\n---\n4 runs |"), "{in_memory}");
    assert_eq!(ok(&with(&SWEEP, &["--out", spool.path()])), in_memory);
    assert_eq!(
        ok(&with(&SWEEP, &["--out", spool.path(), "--resume"])),
        in_memory
    );
}

/// The rows and the pooled footer, pinned byte for byte.
#[test]
fn sweep_report_matches_its_fixture() {
    let report = ok(&SWEEP[..7]);
    assert_eq!(report, include_str!("fixtures/sweep_fft_lu_dir_sp.out"));
}

#[test]
fn compare_prints_the_same_table_in_memory_and_spooled() {
    let spool = Spool::new("compare");
    let args = ["compare", "--bench", "fft", "--jobs", "2"];
    let in_memory = ok(&args);
    assert!(in_memory.starts_with("protocol"), "{in_memory}");
    assert_eq!(ok(&with(&args, &["--out", spool.path()])), in_memory);
}

#[test]
fn timing_works_with_out() {
    let spool = Spool::new("timing");
    let o = spcp(&with(&SWEEP, &["--out", spool.path(), "--timing"]));
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o), ok(&SWEEP));
    let err = stderr(&o);
    assert!(err.contains("[harness] per-run timing"), "{err}");
    let rows: Vec<&str> = err.lines().filter(|l| l.ends_with(" ops/s")).collect();
    assert_eq!(rows.len(), 4, "{err}");
    assert!(rows[0].starts_with("fft/dir/seed7/paper16"), "{err}");
}

#[test]
fn resume_refuses_a_toggled_snoop_filter() {
    let spool = Spool::new("filter");
    let args = [
        "sweep",
        "--benches",
        "fft",
        "--protocols",
        "sp",
        "--seeds",
        "7",
        "--out",
        spool.path(),
    ];
    ok(&args);
    let o = spcp(&with(&args, &["--resume", "--filter"]));
    assert!(!o.status.success(), "{}", stdout(&o));
    assert!(stderr(&o).contains("different matrix"), "{}", stderr(&o));
}
