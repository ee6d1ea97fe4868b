//! `spcp exp`: the experiment registry at the command line.

use std::path::Path;
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

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../bench/tests/fixtures")
        .join(format!("{name}.out"));
    std::fs::read_to_string(path).expect("fixture present")
}

#[test]
fn list_prints_every_registered_name() {
    let o = spcp(&["exp", "list"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let names: Vec<&str> = spcp_bench::EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), 31);
    assert_eq!(stdout(&o).lines().collect::<Vec<_>>(), names);
}

#[test]
fn unknown_name_fails_and_lists_the_names() {
    let o = spcp(&["exp", "table4_machine_config", "fig99"]);
    assert!(!o.status.success());
    assert!(
        o.stdout.is_empty(),
        "nothing runs before the names check out"
    );
    let err = stderr(&o);
    assert!(err.contains("unknown experiment 'fig99'"), "{err}");
    for e in &spcp_bench::EXPERIMENTS {
        assert!(err.contains(e.name), "{err}");
    }
    let o = spcp(&["exp"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("fig8_miss_latency"));
}

#[test]
fn resume_requires_out() {
    let o = spcp(&["exp", "table4_machine_config", "--resume"]);
    assert!(!o.status.success());
    assert!(
        stderr(&o).contains("--resume requires --out"),
        "{}",
        stderr(&o)
    );
}

/// ext_commercial reads SP's per-source counters, so a spooled and a
/// resumed run reproduce its report only if those counters round-trip.
#[test]
fn spooled_and_resumed_runs_match_the_fixture() {
    let dir = std::env::temp_dir().join(format!("spcp-exp-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let want = fixture("ext_commercial");
    let args = [
        "exp",
        "ext_commercial",
        "table4_machine_config",
        "--jobs",
        "2",
    ];
    let both = want.clone() + &fixture("table4_machine_config");
    let o = spcp(&[&args[..], &["--out", d]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o), both);
    assert!(dir.join("ext_commercial/0").is_dir());
    // A second fresh run into the same spool is refused...
    let o = spcp(&[&args[..], &["--out", d]].concat());
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--resume"), "{}", stderr(&o));
    // ...and resuming it replays the spool.
    let o = spcp(&[&args[..], &["--out", d, "--resume"]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o), both);
    assert!(
        stderr(&o).contains("2 resumed | 0 executed"),
        "{}",
        stderr(&o)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
