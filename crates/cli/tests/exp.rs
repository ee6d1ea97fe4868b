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

/// ext_commercial reads SP's per-source counters, and fig2, fig4 and
/// fig6 read the recording payloads (communication matrix, epoch records,
/// PC volumes), so a spooled and a resumed run reproduce their reports
/// only if all of those round-trip.
#[test]
fn spooled_and_resumed_runs_match_the_fixture() {
    let dir = std::env::temp_dir().join(format!("spcp-exp-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().unwrap();
    let names = [
        "ext_commercial",
        "table4_machine_config",
        "fig2_comm_distribution",
        "fig4_comm_locality",
        "fig6_hot_set_patterns",
    ];
    let args = [&["exp"], &names[..], &["--jobs", "2"]].concat();
    let want: String = names.iter().map(|name| fixture(name)).collect();
    let o = spcp(&[&args[..], &["--out", d]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o), want);
    assert!(dir.join("ext_commercial/0").is_dir());
    assert!(dir.join("fig4_comm_locality/0").is_dir());
    // A second fresh run into the same spool is refused...
    let o = spcp(&[&args[..], &["--out", d]].concat());
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--resume"), "{}", stderr(&o));
    // ...and resuming it replays the spool, running nothing.
    let o = spcp(&[&args[..], &["--out", d, "--resume"]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o), want);
    let err = stderr(&o);
    assert!(err.contains("2 resumed | 0 executed"), "{err}");
    let status: Vec<&str> = err.lines().filter(|l| l.starts_with("[harness]")).collect();
    assert_eq!(status.len(), 4, "{err}");
    assert!(status.iter().all(|l| l.contains("| 0 executed")), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
