//! Every registered experiment against its pinned report.
//!
//! Each fixture under `tests/fixtures/` is the experiment's stdout from a
//! `--jobs 2` run; here each experiment runs in-process with three workers
//! and must reproduce it byte for byte, so worker count and scheduling
//! cannot leak into a report. The quick experiments run by default; the
//! rest are ignored (run them with `--include-ignored`, in release).

use std::path::{Path, PathBuf};

use spcp_bench::{experiment, Lab, EXPERIMENTS};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.out"))
}

fn check(name: &str) {
    let exp = experiment(name).expect("registered experiment");
    let mut got = Vec::new();
    exp.execute(&Lab::new(3), &mut got)
        .expect("experiment runs");
    let want = std::fs::read(fixture(name)).expect("fixture present");
    if got != want {
        let (got, want) = (
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
        );
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{name}: report differs from its fixture at line {}\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

macro_rules! fixture_tests {
    ($($(#[$attr:meta])* $name:ident,)*) => {
        $(
            $(#[$attr])*
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*
        const TESTED: &[&str] = &[$(stringify!($name)),*];
    };
}

fixture_tests! {
    table4_machine_config,
    fig2_comm_distribution,
    fig3_sync_epochs,
    fig4_comm_locality,
    fig6_hot_set_patterns,
    ext_commercial,
    #[ignore = "slow: run in release with --include-ignored"]
    fig1_communicating_misses,
    #[ignore = "slow: run in release with --include-ignored"]
    fig5_hot_set_sizes,
    #[ignore = "slow: run in release with --include-ignored"]
    fig7_sp_accuracy,
    #[ignore = "slow: run in release with --include-ignored"]
    fig8_miss_latency,
    #[ignore = "slow: run in release with --include-ignored"]
    fig9_bandwidth,
    #[ignore = "slow: run in release with --include-ignored"]
    fig10_execution_time,
    #[ignore = "slow: run in release with --include-ignored"]
    fig11_energy,
    #[ignore = "slow: run in release with --include-ignored"]
    fig12_tradeoff,
    #[ignore = "slow: run in release with --include-ignored"]
    fig13_space_sensitivity,
    #[ignore = "slow: run in release with --include-ignored"]
    table1_sync_epoch_stats,
    #[ignore = "slow: run in release with --include-ignored"]
    table5_predicted_set_size,
    #[ignore = "slow: run in release with --include-ignored"]
    ablation_sp,
    #[ignore = "slow: run in release with --include-ignored"]
    ablation_policies,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_multicast_snoop,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_snoop_filter,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_software_table,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_profile_warmstart,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_thread_migration,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_protocol_variant,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_cache_sensitivity,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_core_count,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_input_size,
    #[ignore = "slow: run in release with --include-ignored"]
    ext_compute_intensity,
    #[ignore = "slow: run in release with --include-ignored"]
    noc_saturation,
    #[ignore = "slow: run in release with --include-ignored"]
    all_results,
}

#[test]
fn every_experiment_has_a_fixture_and_a_test() {
    let mut registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    registered.sort_unstable();
    let mut tested = TESTED.to_vec();
    tested.sort_unstable();
    assert_eq!(tested, registered, "one fixture test per experiment");
    let mut fixtures: Vec<String> = std::fs::read_dir(fixture("x").parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    fixtures.sort_unstable();
    let expected: Vec<String> = registered.iter().map(|n| format!("{n}.out")).collect();
    assert_eq!(fixtures, expected, "one fixture per experiment, no strays");
}
