//! The experiment registry: every table and figure of the paper, plus the
//! ablations and extensions, as one [`Experiment`] each.
//!
//! Run them with `spcp exp <name>…` (or `spcp exp all`; `spcp exp list`
//! prints the names). Each experiment writes its report to the given
//! output and runs its simulations through a [`Lab`], which fans them
//! across `--jobs` workers and spools them under `--out` when asked.
//!
//! | experiment | artifact |
//! |---|---|
//! | `fig1_communicating_misses` | Figure 1 |
//! | `fig2_comm_distribution` | Figure 2 |
//! | `fig3_sync_epochs` | Figure 3 (rendered from a real trace) |
//! | `fig4_comm_locality` | Figure 4 |
//! | `fig5_hot_set_sizes` | Figure 5 |
//! | `fig6_hot_set_patterns` | Figure 6 |
//! | `fig7_sp_accuracy` | Figure 7 |
//! | `fig8_miss_latency` | Figure 8 |
//! | `fig9_bandwidth` | Figure 9 |
//! | `fig10_execution_time` | Figure 10 |
//! | `fig11_energy` | Figure 11 |
//! | `fig12_tradeoff` | Figure 12 |
//! | `fig13_space_sensitivity` | Figure 13 |
//! | `table1_sync_epoch_stats` | Table 1 |
//! | `table4_machine_config` | Table 4 |
//! | `table5_predicted_set_size` | Table 5 |
//! | `ablation_sp` | SP design-choice sweeps (DESIGN.md §5) |
//! | `ablation_policies` | destination-set policies (§5.4 footnote) |
//! | `ext_multicast_snoop` | prediction-driven multicast snooping (§1) |
//! | `ext_snoop_filter` | region snoop filter (§5.3) |
//! | `ext_software_table` | software SP-table cost (§4.6) |
//! | `ext_profile_warmstart` | off-line profiling warm start (§5.2) |
//! | `ext_thread_migration` | thread migration + logical IDs (§5.5) |
//! | `ext_commercial` | commercial-workload projection (§5.5) |
//! | `ext_protocol_variant` | MESIF vs plain MESI (§4.5) |
//! | `ext_cache_sensitivity` | L2-size sensitivity (§5.3) |
//! | `ext_core_count` | 4–64-core scaling |
//! | `ext_input_size` | input-size sensitivity (§5.3) |
//! | `ext_compute_intensity` | instruction-mix sensitivity |
//! | `noc_saturation` | flit-level NoC saturation + cross-validation |
//! | `all_results` | CSV batch of every benchmark × protocol |

#![warn(missing_docs)]

mod extensions;
mod lab;
mod paper;
pub mod timing;

use std::io::{self, Write};

use spcp_harness::RunMatrix;
use spcp_system::{PredictorKind, ProtocolKind};
use spcp_workloads::{suite, BenchmarkSpec};

pub use lab::Lab;

/// The fixed workload seed every experiment uses.
pub const SEED: u64 = 7;
/// Cores in the evaluated machine.
pub const CORES: usize = 16;

/// One registered experiment: a name and the function that writes its
/// report.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `spcp exp` selects it by.
    pub name: &'static str,
    /// Runs the experiment's simulations in the lab and writes its report.
    pub run: fn(&Lab, &mut dyn Write) -> io::Result<()>,
}

impl Experiment {
    /// Runs the experiment in `lab`, spooling its sweeps under
    /// `<out>/<name>/` when the lab streams.
    pub fn execute(&self, lab: &Lab, out: &mut dyn Write) -> io::Result<()> {
        (self.run)(&lab.scoped(self.name), out)
    }
}

/// Every experiment, in the order `spcp exp all` runs them.
pub const EXPERIMENTS: [Experiment; 31] = [
    exp("fig1_communicating_misses", paper::fig1),
    exp("fig2_comm_distribution", paper::fig2),
    exp("fig3_sync_epochs", paper::fig3),
    exp("fig4_comm_locality", paper::fig4),
    exp("fig5_hot_set_sizes", paper::fig5),
    exp("fig6_hot_set_patterns", paper::fig6),
    exp("fig7_sp_accuracy", paper::fig7),
    exp("fig8_miss_latency", paper::fig8),
    exp("fig9_bandwidth", paper::fig9),
    exp("fig10_execution_time", paper::fig10),
    exp("fig11_energy", paper::fig11),
    exp("fig12_tradeoff", paper::fig12),
    exp("fig13_space_sensitivity", paper::fig13),
    exp("table1_sync_epoch_stats", paper::table1),
    exp("table4_machine_config", paper::table4),
    exp("table5_predicted_set_size", paper::table5),
    exp("ablation_sp", extensions::ablation_sp),
    exp("ablation_policies", extensions::ablation_policies),
    exp("ext_multicast_snoop", extensions::multicast_snoop),
    exp("ext_snoop_filter", extensions::snoop_filter),
    exp("ext_software_table", extensions::software_table),
    exp("ext_profile_warmstart", extensions::profile_warmstart),
    exp("ext_thread_migration", extensions::thread_migration),
    exp("ext_commercial", extensions::commercial),
    exp("ext_protocol_variant", extensions::protocol_variant),
    exp("ext_cache_sensitivity", extensions::cache_sensitivity),
    exp("ext_core_count", extensions::core_count),
    exp("ext_input_size", extensions::input_size),
    exp("ext_compute_intensity", extensions::compute_intensity),
    exp("noc_saturation", extensions::noc_saturation),
    exp("all_results", extensions::all_results),
];

const fn exp(name: &'static str, run: fn(&Lab, &mut dyn Write) -> io::Result<()>) -> Experiment {
    Experiment { name, run }
}

/// The registered experiment called `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Every named protocol, in report order: the CLI's `--protocol` choices
/// and the `all_results` columns.
pub fn protocols() -> [(&'static str, ProtocolKind); 7] {
    [
        ("directory", ProtocolKind::Directory),
        ("broadcast", ProtocolKind::Broadcast),
        ("sp", sp()),
        (
            "addr",
            ProtocolKind::Predicted(PredictorKind::Addr {
                entries: None,
                macroblock_bytes: 256,
            }),
        ),
        (
            "inst",
            ProtocolKind::Predicted(PredictorKind::Inst { entries: None }),
        ),
        ("uni", ProtocolKind::Predicted(PredictorKind::Uni)),
        (
            "multicast",
            ProtocolKind::MulticastSnoop(PredictorKind::sp_default()),
        ),
    ]
}

/// The protocol named `name` in [`protocols`], also accepting the short
/// forms `dir`, `bc` and `mc`.
pub fn protocol(name: &str) -> Option<ProtocolKind> {
    let name = match name {
        "dir" => "directory",
        "bc" => "broadcast",
        "mc" => "multicast",
        other => other,
    };
    protocols()
        .into_iter()
        .find(|(label, _)| *label == name)
        .map(|(_, kind)| kind)
}

/// The rule between a report's rows and its summary.
const RULE: &str = "----------------------------------------------------------------";

/// The suite benchmark called `name`.
fn bench(name: &str) -> BenchmarkSpec {
    suite::by_name(name).expect("known benchmark")
}

/// SP-prediction with the paper's default configuration.
fn sp() -> ProtocolKind {
    ProtocolKind::Predicted(PredictorKind::sp_default())
}

/// The whole suite under each labelled protocol.
fn suite_matrix<L: Into<String>>(
    protocols: impl IntoIterator<Item = (L, ProtocolKind)>,
) -> RunMatrix {
    protocols.into_iter().fold(
        RunMatrix::new().benches(suite::all()),
        |m, (label, kind)| m.protocol(label, kind),
    )
}

/// Arithmetic mean of an iterator of f64.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A crude ASCII bar for terminal "plots": `frac` in `[0, 1]` over `width`
/// characters.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "·".repeat(width - filled))
}

/// Writes a standard figure header.
pub fn header(out: &mut dyn Write, id: &str, caption: &str) -> io::Result<()> {
    let rule = "================================================================";
    writeln!(out, "{rule}\n{id}: {caption}")?;
    writeln!(
        out,
        "(reproduction; shapes comparable to the paper, absolute numbers"
    )?;
    writeln!(
        out,
        " depend on the synthetic substrate — see EXPERIMENTS.md)\n{rule}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_extremes() {
        assert_eq!(bar(0.0, 4), "····");
        assert_eq!(bar(1.0, 4), "████");
        assert_eq!(bar(0.5, 4), "██··");
        assert_eq!(bar(7.0, 2), "██", "clamped above 1");
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn experiment_names_are_unique_and_found() {
        for e in &EXPERIMENTS {
            assert_eq!(experiment(e.name).map(|f| f.name), Some(e.name));
        }
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(experiment("fig99").is_none());
    }

    #[test]
    fn protocol_names_and_aliases_resolve() {
        for (label, kind) in protocols() {
            assert_eq!(protocol(label), Some(kind));
        }
        assert_eq!(protocol("dir"), Some(ProtocolKind::Directory));
        assert_eq!(protocol("bc"), Some(ProtocolKind::Broadcast));
        assert_eq!(protocol("mc"), protocol("multicast"));
        assert!(protocol("bogus").is_none());
    }
}
