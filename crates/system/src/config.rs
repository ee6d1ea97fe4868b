//! Machine and run configuration (Table 4).

use spcp_core::SpConfig;
use spcp_mem::CacheConfig;
use spcp_noc::NocConfig;

/// Which directory coherence protocol family the machine runs.
///
/// The paper's baseline is MESIF (clean cache-to-cache forwarding via the
/// F state); plain MESI is provided to demonstrate that the prediction
/// engine "can be integrated into any directory-based protocol" (§4.5) and
/// to quantify how much clean forwarding matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceVariant {
    /// MESI + Forward state: one clean sharer answers read requests.
    #[default]
    Mesif,
    /// Plain MESI: only Modified/Exclusive holders supply data; reads of
    /// shared-clean lines go to memory.
    Mesi,
}

/// The simulated machine, defaulting to the paper's Table 4 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of tiles/cores. Paper: 16.
    pub num_cores: usize,
    /// Network-on-chip parameters.
    pub noc: NocConfig,
    /// Per-tile L1 cache.
    pub l1: CacheConfig,
    /// Per-tile private L2 cache.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles. Paper: 150.
    pub mem_latency: u64,
    /// Directory lookup latency in cycles (full-map state array access
    /// plus protocol processing at the home tile).
    pub dir_latency: u64,
    /// Fixed cost of a barrier release after the last arrival.
    pub barrier_cost: u64,
    /// Fixed cost of transferring a contended lock between cores.
    pub lock_transfer_cost: u64,
    /// Energy of one L2 tag probe caused by an external request (snoop),
    /// in the same arbitrary units as the NoC energy model.
    pub snoop_probe_energy: f64,
    /// Extra cycles each sync-point costs the executing core. Zero models
    /// the hardware SP-table of §4.6; a few hundred cycles models the
    /// OS-trap software-table alternative.
    pub sync_trap_cost: u64,
    /// Directory protocol family (MESIF vs plain MESI).
    pub variant: CoherenceVariant,
}

impl MachineConfig {
    /// The paper's 16-core tiled CMP (Table 4).
    pub fn paper_16core() -> Self {
        MachineConfig {
            num_cores: 16,
            noc: NocConfig::default(),
            l1: CacheConfig::l1_16kb(),
            l2: CacheConfig::l2_1mb(),
            mem_latency: 150,
            dir_latency: 6,
            barrier_cost: 30,
            lock_transfer_cost: 20,
            snoop_probe_energy: 50.0,
            sync_trap_cost: 0,
            variant: CoherenceVariant::Mesif,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the mesh does not match the core count.
    pub fn validate(&self) {
        assert_eq!(
            self.noc.nodes(),
            self.num_cores,
            "mesh dimensions must cover exactly the core count"
        );
        assert!(
            self.num_cores >= 2,
            "a multiprocessor needs at least 2 cores"
        );
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_16core()
    }
}

/// Which predictor drives the prediction-augmented protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorKind {
    /// SP-prediction with the given configuration.
    Sp(SpConfig),
    /// Address-based group predictor; `entries = None` is unlimited.
    Addr {
        /// Table capacity (entries), `None` = unlimited.
        entries: Option<usize>,
        /// Macroblock size in bytes.
        macroblock_bytes: u64,
    },
    /// Instruction-based group predictor.
    Inst {
        /// Table capacity (entries), `None` = unlimited.
        entries: Option<usize>,
    },
    /// The single-entry locality predictor.
    Uni,
    /// Oracle: replays recorded per-instance hot sets (ideal accuracy of
    /// Figure 7). Requires a recorded [`crate::OracleBook`].
    Oracle(crate::oracle::OracleBook),
}

impl PredictorKind {
    /// The paper's default SP configuration.
    pub fn sp_default() -> Self {
        PredictorKind::Sp(SpConfig::default())
    }

    /// Scheme name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorKind::Sp(_) => "SP",
            PredictorKind::Addr { .. } => "ADDR",
            PredictorKind::Inst { .. } => "INST",
            PredictorKind::Uni => "UNI",
            PredictorKind::Oracle(_) => "ORACLE",
        }
    }
}

/// Which coherence protocol the run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolKind {
    /// Baseline directory MESIF.
    Directory,
    /// Totally-ordered broadcast snooping.
    Broadcast,
    /// Directory MESIF + destination-set prediction (§4.5).
    Predicted(PredictorKind),
    /// Snooping with prediction-driven multicast instead of broadcast: the
    /// paper's second use case ("prediction relaxes the high bandwidth
    /// requirements by replacing broadcast with multicast"). Insufficient
    /// multicasts are detected at the ordering point and repaired with a
    /// second-phase broadcast.
    MulticastSnoop(PredictorKind),
}

impl ProtocolKind {
    /// Protocol name for reports.
    pub fn name(&self) -> String {
        match self {
            ProtocolKind::Directory => "directory".to_string(),
            ProtocolKind::Broadcast => "broadcast".to_string(),
            ProtocolKind::Predicted(p) => format!("predicted-{}", p.name()),
            ProtocolKind::MulticastSnoop(p) => format!("multicast-{}", p.name()),
        }
    }

    /// The predictor driving this protocol, if any.
    pub fn predictor(&self) -> Option<&PredictorKind> {
        match self {
            ProtocolKind::Predicted(p) | ProtocolKind::MulticastSnoop(p) => Some(p),
            _ => None,
        }
    }
}

/// A complete run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// The protocol.
    pub protocol: ProtocolKind,
    /// Record per-epoch-instance communication (needed by the
    /// characterization figures and the oracle; costs memory).
    pub record_epochs: bool,
    /// Enable the region-based snoop filter of §5.3: misses to regions no
    /// other core caches skip prediction entirely, removing the wasted
    /// bandwidth of predicting non-communicating misses.
    pub snoop_filter: bool,
    /// Pre-seed every core's SP-table from a profiling run's recorded
    /// first-instance hot sets (the off-line-profiling suggestion of §5.2).
    pub sp_warm_start: Option<crate::oracle::OracleBook>,
    /// Rotate the logical-thread → physical-core mapping by this many
    /// positions at every `migrate_every`-th barrier release (0 = never):
    /// the §5.5 thread-migration scenario.
    pub migrate_every: u64,
    /// Rotation amount per migration event.
    pub migrate_rotation: usize,
    /// Predictors and signatures track *logical* thread IDs and translate
    /// through the current mapping (the §5.5 fix). Without it, migrations
    /// silently invalidate learned physical-target signatures.
    pub logical_tracking: bool,
    /// Collect the §3.2-style miss + sync-point trace into
    /// [`crate::RunStats::trace`].
    pub collect_trace: bool,
    /// Destination-set policy applied to the comparison predictors
    /// (ADDR/INST/UNI): group (default), owner, or group/owner — the §5.4
    /// footnote's alternatives. SP's equivalent knob is
    /// [`SpConfig::max_hot_set`].
    pub set_policy: spcp_baselines::SetPolicy,
}

impl RunConfig {
    /// Creates a run configuration with epoch recording off and every
    /// extension disabled.
    pub fn new(machine: MachineConfig, protocol: ProtocolKind) -> Self {
        RunConfig {
            machine,
            protocol,
            record_epochs: false,
            snoop_filter: false,
            sp_warm_start: None,
            migrate_every: 0,
            migrate_rotation: 0,
            logical_tracking: false,
            collect_trace: false,
            set_policy: spcp_baselines::SetPolicy::Group,
        }
    }

    /// Enables epoch recording.
    pub fn recording(mut self) -> Self {
        self.record_epochs = true;
        self
    }

    /// Enables the §5.3 region snoop filter.
    pub fn with_snoop_filter(mut self) -> Self {
        self.snoop_filter = true;
        self
    }

    /// Pre-seeds SP-tables from a profiling run.
    pub fn with_warm_start(mut self, book: crate::oracle::OracleBook) -> Self {
        self.sp_warm_start = Some(book);
        self
    }

    /// Selects the comparison predictors' destination-set policy.
    pub fn with_set_policy(mut self, policy: spcp_baselines::SetPolicy) -> Self {
        self.set_policy = policy;
        self
    }

    /// Enables §3.2-style trace collection.
    pub fn tracing(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    /// Enables thread migration every `every` barriers, rotating by
    /// `rotation`; `logical` selects logical-ID tracking.
    pub fn with_migration(mut self, every: u64, rotation: usize, logical: bool) -> Self {
        self.migrate_every = every;
        self.migrate_rotation = rotation;
        self.logical_tracking = logical;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_table_4() {
        let m = MachineConfig::paper_16core();
        m.validate();
        assert_eq!(m.num_cores, 16);
        assert_eq!(m.noc.width, 4);
        assert_eq!(m.noc.height, 4);
        assert_eq!(m.l2.size_bytes, 1 << 20);
        assert_eq!(m.l2.assoc, 8);
        assert_eq!(m.l1.size_bytes, 16 << 10);
        assert_eq!(m.mem_latency, 150);
    }

    #[test]
    #[should_panic(expected = "mesh dimensions")]
    fn mismatched_mesh_rejected() {
        let mut m = MachineConfig::paper_16core();
        m.num_cores = 8;
        m.validate();
    }

    #[test]
    fn protocol_names() {
        assert_eq!(ProtocolKind::Directory.name(), "directory");
        assert_eq!(ProtocolKind::Broadcast.name(), "broadcast");
        assert_eq!(
            ProtocolKind::Predicted(PredictorKind::sp_default()).name(),
            "predicted-SP"
        );
        assert_eq!(
            ProtocolKind::Predicted(PredictorKind::Uni).name(),
            "predicted-UNI"
        );
    }

    #[test]
    fn run_config_builder() {
        let rc = RunConfig::new(MachineConfig::paper_16core(), ProtocolKind::Directory);
        assert!(!rc.record_epochs);
        assert!(rc.recording().record_epochs);
    }
}
