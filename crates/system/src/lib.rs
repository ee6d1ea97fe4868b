//! The 16-core tiled-CMP timing simulator (§5.1's machine, Table 4).
//!
//! `spcp-system` ties every substrate together: in-order cores that block on
//! misses, private L1/L2 caches, a distributed full-map MESIF directory, the
//! 4×4 mesh NoC, the synchronization runtime (barriers + queued locks), and
//! a predictor socket per tile. Three protocol engines are provided:
//!
//! * **Directory** — baseline MESIF with home-node indirection;
//! * **Broadcast** — snoop probes to every tile on each miss (the latency
//!   lower bound / bandwidth upper bound of the study);
//! * **Predicted** — directory MESIF extended per §4.5: predicted requests
//!   race the directory, which verifies sufficiency and repairs
//!   mispredictions at baseline latency.
//!
//! Execution is globally time-ordered (always advance the earliest-time
//! runnable core), which makes runs deterministic and causally consistent.
//!
//! # Examples
//!
//! ```
//! use spcp_system::{CmpSystem, MachineConfig, ProtocolKind, RunConfig};
//! use spcp_workloads::suite;
//!
//! let wl = suite::x264().generate(16, 1);
//! let cfg = RunConfig::new(MachineConfig::paper_16core(), ProtocolKind::Directory);
//! let stats = CmpSystem::run_workload(&wl, &cfg);
//! assert!(stats.l2_misses > 0);
//! assert!(stats.exec_cycles > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod filter;
pub mod machine;
pub mod metrics;
pub mod oracle;
pub mod predictor_slot;
pub mod protocol;
pub mod runtime;

pub use config::{CoherenceVariant, MachineConfig, PredictorKind, ProtocolKind, RunConfig};
pub use filter::RegionTracker;
pub use machine::{invariants_compiled, CmpSystem, InvariantViolation};
pub use metrics::{CommMatrix, EpochRecord, RunStats, Scalar, SCALARS};
pub use oracle::OracleBook;
pub use predictor_slot::PredictorSlot;
