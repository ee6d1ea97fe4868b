//! **SP-prediction** — Synchronization-Point based coherence target
//! prediction, the primary contribution of the reproduced paper
//! (Demetriades & Cho, MICRO 2012).
//!
//! On an L2 miss that other caches must service (a *communicating miss*),
//! a directory protocol pays an indirection through the block's home node.
//! SP-prediction predicts the destination set and sends the request straight
//! to those caches, racing the directory. The predictor exploits two
//! workload properties established in the paper's §3:
//!
//! 1. **communication locality** — within one sync-epoch a core talks to a
//!    small, stable *hot communication set*;
//! 2. **epoch repeatability** — across dynamic instances of the same static
//!    epoch the hot set follows stable or periodic patterns.
//!
//! The crate provides:
//!
//! * [`TargetPredictor`] — the socket every predictor (SP and the
//!   ADDR/INST/UNI baselines in `spcp-baselines`) plugs into;
//! * [`CommCounters`] — per-destination communication-volume counters and
//!   hot-set extraction (§3.3);
//! * [`SpTable`] — the tiny signature-history table (§4.3), including the
//!   globally shared lock entries;
//! * [`SpPredictor`] — the full prediction policy engine (§4.4): d=0
//!   warm-up, d=1 last-signature, d=2 stable-intersection, stride-2 pattern
//!   detection, lock-holder-union, and confidence-triggered recovery.
//!
//! # Examples
//!
//! ```
//! use spcp_core::{AccessKind, MissInfo, SpConfig, SpPredictor, TargetPredictor};
//! use spcp_mem::BlockAddr;
//! use spcp_sim::CoreId;
//! use spcp_sync::{StaticSyncId, SyncPoint};
//!
//! let mut p = SpPredictor::new(CoreId::new(0), 16, SpConfig::default());
//! // First instance of epoch A: no history, no prediction until warm-up.
//! p.on_sync_point(SyncPoint::barrier(StaticSyncId::new(1)), None);
//! let miss = MissInfo::new(BlockAddr::from_index(64), 0x400, AccessKind::Read);
//! assert!(p.predict(&miss).is_empty());
//! ```

#![warn(missing_docs)]

pub mod confidence;
pub mod counters;
pub mod miss;
pub mod predictor;
pub mod sp;
pub mod sptable;

pub use confidence::SatCounter;
pub use counters::{hot_set, CommCounters};
pub use miss::{AccessKind, MissInfo};
pub use predictor::{PredictionOutcome, TargetPredictor};
pub use sp::{PredSource, SpConfig, SpPredictor, SpStats};
pub use sptable::{shared_lock_table, LockTable, SharedLockTable, SigHistory, SpTable};
