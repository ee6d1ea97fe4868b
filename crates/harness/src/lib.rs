//! Parallel experiment sweep engine for the SPCP reproduction.
//!
//! The paper's evaluation is a large run matrix — benchmarks × protocols ×
//! seeds × machine configurations. Each cell is an independent,
//! single-threaded, fully deterministic simulation, so the matrix is
//! embarrassingly parallel. This crate provides:
//!
//! - [`RunMatrix`] / [`RunSpec`] — the declarative matrix and its canonical
//!   expansion order,
//! - [`SweepEngine`] — one scoped-thread worker pool whose workers
//!   hand each finished run to a sink (in memory or a spool shard), with
//!   per-run wall-time and throughput metrics ([`SweepResult`]); every
//!   finished sweep reads back through [`Replay`],
//! - [`SweepSummary`] — exact, order-independent aggregation of
//!   [`spcp_system::RunStats`],
//! - [`golden`] — golden-snapshot emit/verify of run stats to a line-based
//!   text format (see `docs/HARNESS.md` and `docs/FORMATS.md`),
//! - [`stream`] / [`spool`] / [`frame`] — streamed sweeps: workers append
//!   completed runs as checksummed JSONL frames to per-shard spool files,
//!   a bounded-memory merge replays them in canonical order, and
//!   crash-safe resume ([`StreamConfig::resume`]) re-enqueues only runs
//!   without a complete record.
//!
//! # Determinism guarantees
//!
//! For a fixed matrix, the engine produces bit-identical per-run stats and
//! bit-identical merged summaries at any `--jobs` value. This holds
//! because runs share no mutable state, every report is rebuilt in the
//! canonical matrix order, and summaries use exact integer
//! accumulators whose merge is commutative and associative.
//!
//! # Examples
//!
//! ```
//! use spcp_harness::{RunMatrix, SweepEngine};
//! use spcp_system::ProtocolKind;
//! use spcp_workloads::suite;
//!
//! let matrix = RunMatrix::new()
//!     .bench(suite::by_name("fft").unwrap())
//!     .protocol("dir", ProtocolKind::Directory)
//!     .protocol("bc", ProtocolKind::Broadcast);
//! let serial = SweepEngine::new(1).run(&matrix);
//! let parallel = SweepEngine::new(4).run(&matrix);
//! assert_eq!(serial.summary(), parallel.summary());
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod frame;
pub mod golden;
pub mod matrix;
pub mod record;
pub mod spool;
pub mod stream;
pub mod summary;

pub use engine::{Replay, RunResult, SweepEngine, SweepResult};
pub use matrix::{MachineEntry, ProtocolEntry, RunMatrix, RunSpec, VariantEntry};
pub use record::RunRecord;
pub use spool::SpoolError;
pub use stream::{StreamConfig, StreamedSweep};
pub use summary::SweepSummary;
