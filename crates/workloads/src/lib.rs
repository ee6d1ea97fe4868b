//! Synthetic multithreaded workload models.
//!
//! The paper evaluates on SPLASH-2 and PARSEC binaries running under a
//! full-system simulator; neither the binaries nor such a simulator are
//! available here, so this crate synthesizes the *op streams* those programs
//! would present to the memory system. Each benchmark model is parameterized
//! by the paper's published characterization:
//!
//! * Table 1 — static/dynamic sync-epoch counts and critical-section counts
//!   (dynamic instance counts are scaled down ~50× to keep runs fast; the
//!   scaling preserves every behaviour SP-prediction exploits, since history
//!   depth is 2 and patterns repeat within a handful of instances);
//! * Figure 1 — per-benchmark communicating-miss ratios, steered by the mix
//!   of shared vs. private-streaming accesses;
//! * §3.4 — the hot-set pattern taxonomy (stable, stable-switch, stride-k
//!   repetitive, random/migratory critical sections, neighbour, widely
//!   shared, noisy instances).
//!
//! The generated streams are *real programs* against the simulated memory
//! system: producers genuinely write blocks, consumers genuinely miss on
//! them, and all communication (and thus everything a predictor sees) emerges
//! from the coherence protocol — not from labels in the generator.
//!
//! A [`Workload`] describes a run rather than holding it:
//! [`BenchmarkSpec::generate`] keeps the spec, the core count and the seed,
//! and each core's [`OpCursor`] expands the ops one epoch instance at a
//! time into a buffer it reuses. A run's memory for its inputs is a few
//! hundred ops per core, whatever the program's length.
//! [`Workload::threads`] still expands every stream whole, for tests and
//! tools that want them side by side.
//!
//! # Examples
//!
//! ```
//! use spcp_workloads::suite;
//!
//! let spec = suite::bodytrack();
//! let w = spec.generate(16, 42);
//! let mut cursors = w.cursors();
//! assert_eq!(cursors.len(), 16);
//! // Every core's stream opens with the first epoch's barrier.
//! assert!(cursors[0].next().is_some());
//! assert!(w.total_ops() > 16 * 1000);
//! ```

#![warn(missing_docs)]

pub mod gen;
pub mod layout;
pub mod op;
pub mod pattern;
pub mod spec;
pub mod suite;
pub mod textspec;

pub use gen::{OpCursor, Workload};
pub use op::Op;
pub use pattern::SharingPattern;
pub use spec::{BenchmarkSpec, CsSpec, EpochSpec, Phase};
