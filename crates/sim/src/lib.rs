//! Discrete-event simulation kernel for the SPCP chip-multiprocessor model.
//!
//! This crate provides the time base ([`Cycle`]), the deterministic ready
//! queue of thread wake-ups ([`ReadyQueue`]), a reproducible random-number
//! source ([`DetRng`]) and a small statistics toolkit ([`stats`]) shared by
//! every other crate in the workspace.
//!
//! The kernel is intentionally single-threaded: the whole point of the
//! reproduction is *determinism* — two runs with the same seed produce
//! bit-identical results, which is what makes the paper's figures
//! regenerable.
//!
//! # Examples
//!
//! ```
//! use spcp_sim::{Cycle, ReadyQueue};
//!
//! let mut q = ReadyQueue::new(2);
//! q.push(Cycle::new(10), 1);
//! q.push(Cycle::new(5), 0);
//! let (t, thread) = q.pop().unwrap();
//! assert_eq!((t, thread), (Cycle::new(5), 0));
//! ```

#![warn(missing_docs)]

pub mod cycle;
pub mod flatmap;
pub mod hash;
pub mod ids;
pub mod ready;
pub mod rng;
pub mod stats;

pub use cycle::Cycle;
pub use flatmap::FlatMap;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{CoreId, CoreSet};
pub use ready::ReadyQueue;
pub use rng::DetRng;
pub use stats::{Histogram, MeanAccumulator};
