//! L2-miss and sync-point traces (§3.2 of the paper).
//!
//! The paper's §3 characterization is *trace-driven*: the authors collected
//! L2 miss traces containing "the miss data address, type, PC, and the
//! target set of cores that must communicate with", plus "all sync-points
//! along with their type and static/dynamic IDs". This crate provides that
//! exact artifact:
//!
//! * [`TraceEvent`] — one miss or sync-point record;
//! * [`write_trace`] / [`read_trace`] — a line-oriented text codec over any
//!   `io::Write`/`io::Read` (pass `&mut` references to reuse streams);
//! * [`TraceAnalyzer`] — trace-driven characterization: communicating-miss
//!   ratios, per-epoch communication volumes and hot sets, sync-epoch
//!   statistics — everything §3 derives, computed from the trace alone.
//!
//! # Examples
//!
//! ```
//! use spcp_trace::{read_trace, write_trace, TraceEvent};
//! use spcp_core::AccessKind;
//! use spcp_mem::BlockAddr;
//! use spcp_sim::{CoreId, CoreSet};
//!
//! let events = vec![TraceEvent::Miss {
//!     core: CoreId::new(1),
//!     block: BlockAddr::from_index(0x40),
//!     pc: 0x1000,
//!     kind: AccessKind::Read,
//!     targets: CoreSet::from_bits(0b100),
//! }];
//! let mut buf = Vec::new();
//! write_trace(&mut buf, &events)?;
//! let back = read_trace(&mut buf.as_slice())?;
//! assert_eq!(back, events);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod codec;
pub mod event;

pub use analyze::{EpochSummary, TraceAnalyzer};
pub use codec::{read_trace, write_trace, ParseTraceError};
pub use event::{first_core_out_of_range, TraceEvent};
