//! Verbatim ports of the trace codec and the sync-epoch race analyzer as
//! they were before the allocation-free rewrite: a `format!` `String` per
//! encoded line, `BufRead::lines` plus `split_whitespace` per decoded
//! line, and a `HashMap` of per-core `Vec<u64>` vector clocks cloned on
//! every miss, barrier and unlock. `tests/trace_equivalence.rs` runs them
//! against the real `spcp::trace` codec and `spcp::verify::analyze_races`.
//!
//! One deliberate deviation: the old decoder passed a core at or above
//! `CoreSet::MAX_CORES` to `CoreId::new`, which panics; `ref_core` reports
//! the `bad core` error the codec returns now instead. Invalid UTF-8 still
//! surfaces as the bare `InvalidData` error `BufRead::lines` produced.

use spcp::mem::BlockAddr;
use spcp::predict::AccessKind;
use spcp::sim::{CoreId, CoreSet};
use spcp::sync::SyncKind;
use spcp::trace::{ParseTraceError, TraceEvent};
use spcp::verify::{RaceFinding, RaceReport};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};

/// The deviation: a range error where `CoreId::new` used to panic.
fn ref_core(
    core: usize,
    text: &str,
    err: &dyn Fn(String) -> ParseTraceError,
) -> Result<CoreId, ParseTraceError> {
    if core < CoreSet::MAX_CORES {
        Ok(CoreId::new(core))
    } else {
        Err(err(format!(
            "bad core '{text}' (at most {} cores)",
            CoreSet::MAX_CORES
        )))
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn kind_code(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Read => "R",
        AccessKind::Write => "W",
        AccessKind::Upgrade => "U",
    }
}

fn sync_code(kind: SyncKind) -> &'static str {
    match kind {
        SyncKind::Barrier => "barrier",
        SyncKind::Join => "join",
        SyncKind::Wakeup => "wakeup",
        SyncKind::Broadcast => "broadcast",
        SyncKind::Lock => "lock",
        SyncKind::Unlock => "unlock",
    }
}

/// Encodes one event as its trace line (without the newline).
pub fn ref_encode_line(event: &TraceEvent) -> String {
    match *event {
        TraceEvent::Miss {
            core,
            block,
            pc,
            kind,
            targets,
        } => format!(
            "M {} {:x} {:x} {} {:x}",
            core.index(),
            block.index(),
            pc,
            kind_code(kind),
            targets.bits()
        ),
        TraceEvent::Sync {
            core,
            kind,
            static_id,
            instance,
        } => format!(
            "S {} {} {} {}",
            core.index(),
            sync_code(kind),
            static_id,
            instance
        ),
    }
}

fn parse_line(line: &str, lineno: usize) -> Result<TraceEvent, ParseTraceError> {
    let err = |message: String| ParseTraceError {
        line: lineno,
        message,
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["M", core_text, block, pc, kind, targets] => {
            let core = core_text
                .parse::<usize>()
                .map_err(|_| err(format!("bad core '{core_text}'")))?;
            let block =
                u64::from_str_radix(block, 16).map_err(|_| err(format!("bad block '{block}'")))?;
            let pc = u32::from_str_radix(pc, 16).map_err(|_| err(format!("bad pc '{pc}'")))?;
            let kind = match *kind {
                "R" => AccessKind::Read,
                "W" => AccessKind::Write,
                "U" => AccessKind::Upgrade,
                other => return Err(err(format!("bad access kind '{other}'"))),
            };
            let targets = u64::from_str_radix(targets, 16)
                .map_err(|_| err(format!("bad target set '{targets}'")))?;
            Ok(TraceEvent::Miss {
                core: ref_core(core, core_text, &err)?,
                block: BlockAddr::from_index(block),
                pc,
                kind,
                targets: CoreSet::from_bits(targets),
            })
        }
        ["S", core_text, kind, static_id, instance] => {
            let core = core_text
                .parse::<usize>()
                .map_err(|_| err(format!("bad core '{core_text}'")))?;
            let kind = match *kind {
                "barrier" => SyncKind::Barrier,
                "join" => SyncKind::Join,
                "wakeup" => SyncKind::Wakeup,
                "broadcast" => SyncKind::Broadcast,
                "lock" => SyncKind::Lock,
                "unlock" => SyncKind::Unlock,
                other => return Err(err(format!("bad sync kind '{other}'"))),
            };
            let static_id = static_id
                .parse::<u32>()
                .map_err(|_| err(format!("bad static id '{static_id}'")))?;
            let instance = instance
                .parse::<u64>()
                .map_err(|_| err(format!("bad instance '{instance}'")))?;
            Ok(TraceEvent::Sync {
                core: ref_core(core, core_text, &err)?,
                kind,
                static_id,
                instance,
            })
        }
        [] => Err(err("empty line".into())),
        _ => Err(err(format!("unrecognized record '{line}'"))),
    }
}

/// Writes `events` to `w`, one line each.
///
/// A `&mut` reference works wherever a writer is needed.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn ref_write_trace<W: Write>(mut w: W, events: &[TraceEvent]) -> io::Result<()> {
    for e in events {
        writeln!(w, "{}", ref_encode_line(e))?;
    }
    Ok(())
}

/// Reads a whole trace from `r`.
///
/// A `&mut` reference works wherever a reader is needed. Blank lines and
/// `#` comment lines are skipped.
///
/// # Errors
///
/// Returns an `InvalidData` error wrapping [`ParseTraceError`] for
/// malformed lines, or propagates I/O errors.
pub fn ref_read_trace<R: Read>(r: R) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for (i, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        events.push(parse_line(trimmed, i + 1)?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Race analyzer
// ---------------------------------------------------------------------------

/// A core's last traced access to a block: its vector-clock snapshot and
/// whether the access was a write.
type LastAccess = (Vec<u64>, bool);

/// Per-core vector clocks plus the sync-edge state.
struct HbState {
    n: usize,
    /// `clock[c]` is core `c`'s current vector clock.
    clock: Vec<Vec<u64>>,
    /// Clock published by the latest unlock of each lock (keyed by the
    /// lock's static id).
    lock_release: HashMap<u32, Vec<u64>>,
    /// In-flight barrier waves: `(static_id, instance)` → (arrived cores,
    /// merged clock). A wave completes when all cores have arrived.
    pending_barriers: HashMap<(u32, u64), (CoreSet, Vec<u64>)>,
    /// Last traced access to each block by each core: clock snapshot plus
    /// whether it was a write (`last[block][core]`).
    last_access: HashMap<u64, Vec<Option<LastAccess>>>,
}

impl HbState {
    fn new(n: usize) -> Self {
        HbState {
            n,
            clock: vec![vec![0; n]; n],
            lock_release: HashMap::new(),
            pending_barriers: HashMap::new(),
            last_access: HashMap::new(),
        }
    }

    fn join(into: &mut [u64], from: &[u64]) {
        for (a, b) in into.iter_mut().zip(from) {
            *a = (*a).max(*b);
        }
    }

    /// `a ≤ b` pointwise: everything up to snapshot `a` is visible at `b`.
    fn ordered(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    fn on_sync(&mut self, core: usize, kind: SyncKind, static_id: u32, instance: u64) {
        // The sync point itself is a new local step.
        self.clock[core][core] += 1;
        match kind {
            SyncKind::Barrier => {
                let entry = self
                    .pending_barriers
                    .entry((static_id, instance))
                    .or_insert_with(|| (CoreSet::empty(), vec![0; self.n]));
                entry.0.insert(CoreId::new(core));
                Self::join(&mut entry.1, &self.clock[core]);
                if entry.0.len() == self.n {
                    // The wave is complete: the merged clock becomes every
                    // participant's clock. Doing this when the last arrival
                    // is *observed* is sound because the trace is globally
                    // time-ordered — no participant has post-barrier events
                    // before this point in the stream.
                    let (_, merged) = self
                        .pending_barriers
                        .remove(&(static_id, instance))
                        .expect("entry just inserted");
                    for c in 0..self.n {
                        self.clock[c] = merged.clone();
                    }
                }
            }
            SyncKind::Lock => {
                if let Some(rel) = self.lock_release.get(&static_id) {
                    let mut cur = std::mem::take(&mut self.clock[core]);
                    Self::join(&mut cur, rel);
                    self.clock[core] = cur;
                }
            }
            SyncKind::Unlock => {
                self.lock_release
                    .insert(static_id, self.clock[core].clone());
            }
            // Join/wakeup/broadcast points carry no pairing information in
            // the trace: they advance the local epoch only (conservative —
            // missing edges can only over-report races, never hide one).
            SyncKind::Join | SyncKind::Wakeup | SyncKind::Broadcast => {}
        }
    }
}

/// Analyzes a recorded trace for communicating misses unordered by
/// synchronization.
///
/// `num_cores` must match the machine that produced the trace (barrier
/// waves complete when all cores arrive). Events must be in trace order
/// (the order `RunStats::trace` records them).
pub fn ref_analyze_races(num_cores: usize, events: &[TraceEvent]) -> RaceReport {
    let mut hb = HbState::new(num_cores);
    let mut report = RaceReport {
        events: events.len(),
        ..RaceReport::default()
    };

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            TraceEvent::Sync {
                core,
                kind,
                static_id,
                instance,
            } => {
                hb.on_sync(core.index(), kind, static_id, instance);
            }
            TraceEvent::Miss {
                core,
                block,
                kind,
                targets,
                ..
            } => {
                report.misses += 1;
                let c = core.index();
                let is_write = matches!(kind, AccessKind::Write | AccessKind::Upgrade);
                if !targets.is_empty() {
                    report.comm_misses += 1;
                    let last = hb.last_access.get(&block.index());
                    for t in targets.iter() {
                        if t == core {
                            continue;
                        }
                        match last.and_then(|l| l[t.index()].as_ref()) {
                            Some((snap, producer_wrote)) => {
                                // Two reads never race; a clean-forwarding
                                // pair needs no ordering.
                                if !is_write && !*producer_wrote {
                                    report.read_pairs += 1;
                                    continue;
                                }
                                report.checked_pairs += 1;
                                if !HbState::ordered(snap, &hb.clock[c]) {
                                    report.races.push(RaceFinding {
                                        event_index: i,
                                        block: block.index(),
                                        consumer: core,
                                        producer: t,
                                        kind,
                                    });
                                }
                            }
                            None => report.unknown_pairs += 1,
                        }
                    }
                }
                // The access is a fresh local step; snapshot it as this
                // core's latest touch of the block.
                hb.clock[c][c] += 1;
                let snap = hb.clock[c].clone();
                hb.last_access
                    .entry(block.index())
                    .or_insert_with(|| vec![None; num_cores])[c] = Some((snap, is_write));
            }
        }
    }
    report
}
