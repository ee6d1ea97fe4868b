//! Spans recorded from the benchmark around calls into each crate.
//!
//! [`timed`] always returns the call's host seconds, which the untraced
//! metrics use. When recording is on (the traced run) it also keeps a span
//! — name, start, end and the enclosing span — in memory; [`write`] dumps
//! them at exit and [`self_times`] gives each name's self time (its
//! duration minus the part its child spans cover).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Runs `f`, returning its result and host seconds; records a span named
/// `name` when recording is on.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let slot = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Some(idx)
    });
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let Some(idx) = slot {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[idx].end_ns = r.origin.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    (out, secs)
}

/// Per span name: (self seconds, total seconds, count), by name.
pub fn self_times() -> BTreeMap<&'static str, (f64, f64, u64)> {
    REC.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in r.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = total - child_ns[i] as f64 * 1e-9;
            let e = out.entry(s.name).or_insert((0.0, 0.0, 0));
            e.0 += own;
            e.1 += total;
            e.2 += 1;
        }
        out
    })
}

/// Writes every recorded span as one JSON object per line.
pub fn write(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        for (i, s) in r.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    })?;
    out.flush()
}
