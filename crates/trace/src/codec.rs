//! The line-oriented trace codec.
//!
//! One event per line:
//!
//! ```text
//! M <core> <block-hex> <pc-hex> <R|W|U> <targets-hex>
//! S <core> <barrier|join|wakeup|broadcast|lock|unlock> <static-id> <instance>
//! ```
//!
//! [`write_trace`] emits the canonical form: fields separated by one space,
//! decimal without leading zeros, lowercase hex without leading zeros, each
//! line ended by `\n`. [`read_trace`] accepts more: any Unicode whitespace
//! between and around fields, `\r\n` line ends, leading zeros, a `+` sign,
//! uppercase hex digits, blank lines and `#` comments.
//!
//! Both directions run without an allocation per event. The writer formats
//! each line by hand into one reused byte buffer and hands it to the sink
//! in chunks. The reader streams its input through a fixed-size buffer and
//! parses canonical lines straight from the bytes; any line the byte parser
//! does not recognize (comments, unusual spacing, errors) goes through the
//! general `&str` parser, so both paths accept, reject and report exactly
//! the same lines.

use crate::event::TraceEvent;
use spcp_core::AccessKind;
use spcp_mem::BlockAddr;
use spcp_sim::{CoreId, CoreSet};
use spcp_sync::SyncKind;
use std::fmt;
use std::io::{self, Read, Write};

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl From<ParseTraceError> for io::Error {
    fn from(e: ParseTraceError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Bytes the reader and writer move per chunk.
const CHUNK: usize = 8 * 1024;

/// The longest canonical line, newline included: `M`, a two-digit core,
/// 16 + 8 + 16 hex digits, the kind and six separators.
const MAX_LINE: usize = 64;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a digit of the canonical forms (`0-9`, `a-f`), or
/// `u8::MAX`.
const DIGIT_VALUE: [u8; 256] = {
    let mut table = [u8::MAX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

fn kind_code(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => b'R',
        AccessKind::Write => b'W',
        AccessKind::Upgrade => b'U',
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

fn sync_kind(word: &[u8]) -> Option<SyncKind> {
    Some(match word {
        b"barrier" => SyncKind::Barrier,
        b"join" => SyncKind::Join,
        b"wakeup" => SyncKind::Wakeup,
        b"broadcast" => SyncKind::Broadcast,
        b"lock" => SyncKind::Lock,
        b"unlock" => SyncKind::Unlock,
        _ => return None,
    })
}

/// Formats one canonical line into a fixed-size slot.
struct LineWriter<'a> {
    out: &'a mut [u8; MAX_LINE],
    len: usize,
}

impl LineWriter<'_> {
    fn push(&mut self, b: u8) {
        self.out[self.len] = b;
        self.len += 1;
    }

    fn push_bytes(&mut self, s: &[u8]) {
        self.out[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    fn push_dec(&mut self, mut v: u64) {
        let digits = v.checked_ilog10().unwrap_or(0) as usize + 1;
        for slot in self.out[self.len..self.len + digits].iter_mut().rev() {
            *slot = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len += digits;
    }

    fn push_hex(&mut self, mut v: u64) {
        // `v | 1` gives zero its single digit.
        let digits = (67 - (v | 1).leading_zeros() as usize) / 4;
        for slot in self.out[self.len..self.len + digits].iter_mut().rev() {
            *slot = HEX_DIGITS[v as usize & 0xf];
            v >>= 4;
        }
        self.len += digits;
    }

    /// Writes `event`'s line, without the newline, and returns its length.
    fn encode(out: &mut [u8; MAX_LINE], event: &TraceEvent) -> usize {
        let mut line = LineWriter { out, len: 0 };
        match *event {
            TraceEvent::Miss {
                core,
                block,
                pc,
                kind,
                targets,
            } => {
                line.push_bytes(b"M ");
                line.push_dec(core.index() as u64);
                line.push(b' ');
                line.push_hex(block.index());
                line.push(b' ');
                line.push_hex(u64::from(pc));
                line.push(b' ');
                line.push(kind_code(kind));
                line.push(b' ');
                line.push_hex(targets.bits());
            }
            TraceEvent::Sync {
                core,
                kind,
                static_id,
                instance,
            } => {
                line.push_bytes(b"S ");
                line.push_dec(core.index() as u64);
                line.push(b' ');
                line.push_bytes(sync_code(kind).as_bytes());
                line.push(b' ');
                line.push_dec(u64::from(static_id));
                line.push(b' ');
                line.push_dec(instance);
            }
        }
        line.len
    }
}

/// Writes `event`'s trace line (without the newline) to `f`.
pub(crate) fn fmt_event(event: &TraceEvent, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut line = [0; MAX_LINE];
    let len = LineWriter::encode(&mut line, event);
    f.write_str(std::str::from_utf8(&line[..len]).expect("trace lines are ASCII"))
}

/// Encodes one event as its trace line (without the newline).
pub fn encode_line(event: &TraceEvent) -> String {
    let mut line = [0; MAX_LINE];
    let len = LineWriter::encode(&mut line, event);
    String::from_utf8(line[..len].to_vec()).expect("trace lines are ASCII")
}

/// The general parser: one trimmed, non-blank, non-comment line.
fn parse_line(line: &str, lineno: usize) -> Result<TraceEvent, ParseTraceError> {
    let err = |message: String| ParseTraceError {
        line: lineno,
        message,
    };
    // Checked after every other field, so a line with several bad fields
    // names the same one it always did.
    let core_id = |core: usize, text: &str| {
        if core < CoreSet::MAX_CORES {
            Ok(CoreId::new(core))
        } else {
            Err(err(format!(
                "bad core '{text}' (at most {} cores)",
                CoreSet::MAX_CORES
            )))
        }
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
                core: core_id(core, core_text)?,
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
            let kind =
                sync_kind(kind.as_bytes()).ok_or_else(|| err(format!("bad sync kind '{kind}'")))?;
            let static_id = static_id
                .parse::<u32>()
                .map_err(|_| err(format!("bad static id '{static_id}'")))?;
            let instance = instance
                .parse::<u64>()
                .map_err(|_| err(format!("bad instance '{instance}'")))?;
            Ok(TraceEvent::Sync {
                core: core_id(core, core_text)?,
                kind,
                static_id,
                instance,
            })
        }
        [] => Err(err("empty line".into())),
        _ => Err(err(format!("unrecognized record '{line}'"))),
    }
}

/// The general path for one raw line (no newline): UTF-8 check, trim,
/// blank and comment skip, then [`parse_line`].
fn parse_raw_line(raw: &[u8], lineno: usize) -> Result<Option<TraceEvent>, ParseTraceError> {
    let line = std::str::from_utf8(raw).map_err(|_| ParseTraceError {
        line: lineno,
        message: "invalid UTF-8".into(),
    })?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    parse_line(trimmed, lineno).map(Some)
}

/// A cursor over a block of complete lines, for the byte-level parser.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.bytes.get(self.pos) == Some(&b)).then(|| self.pos += 1)
    }

    /// A run of 1 to `max` digits in base 10 or lowercase base 16. `max`
    /// keeps the value in range; longer runs (leading zeros) take the
    /// general path.
    fn number(&mut self, radix: u64, max: usize) -> Option<u64> {
        let start = self.pos;
        let mut v = 0u64;
        // One digit past `max` is enough to reject the run; its value
        // (which may wrap) is then discarded.
        while self.pos - start <= max {
            let d = match self.bytes.get(self.pos) {
                Some(&b) => u64::from(DIGIT_VALUE[b as usize]),
                None => break,
            };
            if d >= radix {
                break;
            }
            v = v.wrapping_mul(radix).wrapping_add(d);
            self.pos += 1;
        }
        (1..=max).contains(&(self.pos - start)).then_some(v)
    }

    /// A run of lowercase letters, cut off one past the longest kind name.
    fn word(&mut self) -> &[u8] {
        let start = self.pos;
        while self.pos - start < 10 && self.bytes.get(self.pos).is_some_and(u8::is_ascii_lowercase)
        {
            self.pos += 1;
        }
        &self.bytes[start..self.pos]
    }

    /// Parses one canonical event line, newline included, leaving the
    /// cursor on the next line. `None` (cursor position unspecified) sends
    /// the line to the general parser, which accepts or rejects it.
    fn canonical_event(&mut self) -> Option<TraceEvent> {
        let tag = *self.bytes.get(self.pos)?;
        self.pos += 1;
        self.eat(b' ')?;
        let core = self.number(10, 2)? as usize;
        if core >= CoreSet::MAX_CORES {
            return None;
        }
        let core = CoreId::new(core);
        self.eat(b' ')?;
        let event = match tag {
            b'M' => {
                let block = BlockAddr::from_index(self.number(16, 16)?);
                self.eat(b' ')?;
                let pc = self.number(16, 8)? as u32;
                self.eat(b' ')?;
                let kind = match *self.bytes.get(self.pos)? {
                    b'R' => AccessKind::Read,
                    b'W' => AccessKind::Write,
                    b'U' => AccessKind::Upgrade,
                    _ => return None,
                };
                self.pos += 1;
                self.eat(b' ')?;
                let targets = CoreSet::from_bits(self.number(16, 16)?);
                TraceEvent::Miss {
                    core,
                    block,
                    pc,
                    kind,
                    targets,
                }
            }
            b'S' => {
                let kind = sync_kind(self.word())?;
                self.eat(b' ')?;
                let static_id = self.number(10, 9)? as u32;
                self.eat(b' ')?;
                let instance = self.number(10, 19)?;
                TraceEvent::Sync {
                    core,
                    kind,
                    static_id,
                    instance,
                }
            }
            _ => return None,
        };
        self.eat(b'\n')?;
        Some(event)
    }
}

/// Parses `block`, a run of complete lines each ended by `\n`, appending
/// its events. `lineno` counts the lines consumed before and during.
fn parse_block(
    block: &[u8],
    lineno: &mut usize,
    events: &mut Vec<TraceEvent>,
) -> Result<(), ParseTraceError> {
    let mut cur = Cursor {
        bytes: block,
        pos: 0,
    };
    while cur.pos < block.len() {
        *lineno += 1;
        let start = cur.pos;
        if block[start] == b'\n' {
            cur.pos += 1;
            continue;
        }
        if let Some(event) = cur.canonical_event() {
            events.push(event);
            continue;
        }
        let end = start
            + block[start..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("every line in a block ends with a newline");
        if let Some(event) = parse_raw_line(&block[start..end], *lineno)? {
            events.push(event);
        }
        cur.pos = end + 1;
    }
    Ok(())
}

/// Writes `events` to `w`, one line each, in the canonical form.
///
/// Lines are formatted into a reused buffer and written in chunks of about
/// 8 KiB, so `w` needs no buffering of its own. A `&mut` reference works
/// wherever a writer is needed.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_trace<W: Write>(mut w: W, events: &[TraceEvent]) -> io::Result<()> {
    let mut buf = vec![0; CHUNK];
    let mut len = 0;
    for e in events {
        if len + MAX_LINE > CHUNK {
            w.write_all(&buf[..len])?;
            len = 0;
        }
        let slot = (&mut buf[len..len + MAX_LINE])
            .try_into()
            .expect("MAX_LINE bytes");
        len += LineWriter::encode(slot, e);
        buf[len] = b'\n';
        len += 1;
    }
    w.write_all(&buf[..len])
}

/// Reads a whole trace from `r`.
///
/// The input streams through an 8 KiB buffer (grown only for a longer
/// line), so `r` needs no buffering of its own. A `&mut` reference works
/// wherever a reader is needed. Blank lines and `#` comment lines are
/// skipped.
///
/// # Errors
///
/// Returns an `InvalidData` error wrapping [`ParseTraceError`] for
/// malformed lines (including a core at or above
/// [`CoreSet::MAX_CORES`] and invalid UTF-8), or propagates I/O errors.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    let mut buf = vec![0u8; CHUNK];
    let mut filled = 0;
    let mut lineno = 0;
    loop {
        let n = match r.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            // End of input: a last line without a newline still counts.
            if filled > 0 {
                buf.truncate(filled);
                buf.push(b'\n');
                parse_block(&buf, &mut lineno, &mut events)?;
            }
            return Ok(events);
        }
        filled += n;
        match buf[..filled].iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                parse_block(&buf[..=last], &mut lineno, &mut events)?;
                buf.copy_within(last + 1..filled, 0);
                filled -= last + 1;
            }
            None if filled == buf.len() => buf.resize(2 * filled, 0),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(core: usize, block: u64, targets: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent::Miss {
            core: CoreId::new(core),
            block: BlockAddr::from_index(block),
            pc: 0x4a0,
            kind,
            targets: CoreSet::from_bits(targets),
        }
    }

    fn sync(core: usize, kind: SyncKind, id: u32, inst: u64) -> TraceEvent {
        TraceEvent::Sync {
            core: CoreId::new(core),
            kind,
            static_id: id,
            instance: inst,
        }
    }

    #[test]
    fn encode_forms() {
        assert_eq!(
            encode_line(&miss(3, 0x1000, 0b101, AccessKind::Write)),
            "M 3 1000 4a0 W 5"
        );
        assert_eq!(encode_line(&sync(7, SyncKind::Lock, 9, 2)), "S 7 lock 9 2");
    }

    #[test]
    fn round_trip_every_variant() {
        let events = vec![
            miss(0, 1, 0, AccessKind::Read),
            miss(15, 0xdead, 0xffff, AccessKind::Upgrade),
            sync(1, SyncKind::Barrier, 1, 0),
            sync(2, SyncKind::Unlock, 4, 99),
            sync(3, SyncKind::Join, 5, 1),
            sync(4, SyncKind::Wakeup, 6, 2),
            sync(5, SyncKind::Broadcast, 7, 3),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\nM 0 1 0 R 0\n   \n# trailer\n";
        let events = read_trace(text.as_bytes()).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "M 0 1 0 R 0\nM 0 zz 0 R 0\n";
        let err = read_trace(text.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("bad block"), "{msg}");

        // Cores past `CoreSet::MAX_CORES` are errors, not panics.
        for (text, line) in [
            ("M 99 1 0 R 0", 1),
            ("# c\nS 70000 lock 1 2", 2),
            ("\n\nM 64 1 0 R 0\n", 3),
        ] {
            let err = read_trace(text.as_bytes()).unwrap_err();
            let parse = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<ParseTraceError>())
                .expect("a ParseTraceError");
            assert!(parse.message.contains("bad core"), "{parse}");
            assert_eq!(parse.line, line, "{text:?}");
        }

        // Invalid UTF-8 names its line too, even inside a comment.
        for (text, line) in [
            (&b"M 0 1 0 R 0\nM 0 1 \xff R 0\n"[..], 2),
            (&b"\n\n# \xc3(\nM 0 1 0 R 0"[..], 3),
        ] {
            let err = read_trace(text).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let parse = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<ParseTraceError>())
                .expect("a ParseTraceError");
            assert_eq!(parse.line, line, "{parse}");
            assert!(parse.message.contains("UTF-8"), "{parse}");
        }
    }

    #[test]
    fn lenient_forms_parse_like_canonical_ones() {
        let canonical = "M 3 1a 4a0 W 5\nS 7 lock 9 2\n";
        let want = read_trace(canonical.as_bytes()).unwrap();
        for text in [
            "M 3 1a 4a0 W 5\r\nS 7 lock 9 2\r\n",
            "M\t3 1A 4A0 W 5\n  S 7  lock 09 +2  \n",
            "M +03 001a 04a0 W 05\nS 7 lock 9 2",
            "\u{a0}M 3 1a 4a0 W 5\u{2003}\n# note\n\nS 7 lock 9 2\n",
        ] {
            assert_eq!(read_trace(text.as_bytes()).unwrap(), want, "{text:?}");
        }
    }

    #[test]
    fn long_inputs_stream_across_chunks() {
        // Lines straddle the reader's chunk boundary; one line is longer
        // than a chunk.
        let events: Vec<TraceEvent> = (0..10_000)
            .map(|i| {
                miss(
                    i % 64,
                    i as u64 * 0x9e37_79b9,
                    u64::MAX >> (i % 64),
                    AccessKind::Read,
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        assert_eq!(read_trace(buf.as_slice()).unwrap(), events);
        let mut text = format!("#{}\n", "x".repeat(3 * CHUNK)).into_bytes();
        text.extend_from_slice(&buf);
        assert_eq!(read_trace(text.as_slice()).unwrap(), events);
    }

    #[test]
    fn extreme_values_round_trip() {
        let events = vec![
            miss(63, u64::MAX, u64::MAX, AccessKind::Upgrade),
            miss(0, 0, 0, AccessKind::Read),
            sync(63, SyncKind::Broadcast, u32::MAX, u64::MAX),
            sync(0, SyncKind::Join, 0, 0),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(
            text.starts_with("M 63 ffffffffffffffff 4a0 U ffffffffffffffff\n"),
            "{text}"
        );
        assert!(
            text.contains("S 63 broadcast 4294967295 18446744073709551615\n"),
            "{text}"
        );
        assert_eq!(read_trace(buf.as_slice()).unwrap(), events);
    }

    #[test]
    fn unknown_record_rejected() {
        assert!(read_trace("X what is this".as_bytes()).is_err());
        assert!(read_trace("M 0 1 0 Q 0".as_bytes()).is_err());
        assert!(read_trace("S 0 fence 1 0".as_bytes()).is_err());
    }

    #[test]
    fn display_matches_codec() {
        let e = miss(1, 2, 3, AccessKind::Read);
        assert_eq!(e.to_string(), encode_line(&e));
    }
}
