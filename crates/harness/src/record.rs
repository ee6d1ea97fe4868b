//! JSONL run records: the payload carried inside each spool frame.
//!
//! Every completed run is one flat JSON object holding the run's identity
//! (`index`, `id`), the engine's timing metadata, and the exact integer
//! parts of its statistics: one key per row of [`SCALARS`], under the
//! golden snapshot's names and in its order, then what the golden does
//! not show (the latency extremes and histogram). Floating-point fields
//! travel as their IEEE-754 bit patterns, so the round trip is bit-exact.
//!
//! The codec is deliberately tiny and dependency-free: values are
//! unsigned integers (up to `u128`), strings, or arrays of unsigned
//! integers — exactly what [`spcp_system::RunStats`] needs. Unknown keys
//! are ignored on decode so the format can grow fields without breaking
//! old readers.
//!
//! SP runs also carry their per-source prediction counters (`SpStats`)
//! as one `sp` array. Recording runs carry their communication payloads
//! (`comm_matrix`, `epoch_records`, `pc_volumes`) as one flat array each,
//! written only when the field is non-empty; a missing key decodes to the
//! empty field. So every statistic but the trace, which no sweep collects,
//! round-trips bit-exactly.

use std::collections::HashMap;
use std::time::Duration;

use spcp_sim::{Histogram, MeanAccumulator};
use spcp_system::metrics::{EpochId, StaticSyncId, SyncKind};
use spcp_system::{CommMatrix, EpochRecord, RunStats, SCALARS};

/// Spool format version stamped into every record and shard header.
pub const RECORD_VERSION: u64 = 3;

/// Sync kinds in the order their index is spooled.
const SYNC_KINDS: [SyncKind; 6] = [
    SyncKind::Barrier,
    SyncKind::Join,
    SyncKind::Wakeup,
    SyncKind::Broadcast,
    SyncKind::Lock,
    SyncKind::Unlock,
];

/// One completed run as it travels through a spool file.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Position in the canonical matrix ordering (`RunSpec::index`).
    pub index: usize,
    /// The run's `RunSpec::id()` string, the resume key.
    pub id: String,
    /// Wall-clock time of the run (timing metadata, never compared).
    pub wall: Duration,
    /// Worker slot that executed the run (informational only).
    pub worker: usize,
    /// The reconstructed statistics.
    pub stats: RunStats,
}

// ---------------------------------------------------------------- JSON

/// A JSON value as used by spool records.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(u128),
    Str(String),
    Arr(Vec<u128>),
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
struct ObjWriter {
    buf: String,
}

impl ObjWriter {
    fn new() -> Self {
        ObjWriter {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    fn num(&mut self, key: &str, v: u128) {
        self.key(key);
        self.buf.push_str(&v.to_string());
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        push_json_str(&mut self.buf, v);
    }

    fn arr(&mut self, key: &str, vs: impl IntoIterator<Item = u128>) {
        self.key(key);
        self.buf.push('[');
        for (i, v) in vs.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Parses one flat JSON object of the record subset.
fn parse_object(s: &str) -> Result<HashMap<String, Val>, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn object(&mut self) -> Result<HashMap<String, Val>, String> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'0'..=b'9') => Ok(Val::Num(self.number()?)),
            _ => Err(format!("unexpected value at offset {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.number()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<u128, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected digits at offset {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|_| format!("integer overflow at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is already &str-valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

// ----------------------------------------------------- record en/decode

fn get_num(map: &HashMap<String, Val>, key: &str) -> Result<u128, String> {
    match map.get(key) {
        Some(Val::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field '{key}' is not a number")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn get_u64(map: &HashMap<String, Val>, key: &str) -> Result<u64, String> {
    u64::try_from(get_num(map, key)?).map_err(|_| format!("field '{key}' exceeds u64"))
}

fn get_str(map: &HashMap<String, Val>, key: &str) -> Result<String, String> {
    match map.get(key) {
        Some(Val::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field '{key}' is not a string")),
        None => Err(format!("missing field '{key}'")),
    }
}

/// The values of an optional array field, read front to back.
struct Words<'a> {
    key: &'a str,
    values: std::slice::Iter<'a, u128>,
}

impl<'a> Words<'a> {
    /// The array under `key`; a missing key reads as an empty array.
    fn of(map: &'a HashMap<String, Val>, key: &'a str) -> Result<Self, String> {
        let values = match map.get(key) {
            Some(Val::Arr(vs)) => vs.iter(),
            Some(_) => return Err(format!("field '{key}' is not an array")),
            None => [].iter(),
        };
        Ok(Words { key, values })
    }

    fn is_empty(&self) -> bool {
        self.values.len() == 0
    }

    fn ends_early(&self) -> String {
        format!("field '{}' ends early", self.key)
    }

    fn next<T: TryFrom<u128>>(&mut self) -> Result<T, String> {
        let v = *self.values.next().ok_or_else(|| self.ends_early())?;
        T::try_from(v).map_err(|_| format!("field '{}' holds an out-of-range value", self.key))
    }

    /// The next `n` values; `n` is checked against what is left before
    /// anything is allocated for them.
    fn take<T: TryFrom<u128>>(&mut self, n: usize) -> Result<Vec<T>, String> {
        if n > self.values.len() {
            return Err(self.ends_early());
        }
        (0..n).map(|_| self.next()).collect()
    }
}

/// `epoch_records` as one flat array: per core its record count, then per
/// record its sync kind, static id, instance, volume count and volumes.
fn epoch_words(cores: &[Vec<EpochRecord>]) -> impl Iterator<Item = u128> + '_ {
    cores.iter().flat_map(|records| {
        std::iter::once(records.len() as u128).chain(records.iter().flat_map(|r| {
            let kind = SYNC_KINDS.iter().position(|&k| k == r.id.kind);
            [
                kind.expect("every sync kind is listed") as u128,
                r.id.static_id.raw().into(),
                r.instance.into(),
                r.volumes.len() as u128,
            ]
            .into_iter()
            .chain(r.volumes.iter().map(|&v| v.into()))
        }))
    })
}

fn decode_epochs(mut w: Words) -> Result<Vec<Vec<EpochRecord>>, String> {
    let mut cores = Vec::new();
    while !w.is_empty() {
        let count: usize = w.next()?;
        let mut records = Vec::new();
        for _ in 0..count {
            let kind = w.next::<usize>()?;
            let kind = *SYNC_KINDS
                .get(kind)
                .ok_or("field 'epoch_records' names no sync kind")?;
            let id = EpochId {
                kind,
                static_id: StaticSyncId::new(w.next()?),
            };
            let instance = w.next()?;
            let len = w.next()?;
            records.push(EpochRecord {
                id,
                instance,
                volumes: w.take(len)?,
            });
        }
        cores.push(records);
    }
    Ok(cores)
}

fn get_arr_u64(map: &HashMap<String, Val>, key: &str) -> Result<Vec<u64>, String> {
    match map.get(key) {
        Some(Val::Arr(vs)) => vs
            .iter()
            .map(|&v| u64::try_from(v).map_err(|_| format!("field '{key}' exceeds u64")))
            .collect(),
        Some(_) => Err(format!("field '{key}' is not an array")),
        None => Err(format!("missing field '{key}'")),
    }
}

/// Encodes a run record as one flat JSON object (the frame payload).
pub fn encode_record(rec: &RunRecord) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", "run");
    w.num("v", RECORD_VERSION as u128);
    w.num("index", rec.index as u128);
    w.str("id", &rec.id);
    w.num("wall_ns", rec.wall.as_nanos());
    w.num("worker", rec.worker as u128);
    let s = &rec.stats;
    w.str("benchmark", &s.benchmark);
    w.str("protocol", &s.protocol);
    for scalar in &SCALARS {
        w.num(scalar.name, (scalar.get)(s));
    }
    // Latency extremes, which the golden does not show.
    for (m, min, max) in [
        (&s.miss_latency, "miss_latency_min", "miss_latency_max"),
        (
            &s.comm_miss_latency,
            "comm_miss_latency_min",
            "comm_miss_latency_max",
        ),
    ] {
        w.num(min, m.raw_min() as u128);
        w.num(max, m.raw_max() as u128);
    }
    let hist = &s.miss_latency_hist;
    w.arr("hist_bounds", hist.bounds().iter().map(|&b| b as u128));
    w.arr(
        "hist_counts",
        hist.bucket_counts().iter().map(|&c| c as u128),
    );
    if let Some(sp) = &s.sp {
        w.arr("sp", sp.counters().map(u128::from));
    }
    if s.comm_matrix.num_cores() > 0 {
        let cells = s.comm_matrix.rows().flatten();
        w.arr("comm_matrix", cells.map(|&c| c.into()));
    }
    if !s.epoch_records.is_empty() {
        w.arr("epoch_records", epoch_words(&s.epoch_records));
    }
    if !s.pc_volumes.is_empty() {
        // Per PC: the PC, its volume count, then the volumes.
        let words = s.pc_volumes.iter().flat_map(|(&pc, v)| {
            [pc.into(), v.len() as u128]
                .into_iter()
                .chain(v.iter().map(|&x| x.into()))
        });
        w.arr("pc_volumes", words);
    }
    w.finish()
}

/// Decodes a frame payload back into a [`RunRecord`].
///
/// Traces are not spooled, so the reconstructed `RunStats` carries an
/// empty one; every other field round-trips bit-exactly.
pub fn decode_record(payload: &str) -> Result<RunRecord, String> {
    let map = parse_object(payload)?;
    if get_str(&map, "kind")? != "run" {
        return Err("not a run record".into());
    }
    let v = get_u64(&map, "v")?;
    if v != RECORD_VERSION {
        return Err(format!("unsupported record version {v}"));
    }
    let mut stats = RunStats {
        benchmark: get_str(&map, "benchmark")?,
        protocol: get_str(&map, "protocol")?,
        ..RunStats::default()
    };
    for scalar in &SCALARS {
        let value = get_num(&map, scalar.name)?;
        (scalar.set)(&mut stats, value)
            .map_err(|_| format!("field '{}' exceeds its type", scalar.name))?;
    }
    for (m, min, max) in [
        (
            &mut stats.miss_latency,
            "miss_latency_min",
            "miss_latency_max",
        ),
        (
            &mut stats.comm_miss_latency,
            "comm_miss_latency_min",
            "comm_miss_latency_max",
        ),
    ] {
        let (min, max) = (get_u64(&map, min)?, get_u64(&map, max)?);
        *m = MeanAccumulator::from_parts(m.sum(), m.count(), min, max);
    }
    let bounds = get_arr_u64(&map, "hist_bounds")?;
    let counts = get_arr_u64(&map, "hist_counts")?;
    if counts.len() != bounds.len() + 1 || !bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err("malformed latency histogram".into());
    }
    stats.miss_latency_hist = Histogram::from_parts(&bounds, &counts);
    if map.contains_key("sp") {
        let values = get_arr_u64(&map, "sp")?;
        let counters = stats.sp.insert(Default::default()).counters_mut();
        if values.len() != counters.len() {
            return Err(format!("field 'sp' needs {} counters", counters.len()));
        }
        for (counter, value) in counters.into_iter().zip(values) {
            *counter = value;
        }
    }
    if map.contains_key("comm_matrix") {
        let cells = get_arr_u64(&map, "comm_matrix")?;
        stats.comm_matrix =
            CommMatrix::from_cells(cells).ok_or("field 'comm_matrix' is not square")?;
    }
    stats.epoch_records = decode_epochs(Words::of(&map, "epoch_records")?)?;
    let mut pcs = Words::of(&map, "pc_volumes")?;
    while !pcs.is_empty() {
        let pc = pcs.next()?;
        let len = pcs.next()?;
        stats.pc_volumes.insert(pc, pcs.take(len)?);
    }
    Ok(RunRecord {
        index: get_u64(&map, "index")? as usize,
        id: get_str(&map, "id")?,
        wall: Duration::from_nanos(u64::try_from(get_num(&map, "wall_ns")?).unwrap_or(u64::MAX)),
        worker: get_u64(&map, "worker")? as usize,
        stats,
    })
}

/// The header record opening every shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHeader {
    /// Format version.
    pub version: u64,
    /// Fingerprint of the matrix the shard belongs to.
    pub fingerprint: u64,
    /// Total number of runs in the matrix (all shards together).
    pub specs: u64,
}

/// Encodes a shard header payload.
pub fn encode_header(h: &ShardHeader) -> String {
    let mut w = ObjWriter::new();
    w.str("kind", "shard");
    w.num("v", h.version as u128);
    w.num("fingerprint", h.fingerprint as u128);
    w.num("specs", h.specs as u128);
    w.finish()
}

/// Decodes a shard header payload.
pub fn decode_header(payload: &str) -> Result<ShardHeader, String> {
    let map = parse_object(payload)?;
    if get_str(&map, "kind")? != "shard" {
        return Err("not a shard header".into());
    }
    Ok(ShardHeader {
        version: get_u64(&map, "v")?,
        fingerprint: get_u64(&map, "fingerprint")?,
        specs: get_u64(&map, "specs")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RunRecord {
        let mut stats = RunStats {
            benchmark: "fft".to_string(),
            protocol: "Directory (MESIF)".to_string(),
            total_ops: 123_456,
            exec_cycles: 987_654,
            l2_misses: 3210,
            comm_misses: 2100,
            noncomm_misses: 1110,
            ..RunStats::default()
        };
        stats.miss_latency.record(17);
        stats.miss_latency.record(250);
        stats.comm_miss_latency.record(250);
        stats.miss_latency_hist.record(17);
        stats.miss_latency_hist.record(250);
        stats.noc.messages = 5;
        stats.noc.byte_hops = 4096;
        stats.noc.energy = 1234.5678;
        stats.snoop_energy = 0.125;
        RunRecord {
            index: 7,
            id: "fft/dir/seed7/paper16".to_string(),
            wall: Duration::from_nanos(123_456_789),
            worker: 3,
            stats,
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let rec = sample_record();
        let payload = encode_record(&rec);
        assert!(!payload.contains('\n'));
        let back = decode_record(&payload).unwrap();
        assert_eq!(back.index, rec.index);
        assert_eq!(back.id, rec.id);
        assert_eq!(back.wall, rec.wall);
        assert_eq!(back.worker, rec.worker);
        assert_eq!(back.stats.benchmark, rec.stats.benchmark);
        assert_eq!(back.stats.protocol, rec.stats.protocol);
        assert_eq!(back.stats.total_ops, rec.stats.total_ops);
        assert_eq!(back.stats.exec_cycles, rec.stats.exec_cycles);
        assert_eq!(back.stats.miss_latency, rec.stats.miss_latency);
        assert_eq!(back.stats.comm_miss_latency, rec.stats.comm_miss_latency);
        assert_eq!(back.stats.miss_latency_hist, rec.stats.miss_latency_hist);
        assert_eq!(back.stats.noc, rec.stats.noc);
        assert_eq!(back.stats.snoop_energy.to_bits(), 0.125f64.to_bits());
        assert_eq!(back.stats.sp, None);
        // A run that records nothing spools no recording keys.
        for key in ["comm_matrix", "epoch_records", "pc_volumes"] {
            assert!(!payload.contains(key), "{key}");
        }
        // And the re-encoding is byte-identical (canonical field order).
        assert_eq!(encode_record(&back), payload);
    }

    /// The value [`every_field_distinct`] gives table row `i`: nonzero,
    /// distinct, and a distinct `f64` for the energy rows.
    fn row_value(i: usize, name: &str) -> u128 {
        if name.ends_with("_bits") {
            (1000.25 + i as f64 * 3.5).to_bits().into()
        } else {
            1000 + 17 * i as u128
        }
    }

    /// Every row of the statistics table, the fields the golden does not
    /// show, SP's counters and the recording payloads, each set to its own
    /// nonzero value. The epoch records cover every sync kind, a silent
    /// epoch (empty volumes) and a core with no records.
    fn every_field_distinct() -> RunRecord {
        let mut rec = sample_record();
        let s = &mut rec.stats;
        for (i, scalar) in SCALARS.iter().enumerate() {
            (scalar.set)(s, row_value(i, scalar.name)).unwrap();
        }
        for (m, min, max) in [
            (&mut s.miss_latency, 3, 900),
            (&mut s.comm_miss_latency, 5, 700),
        ] {
            *m = MeanAccumulator::from_parts(m.sum(), m.count(), min, max);
        }
        s.miss_latency_hist = Histogram::from_parts(&[16, 32, 64], &[1, 2, 3, 4]);
        let sp = s.sp.insert(Default::default());
        for (i, counter) in sp.counters_mut().into_iter().enumerate() {
            *counter = 50 + i as u64;
        }
        s.comm_matrix = CommMatrix::from_cells((300..316).collect()).unwrap();
        let record = |i: usize, volumes: Vec<u32>| EpochRecord {
            id: EpochId {
                kind: SYNC_KINDS[i],
                static_id: StaticSyncId::new(u32::MAX - i as u32),
            },
            instance: u64::MAX - i as u64,
            volumes,
        };
        s.epoch_records = vec![
            vec![record(0, vec![0, 5, 0, 7]), record(1, Vec::new())],
            Vec::new(),
            (2..SYNC_KINDS.len())
                .map(|i| record(i, vec![i as u32; 4]))
                .collect(),
        ];
        s.pc_volumes = [(7, vec![1, 2, 3, 4]), (u32::MAX, vec![0, 0, 9, u64::MAX])].into();
        rec
    }

    #[test]
    fn every_field_round_trips() {
        let rec = every_field_distinct();
        // Each row holds its own value, so no row writes another's field.
        for (i, scalar) in SCALARS.iter().enumerate() {
            let value = (scalar.get)(&rec.stats);
            assert_eq!(value, row_value(i, scalar.name), "{}", scalar.name);
        }
        let back = decode_record(&encode_record(&rec)).unwrap();
        let spec = crate::RunMatrix::new()
            .bench(spcp_workloads::suite::by_name("fft").unwrap())
            .protocol("dir", spcp_system::ProtocolKind::Directory)
            .expand()
            .remove(0);
        let snapshot = crate::golden::snapshot_run(&spec, &rec.stats);
        assert_eq!(crate::golden::snapshot_run(&spec, &back.stats), snapshot);
        assert_eq!(format!("{:?}", back.stats), format!("{:?}", rec.stats));
    }

    #[test]
    fn malformed_recording_payloads_are_rejected() {
        let payload = encode_record(&every_field_distinct());
        let cut = |key: &str, last: &str| {
            let at = payload.find(&format!("\"{key}\":[")).unwrap();
            let end = at + payload[at..].find(']').unwrap();
            let short = format!("{}]{}", &payload[..end - last.len()], &payload[end + 1..]);
            decode_record(&short).unwrap_err()
        };
        assert!(cut("comm_matrix", ",315").contains("square"));
        assert!(cut("epoch_records", ",5").contains("ends early"));
        assert!(cut("pc_volumes", ",18446744073709551615").contains("ends early"));
    }

    #[test]
    fn sp_counters_round_trip() {
        let mut rec = sample_record();
        let sp = rec.stats.sp.insert(Default::default());
        // Distinct values, so a field order mismatch cannot round-trip.
        sp.predictions = 11;
        sp.correct_d0 = 1;
        sp.correct_history = 2;
        sp.correct_lock = 3;
        sp.correct_recovery = 4;
        sp.incorrect = 5;
        sp.no_prediction = 6;
        sp.recoveries = 7;
        sp.predicted_target_sum = 8;
        sp.signatures_stored = 9;
        sp.noisy_instances = 10;
        let payload = encode_record(&rec);
        assert_eq!(decode_record(&payload).unwrap().stats.sp, rec.stats.sp);
        let short = payload.replace(",10]", "]");
        assert!(decode_record(&short).unwrap_err().contains("'sp'"));
    }

    #[test]
    fn decode_rejects_missing_fields() {
        let err = decode_record(&format!(r#"{{"kind":"run","v":{RECORD_VERSION}}}"#)).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn decode_rejects_wrong_kind_and_version() {
        let rec = sample_record();
        let payload = encode_record(&rec);
        let other = payload.replace(r#""kind":"run""#, r#""kind":"walk""#);
        assert!(decode_record(&other).is_err());
        let other = payload.replace(&format!(r#""v":{RECORD_VERSION}"#), r#""v":999"#);
        assert!(decode_record(&other).unwrap_err().contains("version"));
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let mut rec = sample_record();
        rec.id = "weird\"id\\with\tchars".to_string();
        rec.stats.benchmark = "bench\u{1}name".to_string();
        let back = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.stats.benchmark, rec.stats.benchmark);
    }

    #[test]
    fn header_round_trips() {
        let h = ShardHeader {
            version: RECORD_VERSION,
            fingerprint: 0xdead_beef_cafe_f00d,
            specs: 40,
        };
        assert_eq!(decode_header(&encode_header(&h)).unwrap(), h);
        assert!(decode_header(r#"{"kind":"run","v":1}"#).is_err());
    }

    #[test]
    fn parser_rejects_malformed_objects() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":}"#).is_err());
        assert!(parse_object(r#"{"a":1,}"#).is_err());
        assert!(parse_object(r#"{"a":1} trailing"#).is_err());
        assert!(parse_object(r#"{"a":[1,]}"#).is_err());
        assert!(parse_object(r#"{"a":"unterminated}"#).is_err());
    }

    #[test]
    fn parser_accepts_empty_object_and_array() {
        assert!(parse_object("{}").unwrap().is_empty());
        let map = parse_object(r#"{"a":[]}"#).unwrap();
        assert_eq!(map.get("a"), Some(&Val::Arr(Vec::new())));
    }
}
