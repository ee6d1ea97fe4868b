//! JSONL run records: the payload carried inside each spool frame.
//!
//! Every completed run is one flat JSON object holding the run's identity
//! (`index`, `id`), the engine's timing metadata, and the exact integer
//! moments of its statistics. Floating-point fields (`NocStats::energy`,
//! `RunStats::snoop_energy`) are stored as their IEEE-754 bit patterns so
//! the round trip is bit-exact; `MeanAccumulator` and `Histogram` travel
//! as their raw integer parts.
//!
//! The codec is deliberately tiny and dependency-free: values are
//! unsigned integers (up to `u128`), strings, or arrays of unsigned
//! integers — exactly what [`spcp_system::RunStats`] needs. Unknown keys
//! are ignored on decode so the format can grow fields without breaking
//! old readers.
//!
//! SP runs also carry their per-source prediction counters (`SpStats`)
//! as one `sp` array. Heavy optional payloads (`comm_matrix`,
//! `epoch_records`, `pc_volumes`, traces) do **not** travel through the
//! spool; streamed sweeps reject recording matrices up front.

use std::collections::HashMap;
use std::time::Duration;

use spcp_sim::{Histogram, MeanAccumulator};
use spcp_system::RunStats;

/// Spool format version stamped into every record and shard header.
pub const RECORD_VERSION: u64 = 1;

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

/// One row of the plain-`u64` statistics field table: key, getter, setter.
type U64Field = (&'static str, fn(&RunStats) -> u64, fn(&mut RunStats, u64));

/// The `(key, getter, setter)` table of plain `u64` statistics fields —
/// one place to keep encode and decode in lockstep.
const U64_FIELDS: [U64Field; 23] = [
    ("total_ops", |s| s.total_ops, |s, v| s.total_ops = v),
    ("loads", |s| s.loads, |s, v| s.loads = v),
    ("stores", |s| s.stores, |s, v| s.stores = v),
    ("l1_hits", |s| s.l1_hits, |s, v| s.l1_hits = v),
    ("l2_hits", |s| s.l2_hits, |s, v| s.l2_hits = v),
    ("l2_misses", |s| s.l2_misses, |s, v| s.l2_misses = v),
    ("upgrades", |s| s.upgrades, |s, v| s.upgrades = v),
    ("comm_misses", |s| s.comm_misses, |s, v| s.comm_misses = v),
    (
        "noncomm_misses",
        |s| s.noncomm_misses,
        |s, v| s.noncomm_misses = v,
    ),
    ("exec_cycles", |s| s.exec_cycles, |s, v| s.exec_cycles = v),
    (
        "snoop_probes",
        |s| s.snoop_probes,
        |s, v| s.snoop_probes = v,
    ),
    ("predictions", |s| s.predictions, |s, v| s.predictions = v),
    (
        "pred_sufficient",
        |s| s.pred_sufficient,
        |s, v| s.pred_sufficient = v,
    ),
    (
        "pred_sufficient_comm",
        |s| s.pred_sufficient_comm,
        |s, v| s.pred_sufficient_comm = v,
    ),
    (
        "pred_insufficient",
        |s| s.pred_insufficient,
        |s, v| s.pred_insufficient = v,
    ),
    (
        "indirections",
        |s| s.indirections,
        |s, v| s.indirections = v,
    ),
    (
        "predicted_set_sum",
        |s| s.predicted_set_sum,
        |s, v| s.predicted_set_sum = v,
    ),
    (
        "actual_set_sum",
        |s| s.actual_set_sum,
        |s, v| s.actual_set_sum = v,
    ),
    (
        "predictor_storage_bits",
        |s| s.predictor_storage_bits,
        |s, v| s.predictor_storage_bits = v,
    ),
    (
        "pred_overhead_comm",
        |s| s.pred_overhead_comm,
        |s, v| s.pred_overhead_comm = v,
    ),
    (
        "pred_overhead_noncomm",
        |s| s.pred_overhead_noncomm,
        |s, v| s.pred_overhead_noncomm = v,
    ),
    (
        "filtered_predictions",
        |s| s.filtered_predictions,
        |s, v| s.filtered_predictions = v,
    ),
    ("migrations", |s| s.migrations, |s, v| s.migrations = v),
];

/// Writes SP's per-source counters (SP runs only) as one array, in
/// `SpStats` declaration order.
fn write_sp(w: &mut ObjWriter, s: &RunStats) {
    if let Some(sp) = &s.sp {
        let counters = [
            sp.predictions,
            sp.correct_d0,
            sp.correct_history,
            sp.correct_lock,
            sp.correct_recovery,
            sp.incorrect,
            sp.no_prediction,
            sp.recoveries,
            sp.predicted_target_sum,
            sp.signatures_stored,
            sp.noisy_instances,
        ];
        w.arr("sp", counters.map(u128::from));
    }
}

/// Reads the counters [`write_sp`] wrote, when the record has them.
fn read_sp(map: &HashMap<String, Val>, s: &mut RunStats) -> Result<(), String> {
    if !map.contains_key("sp") {
        return Ok(());
    }
    let counters: [u64; 11] = get_arr_u64(map, "sp")?
        .try_into()
        .map_err(|_| "field 'sp' needs 11 counters")?;
    let sp = s.sp.insert(Default::default());
    [
        sp.predictions,
        sp.correct_d0,
        sp.correct_history,
        sp.correct_lock,
        sp.correct_recovery,
        sp.incorrect,
        sp.no_prediction,
        sp.recoveries,
        sp.predicted_target_sum,
        sp.signatures_stored,
        sp.noisy_instances,
    ] = counters;
    Ok(())
}

fn write_mean(w: &mut ObjWriter, prefix: &str, m: &MeanAccumulator) {
    w.num(&format!("{prefix}_sum"), m.sum());
    w.num(&format!("{prefix}_count"), m.count() as u128);
    w.num(&format!("{prefix}_min"), m.raw_min() as u128);
    w.num(&format!("{prefix}_max"), m.raw_max() as u128);
}

fn read_mean(map: &HashMap<String, Val>, prefix: &str) -> Result<MeanAccumulator, String> {
    Ok(MeanAccumulator::from_parts(
        get_num(map, &format!("{prefix}_sum"))?,
        get_u64(map, &format!("{prefix}_count"))?,
        get_u64(map, &format!("{prefix}_min"))?,
        get_u64(map, &format!("{prefix}_max"))?,
    ))
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
    for (key, get, _) in U64_FIELDS {
        w.num(key, get(s) as u128);
    }
    write_mean(&mut w, "ml", &s.miss_latency);
    write_mean(&mut w, "cml", &s.comm_miss_latency);
    w.arr(
        "hist_bounds",
        s.miss_latency_hist.bounds().iter().map(|&b| b as u128),
    );
    w.arr(
        "hist_counts",
        s.miss_latency_hist
            .bucket_counts()
            .iter()
            .map(|&c| c as u128),
    );
    w.num("noc_messages", s.noc.messages as u128);
    w.num("noc_bytes_injected", s.noc.bytes_injected as u128);
    w.num("noc_byte_hops", s.noc.byte_hops as u128);
    w.num("noc_ctrl_byte_hops", s.noc.ctrl_byte_hops as u128);
    w.num("noc_contention_cycles", s.noc.contention_cycles as u128);
    w.num("noc_energy_bits", s.noc.energy.to_bits() as u128);
    w.num("snoop_energy_bits", s.snoop_energy.to_bits() as u128);
    write_sp(&mut w, s);
    w.finish()
}

/// Decodes a frame payload back into a [`RunRecord`].
///
/// Heavy optional payloads (communication matrix, epoch records, traces)
/// are not spooled, so the reconstructed `RunStats` carries their empty
/// defaults; every summary/golden/report field round-trips bit-exactly.
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
    for (key, _, set) in U64_FIELDS {
        set(&mut stats, get_u64(&map, key)?);
    }
    stats.miss_latency = read_mean(&map, "ml")?;
    stats.comm_miss_latency = read_mean(&map, "cml")?;
    let bounds = get_arr_u64(&map, "hist_bounds")?;
    let counts = get_arr_u64(&map, "hist_counts")?;
    if counts.len() != bounds.len() + 1 || !bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err("malformed latency histogram".into());
    }
    stats.miss_latency_hist = Histogram::from_parts(&bounds, &counts);
    stats.noc.messages = get_u64(&map, "noc_messages")?;
    stats.noc.bytes_injected = get_u64(&map, "noc_bytes_injected")?;
    stats.noc.byte_hops = get_u64(&map, "noc_byte_hops")?;
    stats.noc.ctrl_byte_hops = get_u64(&map, "noc_ctrl_byte_hops")?;
    stats.noc.contention_cycles = get_u64(&map, "noc_contention_cycles")?;
    stats.noc.energy = f64::from_bits(get_u64(&map, "noc_energy_bits")?);
    stats.snoop_energy = f64::from_bits(get_u64(&map, "snoop_energy_bits")?);
    read_sp(&map, &mut stats)?;
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
        // And the re-encoding is byte-identical (canonical field order).
        assert_eq!(encode_record(&back), payload);
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
        let err = decode_record(r#"{"kind":"run","v":1}"#).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn decode_rejects_wrong_kind_and_version() {
        let rec = sample_record();
        let payload = encode_record(&rec);
        let other = payload.replace(r#""kind":"run""#, r#""kind":"walk""#);
        assert!(decode_record(&other).is_err());
        let other = payload.replace(r#""v":1"#, r#""v":999"#);
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
