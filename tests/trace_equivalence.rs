//! Differential harness pinning the allocation-free trace codec and the
//! flat vector-clock race analyzer against verbatim ports of the
//! implementations they replaced (`tests/common/trace_ref.rs`):
//!
//! * **Encoding** — `write_trace`, `encode_line` and `Display` produce the
//!   same bytes as the `format!`-per-line writer, on random events over
//!   the full value ranges and on real simulator traces.
//! * **Decoding** — `read_trace` accepts the same inputs with the same
//!   events and rejects the same inputs with the same line number and
//!   message, on `DetRng`-mutated lines: tabs, CRLF, Unicode whitespace,
//!   `+` and `-` signs, uppercase hex, leading zeros, overflow, cores past
//!   the 64-core cap, trailing and missing fields, `#` comments, blank
//!   lines, invalid UTF-8 and stray bytes. Each input is also fed through
//!   a reader that returns a few bytes per call, and all accepted inputs
//!   together through one reader, so lines straddle the codec's chunk
//!   boundaries.
//! * **Race analysis** — `analyze_races` returns a `RaceReport` equal to
//!   the `HashMap`-and-cloned-`Vec` analyzer's on the traces of all 18
//!   benchmarks under the directory and SP-prediction protocols at 16
//!   cores, the four 8×8-mesh benchmarks at 64 cores, and on `DetRng`
//!   adversarial traces: barrier waves with missing and out-of-order
//!   arrivals, events between a core's barrier arrival and its wave's
//!   completion, lock reuse, unlocks without locks, self-targets and a
//!   few blocks reused densely. Long lock- and barrier-dense traces at 16
//!   and 64 cores drive the analyzer's shared per-epoch clock rows through
//!   many creations, drops and reuses.
//!
//! All randomness is `DetRng`-seeded: a failure names the case to replay.

use std::io::{self, Read};

use spcp::mem::BlockAddr;
use spcp::noc::NocConfig;
use spcp::predict::AccessKind;
use spcp::sim::{CoreId, CoreSet, DetRng};
use spcp::sync::SyncKind;
use spcp::system::{CmpSystem, MachineConfig, PredictorKind, ProtocolKind, RunConfig};
use spcp::trace::{codec::encode_line, read_trace, write_trace, ParseTraceError, TraceEvent};
use spcp::verify::analyze_races;
use spcp::workloads::{suite, BenchmarkSpec};

mod common;
use common::trace_ref::{ref_analyze_races, ref_encode_line, ref_read_trace, ref_write_trace};

/// Randomized cases per property (acceptance floor: 1000).
const CASES: u64 = 1024;
const SEED: u64 = 0x7_4ACE;

fn case_rng(salt: u64, case: u64) -> DetRng {
    DetRng::seeded(SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

const ACCESS_KINDS: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::Upgrade];
const SYNC_KINDS: [SyncKind; 6] = [
    SyncKind::Barrier,
    SyncKind::Join,
    SyncKind::Wakeup,
    SyncKind::Broadcast,
    SyncKind::Lock,
    SyncKind::Unlock,
];

/// A value of up to `bits` bits, biased toward small ones and the edges.
fn value(rng: &mut DetRng, bits: u32) -> u64 {
    let max = u64::MAX >> (64 - bits);
    match rng.index(6) {
        0 => 0,
        1 => max,
        2 => rng.range(0, 16),
        3 => rng.range(0, 1 << 20),
        _ => rng.range(0, u64::MAX) & max,
    }
}

fn random_event(rng: &mut DetRng, cores: usize) -> TraceEvent {
    let core = CoreId::new(rng.index(cores));
    if rng.chance(0.7) {
        let mask = u64::MAX >> (64 - cores);
        TraceEvent::Miss {
            core,
            block: BlockAddr::from_index(value(rng, 64)),
            pc: value(rng, 32) as u32,
            kind: *rng.pick(&ACCESS_KINDS),
            targets: CoreSet::from_bits(value(rng, 64) & mask),
        }
    } else {
        TraceEvent::Sync {
            core,
            kind: *rng.pick(&SYNC_KINDS),
            static_id: value(rng, 32) as u32,
            instance: value(rng, 64),
        }
    }
}

fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, events).expect("in-memory write");
    buf
}

fn ref_encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    ref_write_trace(&mut buf, events).expect("in-memory write");
    buf
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A reader that hands out its input a few bytes per call.
struct Trickle<'a> {
    data: &'a [u8],
    rng: DetRng,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (1 + self.rng.index(7)).min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn parse_error(e: &io::Error) -> Option<&ParseTraceError> {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<ParseTraceError>())
}

/// The 1-based number of the first `\n`-separated line that is not UTF-8.
fn first_invalid_utf8_line(input: &[u8]) -> Option<usize> {
    input
        .split(|&b| b == b'\n')
        .position(|line| std::str::from_utf8(line).is_err())
        .map(|i| i + 1)
}

/// Asserts `read_trace` decodes `input` exactly as the reference does,
/// through `reader`, and returns whether the input was accepted.
fn assert_same_decode(input: &[u8], got: io::Result<Vec<TraceEvent>>, what: &str) -> bool {
    let want = ref_read_trace(input);
    match (want, got) {
        (Ok(want), Ok(got)) => {
            assert_eq!(got, want, "{what}: decoded events differ");
            true
        }
        (Err(want), Err(got)) => {
            assert_eq!(got.kind(), io::ErrorKind::InvalidData, "{what}: {got}");
            let got =
                parse_error(&got).unwrap_or_else(|| panic!("{what}: not a ParseTraceError: {got}"));
            match parse_error(&want) {
                Some(want) => assert_eq!(got, want, "{what}"),
                None => {
                    // The reference's bare UTF-8 error from `BufRead::lines`.
                    assert_eq!(want.kind(), io::ErrorKind::InvalidData, "{what}: {want}");
                    assert_eq!(got.message, "invalid UTF-8", "{what}");
                    assert_eq!(Some(got.line), first_invalid_utf8_line(input), "{what}");
                }
            }
            false
        }
        (want, got) => panic!(
            "{what}: accept/reject differs for {:?}\n  reference: {want:?}\n  codec:     {got:?}",
            String::from_utf8_lossy(input)
        ),
    }
}

const UNICODE_SPACES: [&str; 8] = [
    "\u{a0}", "\u{85}", "\u{2003}", "\u{3000}", "\u{b}", "\u{c}", "\u{2028}", "\u{1680}",
];

const STRAY_BYTES: &[u8] = b" \t\r\0+-#0F9fgxMS\x7f\x80\xbf\xc3\xff";

/// The byte ranges of `line`'s space-separated fields.
fn fields(line: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in line.iter().enumerate() {
        if b == b' ' {
            out.push((start, i));
            start = i + 1;
        }
    }
    out.push((start, line.len()));
    out
}

/// Applies one grammar-probing mutation to `lines[i]` (or around it).
fn mutate(rng: &mut DetRng, lines: &mut Vec<Vec<u8>>, i: usize) {
    let line = &mut lines[i];
    if line.is_empty() {
        // An earlier mutation emptied it.
        line.extend_from_slice(b"S 0 lock 1 2");
    }
    let f = fields(line);
    // A numeric field: core (1) or one of the trailing values.
    let numeric = if line.first() == Some(&b'M') {
        *rng.pick(&[1, 2, 3, 5])
    } else {
        *rng.pick(&[1, 3, 4])
    };
    let (fs, fe) = f[numeric.min(f.len() - 1)];
    let spaces: Vec<usize> = (0..line.len()).filter(|&k| line[k] == b' ').collect();
    let space = if spaces.is_empty() {
        0
    } else {
        *rng.pick(&spaces)
    };
    match rng.index(22) {
        0 => line[space] = b'\t',
        1 => line.insert(space, b' '),
        2 => {
            let ws = rng.pick(&UNICODE_SPACES).as_bytes();
            line.splice(space..space + 1, ws.iter().copied());
        }
        3 => line.insert(fs, b'+'),
        4 => line.insert(fs, b'-'),
        5 => line.make_ascii_uppercase(),
        6 => {
            let zeros = 1 + rng.index(24);
            line.splice(fs..fs, std::iter::repeat_n(b'0', zeros));
        }
        7 => {
            let big: &[u8] = rng.pick::<&[u8]>(&[
                &b"18446744073709551616"[..],
                b"18446744073709551615",
                b"99999999999999999999",
                b"4294967296",
                b"4294967295",
                b"10000000000000000",
                b"ffffffffffffffff",
                b"100000000",
                b"fffffffff",
            ]);
            line.splice(fs..fe, big.iter().copied());
        }
        8 => {
            let (cs, ce) = f[1.min(f.len() - 1)];
            let core: &[u8] = rng.pick::<&[u8]>(&[b"64", b"99", b"70000", b"0064", b"63", b"+63"]);
            line.splice(cs..ce, core.iter().copied());
        }
        9 => line.extend_from_slice(rng.pick::<&[u8]>(&[b" 0", b" x", b" #", b"\t1"])),
        10 => {
            let (s, e) = *rng.pick(&f);
            line.drain(s.saturating_sub(1)..e);
        }
        11 => line.insert(0, b'#'),
        12 => {
            let comment: &[u8] =
                rng.pick::<&[u8]>(&[b"# note", b"  # indented", b"#", b"# \xff bad"]);
            lines.insert(i, comment.to_vec());
        }
        13 => {
            let blank: &[u8] =
                rng.pick::<&[u8]>(&[b"", b"   ", b"\t", b"\r", "\u{3000}".as_bytes()]);
            lines.insert(i, blank.to_vec());
        }
        14 => {
            let at = rng.index(line.len() + 1);
            let bad: &[u8] = rng.pick::<&[u8]>(&[b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]);
            line.splice(at..at, bad.iter().copied());
        }
        15 => {
            let at = rng.index(line.len().max(1));
            let b = *rng.pick(STRAY_BYTES);
            if at < line.len() {
                line[at] = b;
            } else {
                line.push(b);
            }
        }
        16 => {
            line.insert(0, b' ');
            line.push(b'\t');
        }
        17 => line.push(b'\r'),
        18 => {
            let (s, e) = f[if line.first() == Some(&b'M') { 4 } else { 2 }.min(f.len() - 1)];
            let word: &[u8] = rng.pick::<&[u8]>(&[
                b"r",
                b"w",
                b"RW",
                b"BARRIER",
                b"barrie",
                b"barrierx",
                b"lockunlock",
                b"broadcasts",
                b"join",
                b"wakeup",
                b"W",
            ]);
            line.splice(s..e, word.iter().copied());
        }
        19 => line.truncate(rng.index(line.len() + 1)),
        20 => line.clear(),
        _ => {
            let at = rng.index(line.len() + 1);
            line.insert(at, *rng.pick(STRAY_BYTES));
        }
    }
}

#[test]
fn encoding_is_byte_identical() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let cores = *rng.pick(&[1, 2, 16, 63, 64]);
        let events: Vec<TraceEvent> = (0..rng.index(300))
            .map(|_| random_event(&mut rng, cores))
            .collect();
        assert_eq!(encode(&events), ref_encode(&events), "case {case}");
        for e in &events {
            let want = ref_encode_line(e);
            assert_eq!(encode_line(e), want, "case {case}");
            assert_eq!(e.to_string(), want, "case {case}");
        }
    }
    // Long enough to cross the writer's chunk boundary many times.
    let mut rng = case_rng(1, CASES);
    let events: Vec<TraceEvent> = (0..40_000).map(|_| random_event(&mut rng, 64)).collect();
    assert_eq!(encode(&events), ref_encode(&events));
}

#[test]
fn decoding_accepts_and_rejects_like_the_reference() {
    let mut accepted_inputs = Vec::new();
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let events: Vec<TraceEvent> = (0..1 + rng.index(6))
            .map(|_| random_event(&mut rng, 64))
            .collect();
        let mut lines: Vec<Vec<u8>> = events
            .iter()
            .map(|e| ref_encode_line(e).into_bytes())
            .collect();
        for _ in 0..1 + rng.index(2) {
            let i = rng.index(lines.len());
            mutate(&mut rng, &mut lines, i);
        }
        let newline: &[u8] = if rng.chance(0.2) { b"\r\n" } else { b"\n" };
        let mut input = lines.join(newline);
        if rng.chance(0.7) {
            input.extend_from_slice(newline);
        }

        let what = format!("case {case}");
        let ok = assert_same_decode(&input, read_trace(input.as_slice()), &what);
        let trickle = Trickle {
            data: &input,
            rng: case_rng(3, case),
        };
        assert_same_decode(&input, read_trace(trickle), &format!("{what} (trickled)"));
        if ok {
            accepted += 1;
            accepted_inputs.extend_from_slice(&input);
            if !input.ends_with(b"\n") {
                accepted_inputs.push(b'\n');
            }
        } else {
            rejected += 1;
        }
    }
    // Both outcomes are well represented.
    assert!(
        accepted > CASES / 5 && rejected > CASES / 5,
        "{accepted} accepted, {rejected} rejected"
    );
    // All accepted inputs as one stream, repeated past several chunks.
    let stream = accepted_inputs.repeat(1 + (256 * 1024) / accepted_inputs.len().max(1));
    assert!(assert_same_decode(
        &stream,
        read_trace(stream.as_slice()),
        "concatenated"
    ));
}

#[test]
fn boundary_values_decode_like_the_reference() {
    // Every numeric field of both record kinds, at the edges of its type
    // and of the byte parser's digit caps.
    const DECIMAL: [&str; 20] = [
        "0",
        "9",
        "10",
        "63",
        "64",
        "099",
        "999999999",
        "1000000000",
        "4294967295",
        "4294967296",
        "9999999999999999999",
        "10000000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "000000000000000000000001",
        "+7",
        "-0",
        "1_0",
        "",
    ];
    const HEX: [&str; 16] = [
        "0",
        "f",
        "ffffffff",
        "fffffffff",
        "100000000",
        "0ffffffff",
        "ffffffffffffffff",
        "10000000000000000",
        "0ffffffffffffffff",
        "00000000000000000000001",
        "FfFf",
        "+a",
        "-1",
        "fg",
        "0x1",
        "",
    ];
    let mut cases = 0;
    for (template, fields) in [
        (
            ["M", "3", "1a", "4a0", "W", "5"].as_slice(),
            [1, 2, 3, 5].as_slice(),
        ),
        (
            ["S", "7", "lock", "9", "2"].as_slice(),
            [1, 3, 4].as_slice(),
        ),
    ] {
        for &field in fields {
            let hex = template[0] == "M" && field != 1;
            let values: &[&str] = if hex { &HEX } else { &DECIMAL };
            for value in values {
                let mut line: Vec<&str> = template.to_vec();
                line[field] = value;
                let input = format!("# boundary\n{}\n", line.join(" "));
                assert_same_decode(input.as_bytes(), read_trace(input.as_bytes()), &input);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 4 * DECIMAL.len() + 3 * HEX.len());
}

// ---------------------------------------------------------------------------
// Race analysis
// ---------------------------------------------------------------------------

fn traced(
    spec: &BenchmarkSpec,
    machine: &MachineConfig,
    protocol: ProtocolKind,
) -> Vec<TraceEvent> {
    let workload = spec.generate(machine.num_cores, 7);
    let cfg = RunConfig::new(machine.clone(), protocol).tracing();
    CmpSystem::run_workload(&workload, &cfg).trace
}

/// Encodes, decodes and race-checks a real trace with both
/// implementations; returns its event count.
fn assert_pipeline_matches(cores: usize, events: &[TraceEvent], what: &str) -> usize {
    let bytes = encode(events);
    assert!(bytes == ref_encode(events), "{what}: encodings differ");
    let back = read_trace(bytes.as_slice()).expect("decodes");
    assert!(back == events, "{what}: round trip differs");
    assert!(
        ref_read_trace(bytes.as_slice()).expect("decodes") == back,
        "{what}"
    );
    let report = analyze_races(cores, &back);
    assert_eq!(
        report,
        ref_analyze_races(cores, &back),
        "{what}: race reports differ"
    );
    events.len()
}

#[test]
fn race_reports_match_on_every_benchmark_at_16_cores() {
    let machine = MachineConfig::paper_16core();
    let mut total = 0;
    for spec in suite::all() {
        for (label, protocol) in [
            ("dir", ProtocolKind::Directory),
            ("sp", ProtocolKind::Predicted(PredictorKind::sp_default())),
        ] {
            let trace = traced(&spec, &machine, protocol);
            total += assert_pipeline_matches(16, &trace, &format!("{}/{label}", spec.name));
        }
    }
    assert!(total > 100_000, "only {total} events");
}

#[test]
fn race_reports_match_on_the_mesh64_benchmarks() {
    let mut machine = MachineConfig::paper_16core();
    machine.num_cores = 64;
    machine.noc = NocConfig {
        width: 8,
        height: 8,
        ..NocConfig::default()
    };
    for name in ["vips", "dedup", "ferret", "bodytrack"] {
        let spec = suite::by_name(name).expect("known benchmark");
        let trace = traced(&spec, &machine, ProtocolKind::Directory);
        assert_pipeline_matches(64, &trace, &format!("mesh64 {name}"));
    }
}

/// An adversarial trace for `n` cores; see the module docs.
fn adversarial_trace(rng: &mut DetRng, n: usize) -> Vec<TraceEvent> {
    let blocks = 1 + rng.index(12) as u64;
    let block_stride = *rng.pick(&[1u64, 64, 1 << 40]);
    let locks = 1 + rng.index(3) as u32;
    let barriers = 1 + rng.index(2) as u32;
    let mut wave = vec![0u64; barriers as usize];
    let mut events = Vec::new();

    let sync = |core: usize, kind, static_id, instance| TraceEvent::Sync {
        core: CoreId::new(core),
        kind,
        static_id,
        instance,
    };
    let random_miss = |rng: &mut DetRng, core: usize| {
        let mut targets = CoreSet::empty();
        if rng.chance(0.6) {
            for t in 0..n {
                if rng.chance(0.3) {
                    targets.insert(CoreId::new(t));
                }
            }
        }
        if rng.chance(0.1) {
            targets.insert(CoreId::new(core));
        }
        TraceEvent::Miss {
            core: CoreId::new(core),
            block: BlockAddr::from_index(rng.range(0, blocks) * block_stride),
            pc: 0,
            kind: *rng.pick(&ACCESS_KINDS),
            targets,
        }
    };

    let len = 10 + rng.index(300);
    while events.len() < len {
        let core = rng.index(n);
        match rng.index(100) {
            0..=49 => events.push(random_miss(rng, core)),
            50..=54 => {
                // A whole wave in shuffled order, arrivals sometimes
                // missing, other events between arrivals.
                let sid = rng.range(0, barriers as u64) as u32;
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                for c in order {
                    if rng.chance(0.9) {
                        events.push(sync(c, SyncKind::Barrier, sid, wave[sid as usize]));
                    }
                    while rng.chance(0.4) {
                        let other = rng.index(n);
                        events.push(random_miss(rng, other));
                    }
                }
                wave[sid as usize] += 1;
            }
            55..=64 => {
                // A stray arrival: the current wave, the next, or a stale one.
                let sid = rng.range(0, barriers as u64) as u32;
                let w = wave[sid as usize];
                let instance = match rng.index(4) {
                    0 => w + 1,
                    1 => w.saturating_sub(1),
                    _ => w,
                };
                events.push(sync(core, SyncKind::Barrier, sid, instance));
                if rng.chance(0.1) {
                    wave[sid as usize] += 1;
                }
            }
            65..=76 => events.push(sync(
                core,
                SyncKind::Lock,
                rng.range(0, locks as u64) as u32,
                0,
            )),
            77..=88 => events.push(sync(
                core,
                SyncKind::Unlock,
                rng.range(0, locks as u64) as u32,
                0,
            )),
            _ => {
                let kind = *rng.pick(&[SyncKind::Join, SyncKind::Wakeup, SyncKind::Broadcast]);
                events.push(sync(core, kind, rng.range(0, 4) as u32, 0));
            }
        }
    }
    events
}

#[test]
fn race_reports_match_on_adversarial_traces() {
    let (mut races, mut checked, mut unknown, mut read_pairs) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = *rng.pick(&[1, 2, 3, 4, 5, 8, 16, 64]);
        let trace = adversarial_trace(&mut rng, n);
        let report = analyze_races(n, &trace);
        assert_eq!(
            report,
            ref_analyze_races(n, &trace),
            "case {case} ({n} cores)"
        );
        races += report.races.len();
        checked += report.checked_pairs;
        unknown += report.unknown_pairs;
        read_pairs += report.read_pairs;
    }
    // The generator reaches every outcome of a pair check.
    assert!(
        races > 0 && checked > races as u64,
        "{races} races, {checked} checked"
    );
    assert!(
        unknown > 0 && read_pairs > 0,
        "{unknown} unknown, {read_pairs} read-only"
    );
}

/// A long trace dense in critical sections and barrier waves on `n`
/// cores: every core's clock keeps changing outside its own component,
/// and a small block pool keeps overwriting snapshots. Two barriers' waves
/// are open at once, and cores that have arrived at a wave keep taking
/// locks and missing until its last arrival, so completions overwrite
/// clocks that moved since the arrival.
fn sync_dense_trace(rng: &mut DetRng, n: usize, len: usize) -> Vec<TraceEvent> {
    const BLOCKS: u64 = 48;
    const LOCKS: u64 = 4;
    const BARRIERS: usize = 2;
    // Per barrier: the open wave's instance and the cores yet to arrive.
    let mut waves: Vec<(u64, Vec<usize>)> = vec![(0, Vec::new()); BARRIERS];
    let mut events = Vec::with_capacity(len + 8);
    let sync = |core: usize, kind, static_id, instance| TraceEvent::Sync {
        core: CoreId::new(core),
        kind,
        static_id,
        instance,
    };
    let random_miss = |rng: &mut DetRng, core: usize| {
        let mut targets = CoreSet::empty();
        for _ in 0..rng.index(4) {
            targets.insert(CoreId::new(rng.index(n)));
        }
        TraceEvent::Miss {
            core: CoreId::new(core),
            block: BlockAddr::from_index(rng.range(0, BLOCKS)),
            pc: 0,
            kind: *rng.pick(&ACCESS_KINDS),
            targets,
        }
    };
    while events.len() < len {
        let core = rng.index(n);
        match rng.index(100) {
            0..=39 => {
                // A critical section: lock, a few misses, unlock.
                let lock = rng.range(0, LOCKS) as u32;
                events.push(sync(core, SyncKind::Lock, lock, 0));
                for _ in 0..1 + rng.index(4) {
                    events.push(random_miss(rng, core));
                }
                events.push(sync(core, SyncKind::Unlock, lock, 0));
            }
            40..=64 => events.push(random_miss(rng, core)),
            65..=94 => {
                // The next arrival at a barrier, in a shuffled order drawn
                // when its wave opens.
                let b = rng.index(BARRIERS);
                let (instance, left) = &mut waves[b];
                if left.is_empty() {
                    left.extend(0..n);
                    rng.shuffle(left);
                }
                let c = left.pop().expect("an open wave has cores left");
                events.push(sync(c, SyncKind::Barrier, b as u32, *instance));
                if left.is_empty() {
                    *instance += 1;
                }
            }
            _ => {
                let kind = *rng.pick(&[SyncKind::Join, SyncKind::Wakeup, SyncKind::Broadcast]);
                events.push(sync(core, kind, 0, 0));
            }
        }
    }
    events
}

#[test]
fn race_reports_match_on_sync_dense_traces() {
    for n in [16, 64] {
        for case in 0..4 {
            let mut rng = case_rng(5, case ^ ((n as u64) << 8));
            let trace = sync_dense_trace(&mut rng, n, 40_000);
            let report = analyze_races(n, &trace);
            assert_eq!(
                report,
                ref_analyze_races(n, &trace),
                "case {case} ({n} cores)"
            );
            assert!(
                !report.races.is_empty() && report.checked_pairs > report.races.len() as u64,
                "case {case} ({n} cores): {}",
                report.summary()
            );
        }
    }
}
