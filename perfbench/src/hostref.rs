//! Host-speed reference: a fixed kernel owned by the benchmark, timed in
//! short chunks between the measured calls.
//!
//! On a shared host the simulator's speed swings by up to 2× over minutes
//! while neighbours contend for the last-level cache and memory; no length
//! of run averages that out. The kernel is a small cache simulation — 16
//! tag/LRU arrays and a sharer table, 8 MB touched at random — so it
//! slows down with the simulator (correlation 0.6–0.9 over 1-s windows).
//! Each measured interval's host time is divided by the interval's
//! slowdown: the mean chunk time over [`NOMINAL_CHUNK_SECS`], and never
//! less than 1.
//!
//! The floor is there because on a quiet host the two part ways: the
//! kernel, bound by last-level-cache latency, keeps getting faster while
//! the simulator, mostly served by the private caches, is already at its
//! top speed. Dividing by a slowdown below 1 there would add the kernel's
//! swings to steady times, so a quiet host's times are reported as
//! measured.
//!
//! A chunk follows a simulate call, whose working set may have pushed the
//! tables out of the caches; how far would then depend on the simulator's
//! footprint, and a change that shrinks it would also shrink the chunk
//! time and so cancel part of its own gain. An untimed pass over every
//! cache line of the tables therefore runs before each timed chunk, so the
//! chunk always starts from the same warm working set and measures only
//! the host's contention.

use std::time::{Duration, Instant};

const CORES: usize = 16;
const SETS: usize = 2048;
const WAYS: usize = 8;
const BLOCKS: u64 = 1 << 18;
const DIR_SLOTS: usize = 1 << 19;
const CHUNK_ACCESSES: u32 = 20_000;
/// Shortest gap between two chunks taken by [`HostRef::tick`].
const SPACING: Duration = Duration::from_millis(25);
/// A chunk's time on the host the benchmark was calibrated on (a shared
/// 2-vCPU Intel Xeon) when it is quiet: the slowest chunk time at which
/// the simulator still ran at its top speed. Normalized times read as on
/// that host when quiet.
pub const NOMINAL_CHUNK_SECS: f64 = 0.8e-3;

pub struct HostRef {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    sharers: Vec<u64>,
    clock: u64,
    rng: u64,
    /// Timed chunk seconds.
    secs: f64,
    /// Chunk and warm-pass seconds.
    spent: f64,
    chunks: u64,
    last: Instant,
}

/// A point in the reference's history; intervals are measured from one.
#[derive(Clone, Copy)]
pub struct Mark {
    secs: f64,
    spent: f64,
    chunks: u64,
}

impl HostRef {
    pub fn new() -> Self {
        let mut r = HostRef {
            tags: vec![u64::MAX; CORES * SETS * WAYS],
            stamps: vec![0; CORES * SETS * WAYS],
            sharers: vec![0; DIR_SLOTS],
            clock: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            secs: 0.0,
            spent: 0.0,
            chunks: 0,
            last: Instant::now(),
        };
        // Fault the tables' pages in before any chunk is measured.
        for _ in 0..8 {
            r.chunk();
        }
        r.secs = 0.0;
        r.spent = 0.0;
        r.chunks = 0;
        r
    }

    /// Reads one word of every cache line of the tables (untimed).
    fn warm(&self) {
        let mut sum = 0u64;
        for table in [&self.tags, &self.stamps, &self.sharers] {
            for line in table.chunks(8) {
                sum = sum.wrapping_add(line[0]);
            }
        }
        std::hint::black_box(sum);
    }

    /// Warms the tables, then runs one timed chunk: random accesses of
    /// random cores through their set-associative tag arrays, LRU
    /// replacement on a miss and a sharer-table update.
    pub fn chunk(&mut self) {
        let start = Instant::now();
        self.warm();
        let t0 = Instant::now();
        let mut hits = 0u32;
        for _ in 0..CHUNK_ACCESSES {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let core = (self.rng >> 60) as usize;
            let block = (self.rng >> 20) % BLOCKS;
            let base = (core * SETS + block as usize % SETS) * WAYS;
            self.clock += 1;
            let tags = &mut self.tags[base..base + WAYS];
            let stamps = &mut self.stamps[base..base + WAYS];
            if let Some(way) = tags.iter().position(|&t| t == block) {
                hits += 1;
                stamps[way] = self.clock;
            } else {
                let mut victim = 0;
                for way in 1..WAYS {
                    if stamps[way] < stamps[victim] {
                        victim = way;
                    }
                }
                tags[victim] = block;
                stamps[victim] = self.clock;
                let slot = (block as usize).wrapping_mul(0x9E37) % DIR_SLOTS;
                self.sharers[slot] = (self.sharers[slot] | 1 << core) ^ (self.clock & 1);
            }
        }
        std::hint::black_box(hits);
        self.last = Instant::now();
        self.secs += (self.last - t0).as_secs_f64();
        self.spent += (self.last - start).as_secs_f64();
        self.chunks += 1;
    }

    /// Runs a chunk when [`SPACING`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= SPACING {
            self.chunk();
        }
    }

    pub fn mark(&self) -> Mark {
        Mark {
            secs: self.secs,
            spent: self.spent,
            chunks: self.chunks,
        }
    }

    /// Seconds the chunks and their warm passes since `since` took (to
    /// leave out of wall-clock windows that contain them).
    pub fn spent(&self, since: Mark) -> f64 {
        self.spent - since.spent
    }

    /// The host's slowdown over the interval since `since`: mean chunk
    /// time over the nominal one, at least 1. Takes a chunk if none ran
    /// since.
    pub fn slowdown(&mut self, since: Mark) -> f64 {
        if self.chunks == since.chunks {
            self.chunk();
        }
        let mean = (self.secs - since.secs) / (self.chunks - since.chunks) as f64;
        (mean / NOMINAL_CHUNK_SECS).max(1.0)
    }
}
