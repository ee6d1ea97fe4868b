//! Generic set-associative cache with true-LRU replacement.
//!
//! The store is structure-of-arrays: per set, a packed lane of tags plus a
//! validity bitmask is scanned before any payload is touched, so the
//! per-access tag match walks contiguous `u64`s — the same discipline a
//! hardware tag array imposes — instead of striding over interleaved
//! `(tag, payload, stamp)` records.

use crate::addr::{BlockAddr, BLOCK_BYTES};

/// Geometry and timing of one cache level.
///
/// # Examples
///
/// ```
/// use spcp_mem::CacheConfig;
///
/// let l2 = CacheConfig::l2_1mb();
/// assert_eq!(l2.num_sets(), 2048);
/// assert_eq!(l2.assoc, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: usize,
    /// Line size in bytes (fixed at 64 in this study).
    pub block_bytes: u64,
    /// Tag array access latency in cycles.
    pub tag_cycles: u64,
    /// Data array access latency in cycles.
    pub data_cycles: u64,
}

impl CacheConfig {
    /// The paper's private L2: 1 MB, 8-way, 64 B lines, 2-cycle tag,
    /// 6-cycle data (Table 4).
    pub fn l2_1mb() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            assoc: 8,
            block_bytes: BLOCK_BYTES,
            tag_cycles: 2,
            data_cycles: 6,
        }
    }

    /// The paper's L1: 16 KB, direct-mapped, 64 B lines, 2-cycle
    /// load-to-use (Table 4).
    pub fn l1_16kb() -> Self {
        CacheConfig {
            size_bytes: 16 << 10,
            assoc: 1,
            block_bytes: BLOCK_BYTES,
            tag_cycles: 1,
            data_cycles: 1,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or sets are zero.
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.block_bytes;
        let sets = lines / self.assoc as u64;
        assert!(
            sets > 0 && sets * self.assoc as u64 * self.block_bytes == self.size_bytes,
            "invalid cache geometry: {self:?}"
        );
        sets as usize
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize
    }
}

/// A set-associative cache mapping [`BlockAddr`] to a caller-chosen payload
/// with true-LRU replacement.
///
/// The same structure backs the L1/L2 models (payload = MESIF state) and the
/// finite-capacity predictor tables of the comparison study (payload =
/// predictor entry).
///
/// # Layout
///
/// Ways are stored structure-of-arrays. Set `s` owns way slots
/// `s * assoc .. (s + 1) * assoc` of three parallel arrays — `tags`
/// (packed block indices), `stamps` (LRU clocks) and `payloads` — plus one
/// validity bitmask word in `valid` (bit `w` set ⇔ way `w` resident). A
/// lookup scans only the valid lanes of the contiguous tag array; payloads
/// are touched exactly once, on the matching way. LRU refreshes are
/// in-place stamp stores. The global stamp clock ticks on every demand
/// access and insert, so resident stamps are pairwise distinct and LRU
/// victim choice is order-independent. A one-bit-per-set `filled` summary
/// records which sets were filled since the last [`reset`](Self::reset),
/// so resetting a large cache after a short run visits only those sets.
///
/// # Examples
///
/// ```
/// use spcp_mem::{BlockAddr, CacheConfig, SetAssocCache};
///
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheConfig::l1_16kb());
/// c.insert(BlockAddr::from_index(1), 42);
/// assert_eq!(c.lookup(BlockAddr::from_index(1)), Some(&mut 42));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    cfg: CacheConfig,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two (every standard
    /// geometry): set selection is then a mask instead of a `u64` modulo.
    /// `u64::MAX` marks a non-power-of-two count, which falls back to `%`.
    set_mask: u64,
    /// One validity bitmask per set; bit `w` covers way slot
    /// `set * assoc + w`. Caps associativity at 64 ways.
    valid: Vec<u64>,
    /// One bit per set (bit `s % 64` of word `s / 64`), set when a line
    /// is filled into a free way of set `s` and cleared only by `reset`:
    /// a superset of the non-empty sets, so `reset` visits only the sets
    /// filled since the last reset instead of every mask.
    filled: Vec<u64>,
    /// Packed per-set tag lanes (block indices), `num_sets * assoc` long.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    /// Payloads parallel to `tags`; `None` in invalid slots so evicted
    /// payloads drop promptly.
    payloads: Vec<Option<T>>,
    /// Resident-line count (kept incrementally: `len` is O(1)).
    lines: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry or associativity above 64 (the validity
    /// bitmask is one `u64` per set).
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        assert!(
            cfg.assoc <= 64,
            "associativity {} exceeds the 64-way bitmask lane",
            cfg.assoc
        );
        let slots = num_sets * cfg.assoc;
        // Full capacity up front: the arrays never grow, so the demand
        // insert/evict path stays allocation-free for the whole run.
        SetAssocCache {
            cfg,
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets as u64 - 1
            } else {
                u64::MAX
            },
            valid: vec![0; num_sets],
            filled: vec![0; num_sets.div_ceil(64)],
            tags: vec![0; slots],
            stamps: vec![0; slots],
            payloads: (0..slots).map(|_| None).collect(),
            lines: 0,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        if self.set_mask != u64::MAX {
            (block.index() & self.set_mask) as usize
        } else {
            (block.index() % self.num_sets as u64) as usize
        }
    }

    /// The set a block maps to (exposed for audits and property tests).
    pub fn set_of(&self, block: BlockAddr) -> usize {
        self.set_index(block)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Scans set `set`'s packed tag lane for `tag`, returning the matching
    /// way slot index into the parallel arrays. Touches no payload.
    #[inline]
    fn find_slot(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.cfg.assoc;
        let mask = self.valid[set];
        if mask == 0 {
            return None;
        }
        // Linear scan over the packed tag lane: each compare is independent
        // (no loop-carried dependency like a `trailing_zeros` bit walk), so
        // the comparisons pipeline. The valid test guards stale tags left
        // behind by `invalidate`.
        let tags = &self.tags[base..base + self.cfg.assoc];
        for (way, &t) in tags.iter().enumerate() {
            if t == tag && mask & (1 << way) != 0 {
                return Some(base + way);
            }
        }
        None
    }

    /// Looks up a block, refreshing its LRU position on a hit.
    pub fn lookup(&mut self, block: BlockAddr) -> Option<&mut T> {
        self.clock += 1;
        let set = self.set_index(block);
        match self.find_slot(set, block.index()) {
            Some(slot) => {
                self.hits += 1;
                self.stamps[slot] = self.clock;
                self.payloads[slot].as_mut()
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a block without touching LRU state or hit/miss counters
    /// (a coherence *probe*, as opposed to a demand access).
    pub fn probe(&self, block: BlockAddr) -> Option<&T> {
        let set = self.set_index(block);
        self.find_slot(set, block.index())
            .and_then(|slot| self.payloads[slot].as_ref())
    }

    /// Mutable probe without LRU/counter side effects.
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut T> {
        let set = self.set_index(block);
        self.find_slot(set, block.index())
            .and_then(|slot| self.payloads[slot].as_mut())
    }

    /// Inserts a block, returning the victim `(block, payload)` if a line
    /// had to be evicted.
    ///
    /// Inserting a block that is already present replaces its payload and
    /// returns the old payload as a pseudo-victim of the same block.
    pub fn insert(&mut self, block: BlockAddr, payload: T) -> Option<(BlockAddr, T)> {
        self.clock += 1;
        let clock = self.clock;
        let tag = block.index();
        let set = self.set_index(block);
        let base = set * self.cfg.assoc;

        if let Some(slot) = self.find_slot(set, tag) {
            self.stamps[slot] = clock;
            let old = self.payloads[slot].replace(payload).expect("valid slot");
            return Some((block, old));
        }

        let mask = self.valid[set];
        let full_mask = if self.cfg.assoc == 64 {
            u64::MAX
        } else {
            (1u64 << self.cfg.assoc) - 1
        };
        let full = mask == full_mask;
        if !full {
            // First free way of the lane.
            let way = (!mask).trailing_zeros() as usize;
            let slot = base + way;
            self.valid[set] |= 1 << way;
            self.filled[set / 64] |= 1 << (set % 64);
            self.tags[slot] = tag;
            self.stamps[slot] = clock;
            self.payloads[slot] = Some(payload);
            self.lines += 1;
            return None;
        }

        // Evict the least recently used way. Stamps are globally unique
        // (the clock ticks on every stamping operation), so the minimum is
        // unique and slot order cannot influence the choice.
        let mut victim = base;
        for slot in base + 1..base + self.cfg.assoc {
            if self.stamps[slot] < self.stamps[victim] {
                victim = slot;
            }
        }
        let victim_tag = BlockAddr::from_index(self.tags[victim]);
        let old = self.payloads[victim].replace(payload).expect("full set");
        self.tags[victim] = tag;
        self.stamps[victim] = clock;
        Some((victim_tag, old))
    }

    /// Removes a block, returning its payload if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<T> {
        let set = self.set_index(block);
        let slot = self.find_slot(set, block.index())?;
        self.valid[set] &= !(1 << (slot - set * self.cfg.assoc));
        self.lines -= 1;
        self.payloads[slot].take()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.lines == 0
    }

    /// Demand-access hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand-access misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Iterates over all resident `(block, payload)` pairs in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> {
        self.valid.iter().enumerate().flat_map(move |(set, &mask)| {
            let base = set * self.cfg.assoc;
            let mut m = mask;
            std::iter::from_fn(move || {
                if m == 0 {
                    return None;
                }
                let way = m.trailing_zeros() as usize;
                m &= m - 1;
                let slot = base + way;
                Some((
                    BlockAddr::from_index(self.tags[slot]),
                    self.payloads[slot].as_ref().expect("valid slot"),
                ))
            })
        })
    }

    /// Resident `(block, lru_stamp)` pairs of one set, in way-slot order.
    ///
    /// Introspection hook for the invariant audits and the differential
    /// test harness; not part of the timing model.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set_ways(&self, set: usize) -> impl Iterator<Item = (BlockAddr, u64)> + '_ {
        assert!(set < self.num_sets, "set {set} of {}", self.num_sets);
        let base = set * self.cfg.assoc;
        let mut mask = self.valid[set];
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let slot = base + way;
            Some((BlockAddr::from_index(self.tags[slot]), self.stamps[slot]))
        })
    }

    /// Returns the cache to its freshly built state: no resident lines,
    /// and the LRU clock and hit/miss counters at zero.
    ///
    /// The cost is proportional to the sets filled since the last reset:
    /// only their validity masks and resident payload slots are cleared.
    /// Tag and stamp lanes keep whatever the invalid ways held, exactly as
    /// after [`invalidate`](Self::invalidate): every read of a tag is
    /// guarded by its valid bit, and a stamp is read only for victim choice
    /// in a full set, whose ways were all stamped since they were filled.
    /// So a reset cache behaves exactly like a new one of the same
    /// geometry.
    pub fn reset(&mut self) {
        for word in 0..self.filled.len() {
            let mut bits = std::mem::take(&mut self.filled[word]);
            while bits != 0 {
                let set = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let base = set * self.cfg.assoc;
                let mut mask = std::mem::take(&mut self.valid[set]);
                while mask != 0 {
                    self.payloads[base + mask.trailing_zeros() as usize] = None;
                    mask &= mask - 1;
                }
            }
        }
        self.lines = 0;
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// Checks the SoA bookkeeping: the validity bitmasks agree with the
    /// payload slots and the resident-line counter, no mask bit exceeds
    /// the associativity, and resident tags are unique within their set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn audit(&self) -> Result<(), String> {
        let assoc = self.cfg.assoc;
        let mut lines = 0usize;
        for set in 0..self.num_sets {
            let mask = self.valid[set];
            if assoc < 64 && mask >> assoc != 0 {
                return Err(format!(
                    "set {set}: valid mask {mask:#x} beyond {assoc} ways"
                ));
            }
            lines += mask.count_ones() as usize;
            if mask != 0 && self.filled[set / 64] & (1 << (set % 64)) == 0 {
                return Err(format!("set {set}: resident lines but no filled bit"));
            }
            for way in 0..assoc {
                let slot = set * assoc + way;
                let bit = mask & (1 << way) != 0;
                if bit != self.payloads[slot].is_some() {
                    return Err(format!(
                        "set {set} way {way}: valid bit {bit} but payload present = {}",
                        self.payloads[slot].is_some()
                    ));
                }
                if bit && self.set_index(BlockAddr::from_index(self.tags[slot])) != set {
                    return Err(format!(
                        "set {set} way {way}: tag {} maps elsewhere",
                        self.tags[slot]
                    ));
                }
            }
            for (i, (a, _)) in self.set_ways(set).enumerate() {
                for (b, _) in self.set_ways(set).skip(i + 1) {
                    if a == b {
                        return Err(format!("set {set}: duplicate resident tag {a:?}"));
                    }
                }
            }
        }
        if lines != self.lines {
            return Err(format!(
                "resident counter {} disagrees with masks ({lines})",
                self.lines
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: usize, sets: usize) -> SetAssocCache<u64> {
        SetAssocCache::new(CacheConfig {
            size_bytes: (assoc * sets) as u64 * BLOCK_BYTES,
            assoc,
            block_bytes: BLOCK_BYTES,
            tag_cycles: 1,
            data_cycles: 1,
        })
    }

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn geometry_of_paper_caches() {
        assert_eq!(CacheConfig::l2_1mb().num_sets(), 2048);
        assert_eq!(CacheConfig::l2_1mb().num_lines(), 16384);
        assert_eq!(CacheConfig::l1_16kb().num_sets(), 256);
        assert_eq!(CacheConfig::l1_16kb().assoc, 1);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2, 2);
        assert!(c.lookup(blk(0)).is_none());
        c.insert(blk(0), 7);
        assert_eq!(c.lookup(blk(0)), Some(&mut 7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 1);
        c.insert(blk(0), 0);
        c.insert(blk(1), 1);
        // Touch block 0 so block 1 becomes LRU.
        c.lookup(blk(0));
        let victim = c.insert(blk(2), 2).expect("set full, must evict");
        assert_eq!(victim, (blk(1), 1));
        assert!(c.probe(blk(0)).is_some());
        assert!(c.probe(blk(1)).is_none());
        assert!(c.probe(blk(2)).is_some());
    }

    #[test]
    fn probe_does_not_refresh_lru() {
        let mut c = tiny(2, 1);
        c.insert(blk(0), 0);
        c.insert(blk(1), 1);
        // Probe (not lookup) block 0: it must remain LRU.
        assert_eq!(c.probe(blk(0)), Some(&0));
        let victim = c.insert(blk(2), 2).unwrap();
        assert_eq!(victim.0, blk(0));
    }

    #[test]
    fn reinsert_replaces_payload() {
        let mut c = tiny(2, 1);
        c.insert(blk(0), 1);
        let old = c.insert(blk(0), 2);
        assert_eq!(old, Some((blk(0), 1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.probe(blk(0)), Some(&2));
    }

    #[test]
    fn blocks_map_to_distinct_sets() {
        let mut c = tiny(1, 4);
        // Blocks 0..4 land in different sets of a 4-set cache: no evictions.
        for i in 0..4 {
            assert!(c.insert(blk(i), i).is_none());
        }
        assert_eq!(c.len(), 4);
        // Block 4 conflicts with block 0 (direct-mapped).
        let victim = c.insert(blk(4), 4).unwrap();
        assert_eq!(victim.0, blk(0));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2, 2);
        c.insert(blk(3), 33);
        assert_eq!(c.invalidate(blk(3)), Some(33));
        assert_eq!(c.invalidate(blk(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn probe_mut_allows_state_updates() {
        let mut c = tiny(2, 2);
        c.insert(blk(1), 5);
        *c.probe_mut(blk(1)).unwrap() = 9;
        assert_eq!(c.probe(blk(1)), Some(&9));
        // Neither insert nor probe_mut counts as a demand access.
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut c = tiny(2, 2);
        c.insert(blk(0), 0);
        c.insert(blk(1), 1);
        c.insert(blk(2), 2);
        let mut blocks: Vec<u64> = c.iter().map(|(b, _)| b.index()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2]);
    }

    #[test]
    fn reset_empties_and_zeroes_counters() {
        let mut c = tiny(2, 2);
        c.insert(blk(0), 0);
        c.lookup(blk(0));
        c.lookup(blk(1));
        c.reset();
        assert!(c.is_empty());
        assert!(c.probe(blk(0)).is_none());
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert!(c.audit().is_ok());
    }

    #[test]
    fn reuse_of_invalidated_way_keeps_lane_consistent() {
        let mut c = tiny(4, 1);
        for i in 0..4 {
            c.insert(blk(i), i);
        }
        // Free way 1 (block 1), then insert: the freed lane is reused.
        c.invalidate(blk(1));
        assert!(c.insert(blk(9), 9).is_none(), "freed way absorbs insert");
        assert_eq!(c.len(), 4);
        assert!(c.audit().is_ok());
        // Next insert must evict the oldest remaining stamp: block 0.
        let victim = c.insert(blk(13), 13).unwrap();
        assert_eq!(victim, (blk(0), 0));
        assert!(c.audit().is_ok());
    }

    #[test]
    fn set_ways_reports_resident_stamps() {
        let mut c = tiny(2, 1);
        c.insert(blk(0), 0);
        c.insert(blk(1), 1);
        c.lookup(blk(0));
        let ways: Vec<(BlockAddr, u64)> = c.set_ways(0).collect();
        assert_eq!(ways.len(), 2);
        let s0 = ways.iter().find(|(b, _)| *b == blk(0)).unwrap().1;
        let s1 = ways.iter().find(|(b, _)| *b == blk(1)).unwrap().1;
        assert!(s0 > s1, "refreshed way carries the newer stamp");
    }

    #[test]
    fn full_width_64_way_set_works() {
        let mut c = tiny(64, 1);
        for i in 0..64 {
            assert!(c.insert(blk(i), i).is_none());
        }
        assert_eq!(c.len(), 64);
        let victim = c.insert(blk(64), 64).unwrap();
        assert_eq!(victim.0, blk(0));
        assert!(c.audit().is_ok());
    }

    #[test]
    fn audit_accepts_random_churn() {
        let mut c = tiny(4, 4);
        // A deterministic little churn loop: insert/lookup/invalidate.
        for i in 0..200u64 {
            let b = blk(i * 7 % 32);
            match i % 3 {
                0 => {
                    c.insert(b, i);
                }
                1 => {
                    c.lookup(b);
                }
                _ => {
                    c.invalidate(b);
                }
            }
            c.audit().expect("bookkeeping stays consistent");
        }
    }

    #[test]
    #[should_panic(expected = "invalid cache geometry")]
    fn bad_geometry_rejected() {
        let _ = CacheConfig {
            size_bytes: 100, // not divisible by 64
            assoc: 1,
            block_bytes: BLOCK_BYTES,
            tag_cycles: 1,
            data_cycles: 1,
        }
        .num_sets();
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-way bitmask lane")]
    fn over_wide_associativity_rejected() {
        let _ = tiny(128, 1);
    }
}
