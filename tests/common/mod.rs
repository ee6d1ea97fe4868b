//! Shared reference models for the differential suites.
//!
//! `RefCache` is a verbatim port of the pre-SoA `SetAssocCache`
//! (array-of-structures: interleaved `(tag, payload, stamp)` records per
//! set, push-order fill, `swap_remove` on invalidate, min-stamp
//! eviction). `tests/soa_equivalence.rs` runs it in lockstep against the
//! real cache; `tests/properties.rs` checks the LRU invariants against
//! both implementations independently.
//!
//! `trace_ref` holds verbatim ports of the pre-rewrite trace codec and
//! race analyzer, the reference `tests/trace_equivalence.rs` runs against.

// Each integration test binary compiles its own copy of this module and
// uses a subset of it.
#![allow(dead_code)]

pub mod trace_ref;

use spcp::mem::{BlockAddr, CacheConfig};

struct Way<T> {
    tag: BlockAddr,
    payload: T,
    stamp: u64,
}

/// The pre-SoA cache semantics, ported verbatim.
pub struct RefCache<T> {
    cfg: CacheConfig,
    sets: Vec<Vec<Way<T>>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<T> RefCache<T> {
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        RefCache {
            cfg,
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn set_index(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets.len() as u64) as usize
    }

    pub fn lookup(&mut self, block: BlockAddr) -> Option<&mut T> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(block);
        match self.sets[idx].iter_mut().find(|w| w.tag == block) {
            Some(w) => {
                self.hits += 1;
                w.stamp = clock;
                Some(&mut w.payload)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub fn probe(&self, block: BlockAddr) -> Option<&T> {
        let idx = self.set_index(block);
        self.sets[idx]
            .iter()
            .find(|w| w.tag == block)
            .map(|w| &w.payload)
    }

    pub fn insert(&mut self, block: BlockAddr, payload: T) -> Option<(BlockAddr, T)> {
        self.clock += 1;
        let clock = self.clock;
        let assoc = self.cfg.assoc;
        let idx = self.set_index(block);
        let set = &mut self.sets[idx];

        if let Some(w) = set.iter_mut().find(|w| w.tag == block) {
            w.stamp = clock;
            let old = std::mem::replace(&mut w.payload, payload);
            return Some((block, old));
        }
        if set.len() < assoc {
            set.push(Way {
                tag: block,
                payload,
                stamp: clock,
            });
            return None;
        }
        let (victim_idx, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.stamp)
            .expect("non-empty set");
        let victim = std::mem::replace(
            &mut set[victim_idx],
            Way {
                tag: block,
                payload,
                stamp: clock,
            },
        );
        Some((victim.tag, victim.payload))
    }

    pub fn invalidate(&mut self, block: BlockAddr) -> Option<T> {
        let idx = self.set_index(block);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|w| w.tag == block)?;
        Some(set.swap_remove(pos).payload)
    }

    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Resident `(block index, lru stamp)` pairs of one set, in storage
    /// order — the reference counterpart of `SetAssocCache::set_ways`.
    pub fn set_ways(&self, set: usize) -> Vec<(u64, u64)> {
        self.sets[set]
            .iter()
            .map(|w| (w.tag.index(), w.stamp))
            .collect()
    }

    /// All resident `(block index, lru stamp)` pairs, sorted.
    pub fn resident(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.tag.index(), w.stamp)))
            .collect();
        v.sort_unstable();
        v
    }
}
