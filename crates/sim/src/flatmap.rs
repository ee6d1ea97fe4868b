//! An open-addressing hash table for `u64`-keyed hot-path state.
//!
//! [`FlatMap`] is the allocation-free workhorse behind the coherence
//! directory: one flat slot array, linear probing, and *backward-shift
//! deletion* instead of tombstones. The no-tombstone design matters for a
//! simulator whose maps churn constantly (every cache eviction removes a
//! directory entry): the table never accumulates deleted markers, so it
//! never rehashes to clean them out, and once it has grown to the working
//! set's high-water mark it performs **zero further heap allocations** —
//! the property pinned by the `alloc_free` integration test.
//!
//! Slot selection uses [`mix_u64`]'s high bits, so sequential keys (block
//! indices) scatter uniformly instead of clustering into probe chains.
//!
//! # Examples
//!
//! ```
//! use spcp_sim::FlatMap;
//!
//! let mut m: FlatMap<&str> = FlatMap::new();
//! m.insert(7, "seven");
//! assert_eq!(m.get(7), Some(&"seven"));
//! assert_eq!(m.remove(7), Some("seven"));
//! assert!(m.is_empty());
//! ```

use crate::hash::mix_u64;

/// Smallest capacity the table allocates (power of two).
const MIN_CAPACITY: usize = 16;

/// An open-addressing map from `u64` keys to `V`, tuned for the
/// simulator's hot paths.
///
/// Invariants:
///
/// * capacity is always a power of two (or zero before first insert);
/// * occupancy stays at or below 7/8 of capacity, so probe chains stay
///   short;
/// * deletion backward-shifts the following probe chain, leaving no
///   tombstones and therefore never triggering a cleanup rehash.
#[derive(Debug, Clone, Default)]
pub struct FlatMap<V> {
    /// `None` = empty slot; `Some((key, value))` = occupied.
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> FlatMap<V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        FlatMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates a map pre-sized to hold `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = FlatMap::new();
        if n > 0 {
            m.allocate(Self::capacity_for(n));
        }
        m
    }

    /// Smallest valid capacity that holds `n` entries under the 7/8 load
    /// cap.
    fn capacity_for(n: usize) -> usize {
        let needed = n + n.div_ceil(7); // inverse of cap * 7/8 >= n
        needed.next_power_of_two().max(MIN_CAPACITY)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (0 before the first insert).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Removes every entry and leaves a table that holds `n` entries
    /// without growing: the current allocation, cleared in place, unless it
    /// is more than twice the size `n` needs, in which case a table of
    /// that size replaces it.
    ///
    /// The cost is proportional to `n`, whatever the current capacity, and
    /// a table reused for a workload like the last one (`n` = the last
    /// workload's size) neither grows nor stays much larger than it needs,
    /// which would scatter a small workload's entries over more memory.
    pub fn reset_for(&mut self, n: usize) {
        if self.slots.len() > 2 * Self::capacity_for(n) {
            *self = FlatMap::with_capacity(n);
        } else {
            self.clear();
        }
    }

    /// Preferred slot of `key` for the current capacity.
    #[inline]
    fn home(&self, key: u64) -> usize {
        // Power-of-two capacity: take log2(cap) *high* bits of the mix.
        // slots.len() is never 0 or 1 when this is called.
        let shift = 64 - self.slots.len().trailing_zeros();
        (mix_u64(key) >> shift) as usize
    }

    /// Finds the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| {
            &self.slots[i]
                .as_ref()
                .expect("find returns occupied slots")
                .1
        })
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| {
            &mut self.slots[i]
                .as_mut()
                .expect("find returns occupied slots")
                .1
        })
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.reserve_one();
        // The load cap keeps probe chains short *and* guarantees the probe
        // loops below always hit an empty slot and terminate.
        debug_assert!(
            (self.len + 1) * 8 <= self.slots.len() * 7,
            "occupancy {}+1 exceeds the 7/8 bound of capacity {}",
            self.len,
            self.slots.len()
        );
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if absent — the equivalent of
    /// `HashMap::entry(..).or_insert_with(..)`.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            // Split the match so the borrow of `self.slots[i]` ends
            // before we hand out the long-lived reference.
            match &self.slots[i] {
                None => {
                    self.slots[i] = Some((key, default()));
                    self.len += 1;
                    return &mut self.slots[i].as_mut().expect("slot just filled").1;
                }
                Some((k, _)) if *k == key => {
                    return &mut self.slots[i].as_mut().expect("match guard saw Some").1;
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`, returning its value if present.
    ///
    /// Uses backward-shift deletion: every displaced entry in the probe
    /// chain after the hole is moved back toward its preferred slot, so
    /// the table never holds tombstones.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let (_, value) = self.slots[hole]
            .take()
            .expect("find returns occupied slots");
        self.len -= 1;

        let mask = self.slots.len() - 1;
        let mut j = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            // The entry at `j` may fill the hole only if its preferred
            // slot is *not* inside the cyclic interval (hole, j] — i.e.
            // moving it to `hole` keeps it reachable from its home.
            let home = self.home(*k);
            if (j.wrapping_sub(home)) & mask >= (j.wrapping_sub(hole)) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        // Backward-shift postcondition: the chain ends on an empty final
        // hole and the removed key is unreachable — a botched shift would
        // instead strand an entry behind a `None` and make it invisible.
        debug_assert!(self.slots[hole].is_none());
        debug_assert!(
            self.find(key).is_none(),
            "removed key {key} still reachable after backward shift"
        );
        Some(value)
    }

    /// Iterates over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Allocates a fresh slot array of exactly `cap` (power of two).
    fn allocate(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAPACITY);
        self.slots = (0..cap).map(|_| None).collect();
    }

    /// Grows the table if inserting one more entry would exceed the 7/8
    /// load cap.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if (self.len + 1) * 8 > cap * 7 {
            let new_cap = (cap * 2).max(MIN_CAPACITY);
            let old = std::mem::take(&mut self.slots);
            self.allocate(new_cap);
            self.len = 0;
            for (k, v) in old.into_iter().flatten() {
                self.insert_fresh(k, v);
            }
        }
    }

    /// Insert during rehash: key is known absent and capacity suffices.
    fn insert_fresh(&mut self, key: u64, value: V) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some((key, value));
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;
    use std::collections::HashMap;

    #[test]
    fn empty_map_behaves() {
        let m: FlatMap<u32> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.capacity(), 0);
        assert_eq!(m.get(5), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FlatMap::new();
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&"a2"));
        assert_eq!(m.remove(1), Some("a2"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_or_insert_with_matches_entry_semantics() {
        let mut m: FlatMap<Vec<u32>> = FlatMap::new();
        m.get_or_insert_with(9, Vec::new).push(1);
        m.get_or_insert_with(9, Vec::new).push(2);
        assert_eq!(m.get(9), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn key_zero_and_max_work() {
        let mut m = FlatMap::new();
        m.insert(0, 10);
        m.insert(u64::MAX, 20);
        assert_eq!(m.get(0), Some(&10));
        assert_eq!(m.get(u64::MAX), Some(&20));
        assert_eq!(m.remove(0), Some(10));
        assert_eq!(m.get(u64::MAX), Some(&20));
    }

    #[test]
    fn grows_past_load_factor_and_keeps_entries() {
        let mut m = FlatMap::new();
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(&(k * 3)), "key {k}");
        }
        // Load factor never exceeds 7/8.
        assert!(m.len() * 8 <= m.capacity() * 7);
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut m = FlatMap::with_capacity(100);
        let cap = m.capacity();
        assert!(cap >= 100);
        for k in 0..100u64 {
            m.insert(k, ());
        }
        assert_eq!(m.capacity(), cap, "pre-sized table must not grow");
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = FlatMap::new();
        for k in 0..50u64 {
            m.insert(k, k);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(7), None);
        m.insert(7, 7);
        assert_eq!(m.get(7), Some(&7));
    }

    #[test]
    fn reset_for_keeps_a_fitting_table_and_shrinks_an_oversized_one() {
        let mut m = FlatMap::new();
        for k in 0..1000u64 {
            m.insert(k, k);
        }
        let cap = m.capacity();
        m.reset_for(600);
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap, "a table within 2x of the need is kept");
        m.reset_for(10);
        assert_eq!(m.capacity(), FlatMap::<u64>::with_capacity(10).capacity());
        assert_eq!(m.get(7), None);
        for k in 0..10u64 {
            m.insert(k, k);
        }
        assert_eq!(m.capacity(), FlatMap::<u64>::with_capacity(10).capacity());
        assert_eq!(m.get(7), Some(&7));
    }

    #[test]
    fn iter_yields_each_entry_once() {
        let mut m = FlatMap::new();
        for k in [3u64, 1 << 40, 77, 0] {
            m.insert(k, k as u32);
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 3, 77, 1 << 40]);
    }

    /// Backward-shift deletion must keep every remaining key reachable,
    /// including under adversarial collision chains. Randomized
    /// model-check against `std::HashMap`.
    #[test]
    fn randomized_equivalence_with_std_hashmap() {
        let mut rng = DetRng::seeded(0xF1A7);
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Small key universe forces heavy insert/remove churn on the
        // same probe chains.
        for step in 0..20_000u64 {
            let key = rng.range(0, 256);
            match rng.index(4) {
                0 | 1 => {
                    assert_eq!(
                        flat.insert(key, step),
                        model.insert(key, step),
                        "insert({key}) at step {step}"
                    );
                }
                2 => {
                    assert_eq!(
                        flat.remove(key),
                        model.remove(&key),
                        "remove({key}) at step {step}"
                    );
                }
                _ => {
                    assert_eq!(flat.get(key), model.get(&key), "get({key}) at step {step}");
                }
            }
            assert_eq!(flat.len(), model.len());
        }
        // Final sweep: identical contents.
        let mut a: Vec<(u64, u64)> = flat.iter().map(|(k, v)| (k, *v)).collect();
        let mut b: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    /// Once the live count's high-water mark is reached, further churn
    /// (insert/remove cycles) must not grow the table — the property the
    /// directory relies on for allocation-free steady state.
    #[test]
    fn churn_at_constant_occupancy_never_grows() {
        let mut m: FlatMap<u32> = FlatMap::new();
        for k in 0..500u64 {
            m.insert(k, 0);
        }
        let cap = m.capacity();
        let mut rng = DetRng::seeded(99);
        for step in 0..50_000u64 {
            // Remove one random present key, insert one random new key:
            // occupancy is constant.
            let victim = loop {
                let k = rng.range(0, 1 << 20);
                if m.contains_key(k) {
                    break k;
                }
            };
            m.remove(victim);
            let fresh = loop {
                let k = rng.range(0, 1 << 20);
                if !m.contains_key(k) {
                    break k;
                }
            };
            m.insert(fresh, step as u32);
            assert_eq!(m.capacity(), cap, "table grew at step {step}");
            assert_eq!(m.len(), 500);
        }
    }
}
