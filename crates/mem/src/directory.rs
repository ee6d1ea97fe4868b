//! Full-map distributed coherence directory.

use crate::addr::BlockAddr;
use spcp_sim::{CoreId, CoreSet, FlatMap};

/// The directory's view of one cache block.
///
/// * `owner` — the cache responsible for supplying data: the holder of the
///   line in Modified/Exclusive state, or the designated Forward-state
///   sharer of a clean line. `None` means memory must supply the data.
/// * `sharers` — every cache with a valid copy (including the owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntry {
    /// Supplier of data for the next request, if any cache can supply.
    pub owner: Option<CoreId>,
    /// All caches holding a valid copy.
    pub sharers: CoreSet,
}

impl DirEntry {
    /// Whether no cache holds the block.
    pub fn is_uncached(&self) -> bool {
        self.sharers.is_empty()
    }

    /// The cores a read by `requester` must communicate with: the owner if
    /// one exists (cache-to-cache transfer), otherwise nobody (memory).
    pub fn read_targets(&self, requester: CoreId) -> CoreSet {
        match self.owner {
            Some(o) if o != requester => CoreSet::single(o),
            _ => CoreSet::empty(),
        }
    }

    /// The cores a write/upgrade by `requester` must communicate with:
    /// every other valid copy must be invalidated, and the owner (if remote)
    /// must supply data.
    pub fn write_targets(&self, requester: CoreId) -> CoreSet {
        let mut t = self.sharers;
        t.remove(requester);
        t
    }
}

/// A full-map directory covering the whole physical address space.
///
/// In the modelled machine the directory is *distributed*: block `b` is
/// managed by tile `b % num_tiles` ([`BlockAddr::home`]). This structure
/// stores the union of all slices; the protocol engine consults
/// [`BlockAddr::home`] for message routing while using one logical map,
/// which is behaviourally identical and simpler to test.
///
/// The map is an open-addressing [`FlatMap`] keyed by the block index:
/// directory state is touched on every L2 miss and every eviction, so the
/// per-access cost must be a single multiplicative hash and a short probe,
/// with no steady-state heap traffic. Entries are removed when the last
/// sharer drops, so the live set — and therefore the table size — is
/// bounded by the machine's total cache capacity.
///
/// # Examples
///
/// ```
/// use spcp_mem::{BlockAddr, Directory};
/// use spcp_sim::CoreId;
///
/// let mut dir = Directory::new(16);
/// let b = BlockAddr::from_index(7);
/// dir.record_exclusive(b, CoreId::new(2));
/// assert_eq!(dir.entry(b).owner, Some(CoreId::new(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    num_tiles: usize,
    /// `num_tiles - 1` when the tile count is a power of two (every square
    /// mesh the paper uses): the home is then a mask instead of a `u64`
    /// modulo. `u64::MAX` marks any other count, which falls back to `%`.
    home_mask: u64,
    entries: FlatMap<DirEntry>,
}

impl Directory {
    /// Creates an empty directory for a machine with `num_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero.
    pub fn new(num_tiles: usize) -> Self {
        assert!(num_tiles > 0);
        Directory {
            num_tiles,
            home_mask: if num_tiles.is_power_of_two() {
                num_tiles as u64 - 1
            } else {
                u64::MAX
            },
            entries: FlatMap::new(),
        }
    }

    /// Number of tiles the directory is striped across.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// The home tile of a block: [`BlockAddr::home`] over this
    /// directory's tiles.
    #[inline]
    pub fn home_of(&self, block: BlockAddr) -> CoreId {
        if self.home_mask != u64::MAX {
            CoreId::new((block.index() & self.home_mask) as usize)
        } else {
            block.home(self.num_tiles)
        }
    }

    /// The directory's current view of `block` (all-invalid when never
    /// referenced).
    pub fn entry(&self, block: BlockAddr) -> DirEntry {
        self.entries.get(block.index()).copied().unwrap_or_default()
    }

    /// Records that `core` obtained the block exclusively (E or M): it
    /// becomes owner and sole sharer.
    pub fn record_exclusive(&mut self, block: BlockAddr, core: CoreId) {
        self.entries.insert(
            block.index(),
            DirEntry {
                owner: Some(core),
                sharers: CoreSet::single(core),
            },
        );
    }

    /// Records that `core` obtained a shared copy. Under MESIF the newest
    /// sharer becomes the Forward-state owner for clean lines, so ownership
    /// transfers to `core`.
    pub fn record_shared(&mut self, block: BlockAddr, core: CoreId) {
        let e = self
            .entries
            .get_or_insert_with(block.index(), DirEntry::default);
        e.sharers.insert(core);
        e.owner = Some(core);
    }

    /// Records that `core` obtained a shared copy under a protocol
    /// *without* clean forwarding (plain MESI): the line has no supplier —
    /// subsequent reads go to memory.
    pub fn record_shared_no_forward(&mut self, block: BlockAddr, core: CoreId) {
        let e = self
            .entries
            .get_or_insert_with(block.index(), DirEntry::default);
        e.sharers.insert(core);
        e.owner = None;
    }

    /// Records that `core` dropped its copy (eviction or invalidation).
    ///
    /// If `core` was the owner, ownership falls to the lowest-numbered
    /// remaining sharer (which then forwards clean data), or to memory when
    /// none remain.
    pub fn record_drop(&mut self, block: BlockAddr, core: CoreId) {
        if let Some(e) = self.entries.get_mut(block.index()) {
            e.sharers.remove(core);
            if e.owner == Some(core) {
                e.owner = e.sharers.iter().next();
            }
            if e.sharers.is_empty() {
                self.entries.remove(block.index());
            }
        }
    }

    /// Empties the directory for another run, keeping its table when the
    /// last run's entries would fill it again.
    ///
    /// The table is sized for a run like the last one: it keeps its
    /// allocation (cleared in place) when it is at most twice the size the
    /// entries still tracked need, and is replaced by a table of that size
    /// otherwise. The cost is proportional to the entries the last run
    /// left, not to the largest table this directory ever grew; a run that
    /// needs about as many entries as the last one does not grow the table,
    /// and a small run after a large one does not spread its entries over
    /// the large one's table.
    pub fn reset(&mut self) {
        self.entries.reset_for(self.entries.len());
    }

    /// Number of blocks with at least one cached copy.
    pub fn tracked_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over every tracked `(block, entry)` pair in unspecified
    /// order (used by coherence-invariant validation).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &DirEntry)> {
        self.entries
            .iter()
            .map(|(i, e)| (BlockAddr::from_index(i), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn core(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn unreferenced_block_is_uncached() {
        let dir = Directory::new(16);
        let e = dir.entry(blk(1));
        assert!(e.is_uncached());
        assert_eq!(e.owner, None);
    }

    #[test]
    fn exclusive_then_shared_transfers_forwarding() {
        let mut dir = Directory::new(16);
        dir.record_exclusive(blk(1), core(0));
        // Core 3 reads: it becomes a sharer and (MESIF) the new forwarder.
        dir.record_shared(blk(1), core(3));
        let e = dir.entry(blk(1));
        assert_eq!(e.owner, Some(core(3)));
        assert!(e.sharers.contains(core(0)));
        assert!(e.sharers.contains(core(3)));
    }

    #[test]
    fn read_targets_point_at_owner() {
        let mut dir = Directory::new(16);
        dir.record_exclusive(blk(2), core(5));
        let e = dir.entry(blk(2));
        assert_eq!(e.read_targets(core(0)), CoreSet::single(core(5)));
        // The owner itself reads from memory/no one.
        assert!(e.read_targets(core(5)).is_empty());
    }

    #[test]
    fn write_targets_are_all_other_sharers() {
        let mut dir = Directory::new(16);
        dir.record_exclusive(blk(2), core(1));
        dir.record_shared(blk(2), core(2));
        dir.record_shared(blk(2), core(3));
        let e = dir.entry(blk(2));
        let t = e.write_targets(core(2));
        assert!(t.contains(core(1)));
        assert!(!t.contains(core(2)));
        assert!(t.contains(core(3)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn drop_owner_falls_back_to_sharer() {
        let mut dir = Directory::new(16);
        dir.record_exclusive(blk(4), core(7));
        dir.record_shared(blk(4), core(2));
        // Owner is now core 2 (last reader). Drop it.
        dir.record_drop(blk(4), core(2));
        let e = dir.entry(blk(4));
        assert_eq!(e.owner, Some(core(7)));
        assert_eq!(e.sharers.len(), 1);
    }

    #[test]
    fn drop_last_sharer_untracks_block() {
        let mut dir = Directory::new(16);
        dir.record_exclusive(blk(4), core(7));
        dir.record_drop(blk(4), core(7));
        assert!(dir.entry(blk(4)).is_uncached());
        assert_eq!(dir.tracked_blocks(), 0);
    }

    #[test]
    fn drop_of_unknown_block_is_noop() {
        let mut dir = Directory::new(16);
        dir.record_drop(blk(9), core(0));
        assert_eq!(dir.tracked_blocks(), 0);
    }

    #[test]
    fn reset_forgets_every_block() {
        let mut dir = Directory::new(16);
        for i in 0..100 {
            dir.record_exclusive(blk(i), core(i as usize % 16));
        }
        dir.reset();
        assert_eq!(dir.tracked_blocks(), 0);
        assert!(dir.entry(blk(70)).is_uncached());
        dir.record_shared(blk(70), core(1));
        assert_eq!(dir.entry(blk(70)).owner, Some(core(1)));
    }

    #[test]
    fn home_matches_block_interleave() {
        let dir = Directory::new(16);
        assert_eq!(dir.home_of(blk(21)).index(), 5);
        assert_eq!(dir.num_tiles(), 16);
    }
}
