//! The simulator's ready queue: a fixed-capacity tournament tree over
//! threads.

use std::hint::select_unpredictable;

use crate::Cycle;

/// A min-priority queue of thread wake-ups, at most one pending per
/// thread, popping in `(time, push order)` order.
///
/// Every simulated thread is either waiting on exactly one wake-up or
/// blocked, so the queue is a tournament (winner) tree with one leaf per
/// thread: each leaf holds its thread's key — the wake-up cycle and a
/// global push counter — and each internal node the smallest key below
/// it and its id. Ties at the same cycle therefore pop in push order, the
/// same order a heap keyed by `(time, seq)` gives, so outcomes never
/// depend on the structure's internals.
///
/// A push re-plays one leaf-to-root path (`log2` of the thread count,
/// rounded up). The path's candidate stays in registers and each level
/// reads only the sibling node, whose address does not depend on the
/// previous level's outcome, so the levels' loads overlap; the winner is
/// picked by conditional moves, since which side wins is data-dependent
/// and a branch on it would mispredict about half the time. A pop empties
/// the winning leaf but re-plays it lazily, at the next operation: when
/// that is a push of the same thread — the common case, a thread
/// scheduling its own next op — one pass settles both. The tree is sized
/// at construction and never allocates again.
///
/// # Examples
///
/// ```
/// use spcp_sim::{Cycle, ReadyQueue};
///
/// let mut q = ReadyQueue::new(3);
/// q.push(Cycle::new(7), 0);
/// q.push(Cycle::new(7), 2);
/// q.push(Cycle::new(3), 1);
/// assert_eq!(q.pop(), Some((Cycle::new(3), 1)));
/// assert_eq!(q.pop(), Some((Cycle::new(7), 0)));
/// q.push(Cycle::new(5), 0);
/// assert_eq!(q.pop(), Some((Cycle::new(5), 0)));
/// assert_eq!(q.pop(), Some((Cycle::new(7), 2)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    /// Number of ids, `0..ids`.
    ids: usize,
    /// Leaf count: `ids` rounded up to a power of two.
    leaves: usize,
    /// Implicit binary tree, root at 1, leaf of id `i` at `leaves + i`.
    nodes: Vec<Node>,
    /// The leaf the last pop emptied, not yet re-played up the tree.
    unsettled: Option<usize>,
    next_seq: u64,
    len: usize,
}

/// One tree node: a leaf holds its id's key, or the idle key when the id
/// has no pending wake-up; an internal node the smallest key among its
/// leaves and the id it belongs to. Keys order by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
struct Node {
    time: u64,
    seq: u64,
    id: usize,
}

impl Node {
    /// Key of an id with no pending wake-up: orders after every real key
    /// (no push is ever numbered `u64::MAX`).
    const IDLE_SEQ: u64 = u64::MAX;

    fn idle(id: usize) -> Node {
        Node {
            time: u64::MAX,
            seq: Self::IDLE_SEQ,
            id,
        }
    }

    fn is_idle(&self) -> bool {
        self.seq == Self::IDLE_SEQ
    }

    /// Whether `self`'s key orders before `other`'s. Both halves are
    /// evaluated without short-circuiting so the result stays a flag:
    /// a single 128-bit compare of `(time << 64) | seq` measured slower,
    /// since the selects on its result compile to a branch.
    #[inline(always)]
    fn before(&self, other: &Node) -> bool {
        (self.time < other.time) | ((self.time == other.time) & (self.seq < other.seq))
    }
}

impl ReadyQueue {
    /// Creates an empty queue for ids `0..ids`.
    pub fn new(ids: usize) -> Self {
        let leaves = ids.next_power_of_two();
        let mut nodes: Vec<Node> = (0..2 * leaves).map(|_| Node::idle(0)).collect();
        for (id, node) in nodes[leaves..].iter_mut().enumerate() {
            node.id = id;
        }
        // All keys are idle, so the lowest id wins every internal node.
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i];
        }
        ReadyQueue {
            ids,
            leaves,
            nodes,
            unsettled: None,
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of pending wake-ups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no wake-up is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `id` to wake at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already has a pending wake-up.
    #[inline]
    pub fn push(&mut self, time: Cycle, id: usize) {
        assert!(
            id < self.ids && self.nodes[self.leaves + id].is_idle(),
            "id {id} is out of range or already pending"
        );
        if let Some(popped) = self.unsettled.take() {
            if popped != id {
                self.settle(popped);
            }
        }
        let leaf = &mut self.nodes[self.leaves + id];
        leaf.time = time.as_u64();
        leaf.seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.settle(id);
    }

    /// Removes and returns the earliest wake-up, or `None` when empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, usize)> {
        if let Some(popped) = self.unsettled.take() {
            self.settle(popped);
        }
        let root = self.nodes[1];
        if root.is_idle() {
            return None;
        }
        self.nodes[self.leaves + root.id] = Node::idle(root.id);
        self.unsettled = Some(root.id);
        self.len -= 1;
        Some((Cycle::new(root.time), root.id))
    }

    /// Re-plays the matches on the path from leaf `id` to the root: the
    /// sibling subtrees are unchanged, so each level plays the path's
    /// candidate against the sibling's winner.
    #[inline]
    fn settle(&mut self, id: usize) {
        let mut i = self.leaves + id;
        let mut best = self.nodes[i];
        while i > 1 {
            let other = self.nodes[i ^ 1];
            let take = other.before(&best);
            best = Node {
                time: select_unpredictable(take, other.time, best.time),
                seq: select_unpredictable(take, other.seq, best.seq),
                id: select_unpredictable(take, other.id, best.id),
            };
            i >>= 1;
            self.nodes[i] = best;
        }
    }
}

// Ordering, ties and interleavings are checked against a binary-heap
// model in `tests/properties.rs`; these pin the edge cases it skips.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_empty_capacity() {
        let mut q = ReadyQueue::new(1);
        q.push(Cycle::new(9), 0);
        assert_eq!(q.pop(), Some((Cycle::new(9), 0)));
        assert_eq!(q.pop(), None);
        assert_eq!(ReadyQueue::new(0).pop(), None);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn second_pending_entry_is_rejected() {
        let mut q = ReadyQueue::new(2);
        q.push(Cycle::new(1), 1);
        q.push(Cycle::new(2), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn padding_leaf_is_not_an_id() {
        let mut q = ReadyQueue::new(3);
        q.push(Cycle::new(1), 3);
    }
}
