//! 2D mesh topology and deterministic X-Y routing.

use spcp_sim::CoreId;
use std::fmt;

/// A position in the mesh grid.
///
/// # Examples
///
/// ```
/// use spcp_noc::{Coord, Mesh};
///
/// let mesh = Mesh::new(4, 4);
/// let c = mesh.coord_of(spcp_sim::CoreId::new(5));
/// assert_eq!(c, Coord { x: 1, y: 1 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column index, `0..width`.
    pub x: usize,
    /// Row index, `0..height`.
    pub y: usize,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A directed link between two adjacent routers, identified by the source
/// router's node index and the direction of travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Node index of the router the flit departs from.
    pub from: usize,
    /// Direction of travel.
    pub dir: Direction,
}

/// One of the four mesh directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger `x`.
    East,
    /// Toward smaller `x`.
    West,
    /// Toward larger `y`.
    North,
    /// Toward smaller `y`.
    South,
}

impl Direction {
    /// Index in `[0, 4)` used for dense per-link tables.
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        }
    }
}

/// A `width × height` 2D mesh with row-major node numbering.
///
/// Node `i` sits at `(i % width, i / width)`, matching the tiled-CMP layout
/// of the paper's Table 4 (a 4×4 mesh of 16 tiles). Routing is deterministic
/// X-Y: first travel along the row to the destination column, then along the
/// column.
///
/// Node coordinates are tabulated at construction, so [`Mesh::coord_of`]
/// and [`Mesh::hops`] — asked on every message the fabric sends — are
/// lookups rather than a division and a remainder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
    /// `coords[i] == (i % width, i / width)` for every node `i`.
    coords: Vec<Coord>,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let coords = (0..height)
            .flat_map(|y| (0..width).map(move |x| Coord { x, y }))
            .collect();
        Mesh {
            width,
            height,
            coords,
        }
    }

    /// Grid width (columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// The grid position of a core's tile.
    ///
    /// # Panics
    ///
    /// Panics if the core index is outside the mesh.
    #[inline]
    pub fn coord_of(&self, core: CoreId) -> Coord {
        match self.coords.get(core.index()) {
            Some(&c) => c,
            None => panic!("core {} outside a {}-node mesh", core.index(), self.nodes()),
        }
    }

    /// The core whose tile sits at `coord`.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the grid.
    pub fn core_at(&self, coord: Coord) -> CoreId {
        assert!(coord.x < self.width && coord.y < self.height);
        CoreId::new(coord.y * self.width + coord.x)
    }

    /// Manhattan hop distance between two tiles.
    #[inline]
    pub fn hops(&self, src: CoreId, dst: CoreId) -> usize {
        let a = self.coord_of(src);
        let b = self.coord_of(dst);
        a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
    }

    /// Enumerates the directed links of the X-Y route from `src` to `dst`.
    ///
    /// The route is empty when `src == dst`.
    ///
    /// Allocates; the timed fabric's per-message hot path uses
    /// [`Mesh::route_iter`] instead.
    pub fn route(&self, src: CoreId, dst: CoreId) -> Vec<Link> {
        self.route_iter(src, dst).collect()
    }

    /// Iterator form of [`Mesh::route`]: walks the X-Y route lazily with
    /// no heap allocation. Used by the fabric on every send.
    ///
    /// # Examples
    ///
    /// ```
    /// use spcp_noc::Mesh;
    /// use spcp_sim::CoreId;
    ///
    /// let m = Mesh::new(4, 4);
    /// let hops = m.route_iter(CoreId::new(0), CoreId::new(10)).count();
    /// assert_eq!(hops, m.hops(CoreId::new(0), CoreId::new(10)));
    /// ```
    pub fn route_iter(&self, src: CoreId, dst: CoreId) -> RouteIter {
        RouteIter {
            cur: self.coord_of(src),
            goal: self.coord_of(dst),
            width: self.width,
        }
    }

    /// Average hop distance over all ordered pairs of distinct nodes.
    ///
    /// Useful for analytic sanity checks of the timing model.
    pub fn mean_hops(&self) -> f64 {
        let n = self.nodes();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0usize;
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    total += self.hops(CoreId::new(s), CoreId::new(d));
                }
            }
        }
        total as f64 / (n * (n - 1)) as f64
    }
}

/// Lazy X-Y route walker returned by [`Mesh::route_iter`].
///
/// Yields the directed links from the current position to the goal —
/// first along the row, then along the column — without touching the
/// heap.
#[derive(Debug, Clone)]
pub struct RouteIter {
    cur: Coord,
    goal: Coord,
    width: usize,
}

impl Iterator for RouteIter {
    type Item = Link;

    fn next(&mut self) -> Option<Link> {
        let from = self.cur.y * self.width + self.cur.x;
        if self.cur.x != self.goal.x {
            let dir = if self.goal.x > self.cur.x {
                self.cur.x += 1;
                Direction::East
            } else {
                self.cur.x -= 1;
                Direction::West
            };
            Some(Link { from, dir })
        } else if self.cur.y != self.goal.y {
            let dir = if self.goal.y > self.cur.y {
                self.cur.y += 1;
                Direction::North
            } else {
                self.cur.y -= 1;
                Direction::South
            };
            Some(Link { from, dir })
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cur.x.abs_diff(self.goal.x) + self.cur.y.abs_diff(self.goal.y);
        (left, Some(left))
    }
}

impl ExactSizeIterator for RouteIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::new(4, 4)
    }

    #[test]
    fn route_iter_matches_route_exactly() {
        let m = Mesh::new(5, 3);
        for a in 0..15 {
            for b in 0..15 {
                let eager = m.route(CoreId::new(a), CoreId::new(b));
                let it = m.route_iter(CoreId::new(a), CoreId::new(b));
                assert_eq!(it.len(), eager.len());
                let lazy: Vec<Link> = it.collect();
                assert_eq!(lazy, eager, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn coord_numbering_is_row_major() {
        let m = mesh4();
        assert_eq!(m.coord_of(CoreId::new(0)), Coord { x: 0, y: 0 });
        assert_eq!(m.coord_of(CoreId::new(3)), Coord { x: 3, y: 0 });
        assert_eq!(m.coord_of(CoreId::new(4)), Coord { x: 0, y: 1 });
        assert_eq!(m.coord_of(CoreId::new(15)), Coord { x: 3, y: 3 });
    }

    #[test]
    fn coord_core_roundtrip() {
        let m = mesh4();
        for i in 0..16 {
            let c = CoreId::new(i);
            assert_eq!(m.core_at(m.coord_of(c)), c);
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let m = mesh4();
        assert_eq!(m.hops(CoreId::new(0), CoreId::new(0)), 0);
        assert_eq!(m.hops(CoreId::new(0), CoreId::new(3)), 3);
        assert_eq!(m.hops(CoreId::new(0), CoreId::new(15)), 6);
        assert_eq!(m.hops(CoreId::new(5), CoreId::new(10)), 2);
    }

    #[test]
    fn hops_symmetric() {
        let m = mesh4();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(
                    m.hops(CoreId::new(a), CoreId::new(b)),
                    m.hops(CoreId::new(b), CoreId::new(a))
                );
            }
        }
    }

    #[test]
    fn route_length_matches_hops() {
        let m = mesh4();
        for a in 0..16 {
            for b in 0..16 {
                let r = m.route(CoreId::new(a), CoreId::new(b));
                assert_eq!(r.len(), m.hops(CoreId::new(a), CoreId::new(b)));
            }
        }
    }

    #[test]
    fn route_is_x_then_y() {
        let m = mesh4();
        // 0 (0,0) -> 10 (2,2): two east links then two north links.
        let r = m.route(CoreId::new(0), CoreId::new(10));
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].dir, Direction::East);
        assert_eq!(r[1].dir, Direction::East);
        assert_eq!(r[2].dir, Direction::North);
        assert_eq!(r[3].dir, Direction::North);
    }

    #[test]
    fn route_to_self_is_empty() {
        let m = mesh4();
        assert!(m.route(CoreId::new(7), CoreId::new(7)).is_empty());
    }

    #[test]
    fn mean_hops_4x4_known_value() {
        // For a 4x4 mesh the mean pairwise Manhattan distance is 8/3.
        let m = mesh4();
        assert!((m.mean_hops() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        Mesh::new(0, 4);
    }

    #[test]
    fn rectangular_meshes_route_correctly() {
        let m = Mesh::new(8, 2); // wide, shallow
        assert_eq!(m.nodes(), 16);
        assert_eq!(m.coord_of(CoreId::new(9)), Coord { x: 1, y: 1 });
        assert_eq!(m.hops(CoreId::new(0), CoreId::new(15)), 7 + 1);
        for a in 0..16 {
            for b in 0..16 {
                let r = m.route(CoreId::new(a), CoreId::new(b));
                assert_eq!(r.len(), m.hops(CoreId::new(a), CoreId::new(b)));
            }
        }
    }

    #[test]
    fn single_node_mesh_degenerates() {
        let m = Mesh::new(1, 1);
        assert_eq!(m.nodes(), 1);
        assert_eq!(m.mean_hops(), 0.0);
        assert!(m.route(CoreId::new(0), CoreId::new(0)).is_empty());
    }

    #[test]
    fn column_mesh_routes_vertically() {
        let m = Mesh::new(1, 4);
        let r = m.route(CoreId::new(0), CoreId::new(3));
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|l| l.dir == Direction::North));
        let back = m.route(CoreId::new(3), CoreId::new(0));
        assert!(back.iter().all(|l| l.dir == Direction::South));
    }

    #[test]
    fn direction_indices_are_distinct() {
        use Direction::*;
        let idx: Vec<usize> = [East, West, North, South]
            .iter()
            .map(|d| d.index())
            .collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }
}
