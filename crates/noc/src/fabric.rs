//! The timed network fabric: wormhole-approximate contention, bandwidth and
//! energy accounting.

use crate::mesh::{Coord, Direction, Link, Mesh};
use crate::message::MsgKind;
use spcp_sim::{CoreId, CoreSet, Cycle};

/// Configuration of the mesh NoC (defaults = Table 4 of the paper).
///
/// # Examples
///
/// ```
/// use spcp_noc::NocConfig;
///
/// let cfg = NocConfig::default();
/// assert_eq!(cfg.width, 4);
/// assert_eq!(cfg.router_cycles, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Mesh width (columns). Paper: 4.
    pub width: usize,
    /// Mesh height (rows). Paper: 4.
    pub height: usize,
    /// Router pipeline depth in cycles. Paper: 2-stage.
    pub router_cycles: u64,
    /// Link traversal latency in cycles.
    pub link_cycles: u64,
    /// Flit width in bytes (serialization granularity).
    pub flit_bytes: u64,
    /// Energy to move one byte over one link, in arbitrary units.
    pub link_energy_per_byte: f64,
    /// Energy to move one byte through one router; the paper's §5.3 model
    /// sets this to 4× the link energy.
    pub router_energy_per_byte: f64,
    /// When `false`, link contention is ignored and every message sees the
    /// uncontended pipeline latency (useful for analytic tests).
    pub model_contention: bool,
    /// Virtual channels per directed link: concurrent reservations a link
    /// can hold before the head flit must queue.
    pub virtual_channels: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        let link = 1.0;
        NocConfig {
            width: 4,
            height: 4,
            router_cycles: 2,
            link_cycles: 1,
            flit_bytes: 16,
            link_energy_per_byte: link,
            router_energy_per_byte: 4.0 * link,
            model_contention: true,
            virtual_channels: 4,
        }
    }
}

impl NocConfig {
    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }
}

/// Aggregate traffic statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NocStats {
    /// Number of messages injected.
    pub messages: u64,
    /// Total bytes injected (sum of message sizes).
    pub bytes_injected: u64,
    /// Total byte·hops moved (bytes × links traversed); the bandwidth
    /// measure used for the paper's Figure 9.
    pub byte_hops: u64,
    /// Byte·hops of control-only messages (requests, probes, acks); the
    /// "request bandwidth" the destination-set-prediction literature
    /// compares on.
    pub ctrl_byte_hops: u64,
    /// Total energy consumed in links and routers (arbitrary units).
    pub energy: f64,
    /// Cycles messages spent waiting for contended links.
    pub contention_cycles: u64,
}

impl NocStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &NocStats) {
        self.messages += other.messages;
        self.bytes_injected += other.bytes_injected;
        self.byte_hops += other.byte_hops;
        self.ctrl_byte_hops += other.ctrl_byte_hops;
        self.energy += other.energy;
        self.contention_cycles += other.contention_cycles;
    }
}

/// The timed mesh network.
///
/// `Fabric` routes each message along its deterministic X-Y path, reserving
/// each directed link for the message's serialization time. The head flit
/// pays `router_cycles + link_cycles` per hop; the tail occupies each link
/// for `ceil(bytes / flit_bytes)` cycles, so back-to-back messages over a
/// shared link queue behind each other — a faithful first-order wormhole
/// approximation without per-flit simulation.
///
/// Zero-hop messages (to the local tile) are delivered immediately and add
/// no traffic.
///
/// # Examples
///
/// ```
/// use spcp_noc::{Fabric, MsgKind, NocConfig};
/// use spcp_sim::{CoreId, Cycle};
///
/// let mut f = Fabric::new(NocConfig::default());
/// let t1 = f.send(CoreId::new(0), CoreId::new(1), MsgKind::Request, Cycle::ZERO);
/// // one hop: 2-cycle router + 1-cycle link
/// assert_eq!(t1, Cycle::new(3));
/// assert_eq!(f.stats().messages, 1);
/// ```
#[derive(Debug)]
pub struct Fabric {
    mesh: Mesh,
    cfg: NocConfig,
    /// Virtual channels per directed link (`cfg.virtual_channels.max(1)`,
    /// cached for the indexing math below).
    vcs: usize,
    /// Next cycle at which each virtual channel of each directed link is
    /// free. The directed links of a mesh are a small dense set — at most
    /// 4 per node — so reservations live in one flat array indexed by
    /// `(node × 4 + direction) × vcs + vc`: no hashing, no per-link heap
    /// allocation, and `reset` is a `fill`.
    link_free: Vec<Cycle>,
    /// Per-link last-commit watermark: the latest reservation end ever
    /// written to any VC of the link. Every commit raises it, so no VC
    /// slot may hold a cycle beyond it — the invariant [`Fabric::audit`]
    /// checks.
    last_commit: Vec<Cycle>,
    /// Per-column node bit-vectors (bit `i` = node `i`, nodes below
    /// [`CoreSet::MAX_CORES`] only): the destination masks the fan-out
    /// tree walk peels off column by column.
    col_masks: Vec<u64>,
    /// Cycles a control message holds each link it crosses: its flit
    /// count times `link_cycles`. Computed once, since control and data
    /// are the only two message sizes.
    hold_ctrl: u64,
    /// Cycles a data message (header plus cache line) holds each link.
    hold_data: u64,
    stats: NocStats,
}

/// Nodes `0..n` as a bit-vector, saturating at 64 nodes.
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Calls `f(node, hops)` for every node of `set` (a bit-vector of nodes of
/// a `width`-column mesh) in ascending order, with its X-Y hop distance
/// from `from`: a row-by-row bit walk, no per-node division.
#[inline]
fn for_each_hops(width: usize, from: Coord, set: u64, mut f: impl FnMut(usize, u64)) {
    let mut y = 0;
    while y * width < CoreSet::MAX_CORES && set >> (y * width) != 0 {
        let mut row = (set >> (y * width)) & low_mask(width);
        let dy = from.y.abs_diff(y);
        while row != 0 {
            let x = row.trailing_zeros() as usize;
            row &= row - 1;
            f(y * width + x, (from.x.abs_diff(x) + dy) as u64);
        }
        y += 1;
    }
}

/// Commits one hop of a message whose head flit reaches a link's router
/// output at `head`: takes the link's earliest-free virtual channel,
/// queues the head behind it, and reserves the channel for the body's
/// `hold` cycles. Returns the cycle the head starts crossing the link; the
/// reservation ends `hold` cycles later.
///
/// `slots` holds the link's VC free times in ascending order, so the
/// earliest-free channel is always `slots[0]`: the commit removes it and
/// inserts the new reservation end by a min/max merge, keeping the order.
/// Only the multiset of free times decides arrivals (the earliest one is
/// all a message reads), so this is exactly "grab the earliest-free VC".
/// Nothing branches on slot values, since a data-dependent branch here
/// mispredicts on nearly every hop of contended traffic, and the
/// dependency from one commit to the next on the same link is three
/// operations (`max`, add, `min`) rather than an argmin over the lanes.
///
/// The single hop-commit routine of both [`Fabric::send`] and
/// [`Fabric::fanout`].
#[inline(always)]
fn commit_hop(slots: &mut [Cycle], head: Cycle, hold: u64, contention: &mut u64) -> Cycle {
    let free = slots[0];
    *contention += free.as_u64().saturating_sub(head.as_u64());
    let start = head.max(free);
    let end = start + hold;
    // `end >= slots[0]`, so lane `i` of the merge of `slots[1..]` with
    // `end` is `max(slots[i], min(slots[i + 1], end))`, the last lane
    // `max(slots[last], end)`; reading `slots[i + 1]` before it is
    // overwritten makes the pass in place.
    let last = slots.len() - 1;
    for i in 0..last {
        slots[i] = slots[i].max(slots[i + 1].min(end));
    }
    slots[last] = slots[last].max(end);
    start
}

impl Fabric {
    /// Creates a fabric from a configuration.
    pub fn new(cfg: NocConfig) -> Self {
        let vcs = cfg.virtual_channels.max(1);
        let hold = |kind: MsgKind| kind.bytes().div_ceil(cfg.flit_bytes).max(1) * cfg.link_cycles;
        Fabric {
            mesh: Mesh::new(cfg.width, cfg.height),
            vcs,
            link_free: vec![Cycle::ZERO; cfg.nodes() * 4 * vcs],
            last_commit: vec![Cycle::ZERO; cfg.nodes() * 4],
            col_masks: (0..cfg.width)
                .map(|x| {
                    (0..cfg.height)
                        .map(|y| y * cfg.width + x)
                        .filter(|&node| node < CoreSet::MAX_CORES)
                        .fold(0u64, |m, node| m | 1 << node)
                })
                .collect(),
            hold_ctrl: hold(MsgKind::Request),
            hold_data: hold(MsgKind::DataResponse),
            cfg,
            stats: NocStats::default(),
        }
    }

    /// Start of `link`'s VC slot range inside `link_free`. The commit
    /// paths step dense link indices by a fixed stride instead; this
    /// per-link derivation serves introspection.
    fn link_base(&self, link: Link) -> usize {
        debug_assert!(
            link.from < self.cfg.nodes() && link.dir.index() < 4,
            "link {:?} outside the {}-node reservation table",
            link,
            self.cfg.nodes()
        );
        let base = (link.from * 4 + link.dir.index()) * self.vcs;
        debug_assert!(
            base + self.vcs <= self.link_free.len(),
            "VC slot range [{base}, {}) exceeds reservation table of {}",
            base + self.vcs,
            self.link_free.len()
        );
        base
    }

    /// The free times of `link`'s virtual channels, earliest first — the
    /// order every commit keeps them in. Introspection for differential
    /// tests, which compare it with a reference model's per-link VC
    /// multiset.
    ///
    /// # Panics
    ///
    /// Panics if `link` leaves from a node outside the mesh.
    pub fn vc_free_times(&self, link: Link) -> &[Cycle] {
        assert!(
            link.from < self.cfg.nodes(),
            "link {link:?} outside a {}-node mesh",
            self.cfg.nodes()
        );
        let base = self.link_base(link);
        &self.link_free[base..base + self.vcs]
    }

    /// The underlying topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Resets statistics and link reservations (used between measurement
    /// phases).
    pub fn reset(&mut self) {
        self.link_free.fill(Cycle::ZERO);
        self.last_commit.fill(Cycle::ZERO);
        self.stats = NocStats::default();
    }

    /// Cycles a `kind` message holds each link it crosses: its
    /// `ceil(bytes / flit_bytes)` flits serialized at `link_cycles` each.
    #[inline]
    fn hold(&self, kind: MsgKind) -> u64 {
        if kind.carries_data() {
            self.hold_data
        } else {
            self.hold_ctrl
        }
    }

    /// Sends one message, returning its arrival time at `dst`.
    ///
    /// Accounts bandwidth and energy, and models head-of-line link
    /// contention when enabled. A message to the local tile arrives
    /// immediately.
    ///
    /// Reservations are committed in one walk over the X-Y route: the X
    /// leg, then the Y leg, each a strided run of dense link indices.
    pub fn send(&mut self, src: CoreId, dst: CoreId, kind: MsgKind, depart: Cycle) -> Cycle {
        let bytes = kind.bytes();
        self.stats.messages += 1;
        self.stats.bytes_injected += bytes;

        if src == dst {
            return depart;
        }

        let a = self.mesh.coord_of(src);
        let b = self.mesh.coord_of(dst);
        let hops = (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as u64;
        self.stats.byte_hops += bytes * hops;
        if !kind.carries_data() {
            self.stats.ctrl_byte_hops += bytes * hops;
        }
        // §5.3 model: each hop moves the bytes through one router + one link.
        self.stats.energy += bytes as f64
            * hops as f64
            * (self.cfg.link_energy_per_byte + self.cfg.router_energy_per_byte);

        if !self.cfg.model_contention {
            // Pure pipeline latency; no reservation state to touch.
            return depart + hops * (self.cfg.router_cycles + self.cfg.link_cycles);
        }

        let hold = self.hold(kind);
        let width = self.cfg.width;
        let mut head = depart;
        if b.x != a.x {
            let (dir, stride) = if b.x > a.x {
                (Direction::East, 4)
            } else {
                (Direction::West, -4)
            };
            let first = (a.y * width + a.x) * 4 + dir.index();
            head = self.commit_route_leg(first, stride, a.x.abs_diff(b.x), head, hold);
        }
        if b.y != a.y {
            let col_stride = 4 * width as isize;
            let (dir, stride) = if b.y > a.y {
                (Direction::North, col_stride)
            } else {
                (Direction::South, -col_stride)
            };
            let first = (a.y * width + b.x) * 4 + dir.index();
            head = self.commit_route_leg(first, stride, a.y.abs_diff(b.y), head, hold);
        }
        head
    }

    /// Commits one straight leg of a [`Fabric::send`] route: `hops` links
    /// starting at dense link index `link` (`node × 4 + direction`), each
    /// `stride` indices past the previous one (±4 along a row, ±4·width
    /// along a column). Each hop pays the router pipeline, then its VC
    /// wait, and raises the link's `last_commit` watermark. Returns the
    /// head flit's time after the leg. Always inlined: `send` is the
    /// hottest call of a run and calls it once per leg.
    #[inline(always)]
    fn commit_route_leg(
        &mut self,
        mut link: usize,
        stride: isize,
        hops: usize,
        mut head: Cycle,
        hold: u64,
    ) -> Cycle {
        for _ in 0..hops {
            let base = link * self.vcs;
            let start = commit_hop(
                &mut self.link_free[base..base + self.vcs],
                head + self.cfg.router_cycles,
                hold,
                &mut self.stats.contention_cycles,
            );
            // Branchless on purpose: a compare-and-store watermark update
            // measured markedly slower (docs/PERF.md).
            let mark = &mut self.last_commit[link];
            *mark = (*mark).max(start + hold);
            head = start + self.cfg.link_cycles;
            // Past the leg's last link the index may leave the table; it
            // is never read then.
            link = link.wrapping_add_signed(stride);
        }
        head
    }

    /// Sends one `kind` message from `src` to every core in `targets`,
    /// departing at `depart`, and reports each arrival through `arrive`
    /// in ascending core order (`src` itself, if targeted, arrives at
    /// `depart`).
    ///
    /// Bit-identical to one [`Fabric::send`] per target in ascending core
    /// order: the same arrivals, the same [`NocStats`] (the `f64` energy
    /// is still added message by message in that order), the same VC
    /// slot contents and the same link watermarks. Instead of committing
    /// each route on its own, it walks the source's X-Y tree once,
    /// link by link — the row legs outward from the source, then each
    /// column's legs — committing on each link the messages that cross
    /// it in ascending destination order. Under X-Y routing from a single
    /// source every link has exactly one upstream path, so a link's
    /// reservations depend only on the messages crossing it and on their
    /// head times at its input, which upstream links fix before it is
    /// visited: per-link ascending order reproduces the message-order
    /// result. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a target lies outside the mesh.
    ///
    /// # Examples
    ///
    /// ```
    /// use spcp_noc::{Fabric, MsgKind, NocConfig};
    /// use spcp_sim::{CoreId, CoreSet, Cycle};
    ///
    /// let mut f = Fabric::new(NocConfig::default());
    /// let mut arrivals = Vec::new();
    /// let targets = CoreSet::from_bits(0b1010);
    /// f.fanout(CoreId::new(0), targets, MsgKind::SnoopProbe, Cycle::ZERO, |d, t| {
    ///     arrivals.push((d.index(), t.as_u64()))
    /// });
    /// // One and three hops at 2 router + 1 link cycles each.
    /// assert_eq!(arrivals, [(1, 3), (3, 9)]);
    /// assert_eq!(f.stats().messages, 2);
    /// ```
    pub fn fanout(
        &mut self,
        src: CoreId,
        targets: CoreSet,
        kind: MsgKind,
        depart: Cycle,
        mut arrive: impl FnMut(CoreId, Cycle),
    ) {
        let bits = targets.bits();
        self.assert_in_mesh(targets);
        let a = self.mesh.coord_of(src);
        let remote = bits & !(1u64 << src.index());
        let bytes = kind.bytes();
        let width = self.cfg.width;
        let count = u64::from(bits.count_ones());
        self.stats.messages += count;
        self.stats.bytes_injected += bytes * count;

        // Per-destination head time: where the message's head flit stands
        // after the last link committed so far on its route, and so its
        // arrival once the walk is done.
        let mut head = [depart; CoreSet::MAX_CORES];
        let per_hop = self.cfg.router_cycles + self.cfg.link_cycles;
        let energy_per_byte = self.cfg.link_energy_per_byte + self.cfg.router_energy_per_byte;
        let contended = self.cfg.model_contention;
        let mut total_hops = 0u64;
        let energy = &mut self.stats.energy;
        for_each_hops(width, a, remote, |d, hops| {
            total_hops += hops;
            *energy += bytes as f64 * hops as f64 * energy_per_byte;
            if !contended {
                head[d] = depart + hops * per_hop;
            }
        });
        self.stats.byte_hops += bytes * total_hops;
        if !kind.carries_data() {
            self.stats.ctrl_byte_hops += bytes * total_hops;
        }

        if self.cfg.model_contention {
            let hold = self.hold(kind);
            // The default VC count gets a walk whose per-link VC slots live
            // in a fixed-size local array (registers, not the table).
            if self.vcs == 4 {
                self.walk_tree::<4>(a, remote, &mut head, hold);
            } else {
                self.walk_tree::<0>(a, remote, &mut head, hold);
            }
        }
        for d in targets.iter() {
            arrive(d, head[d.index()]);
        }
    }

    /// The contended half of [`Fabric::fanout`]: commits every message in
    /// `remote` (destinations of a fan-out from `a`) link by link over the
    /// source's X-Y tree, advancing each message's entry in `head`. `VCS`
    /// is the link's VC count when it is a compile-time constant, or 0.
    fn walk_tree<const VCS: usize>(
        &mut self,
        a: Coord,
        remote: u64,
        head: &mut [Cycle; CoreSet::MAX_CORES],
        hold: u64,
    ) {
        let width = self.cfg.width;
        let src_node = a.y * width + a.x;
        // Row legs: every message whose destination column lies east
        // (west) of the source leaves along the source's row.
        let (mut east, mut west) = (0u64, 0u64);
        for (x, &col) in self.col_masks.iter().enumerate() {
            if x > a.x {
                east |= col;
            } else if x < a.x {
                west |= col;
            }
        }
        self.commit_leg::<VCS>(src_node, a.x, Direction::East, remote & east, head, hold);
        self.commit_leg::<VCS>(src_node, a.x, Direction::West, remote & west, head, hold);
        // Column legs: from the turn node in the source's row, north
        // (south) to the destinations above (below) it.
        let north = !low_mask((a.y + 1) * width);
        let south = low_mask(a.y * width);
        for x in 0..width {
            let col = remote & self.col_masks[x];
            let turn = a.y * width + x;
            self.commit_leg::<VCS>(turn, x, Direction::North, col & north, head, hold);
            self.commit_leg::<VCS>(turn, x, Direction::South, col & south, head, hold);
        }
    }

    /// Commits one straight leg of a fan-out tree: starting at the `dir`
    /// output link of `node` (in column `x`), commits every message in
    /// `mask` on each link in ascending destination order, then drops the
    /// messages that have reached their turn column (row legs) or
    /// destination (column legs) and moves one link on, until no message
    /// is left.
    ///
    /// A message's head time in `head` advances link by link; a link's
    /// watermark is written once, after all its commits.
    #[inline]
    fn commit_leg<const VCS: usize>(
        &mut self,
        mut node: usize,
        mut x: usize,
        dir: Direction,
        mut mask: u64,
        head: &mut [Cycle; CoreSet::MAX_CORES],
        hold: u64,
    ) {
        if mask == 0 {
            return;
        }
        let width = self.cfg.width;
        let (router, link_cycles) = (self.cfg.router_cycles, self.cfg.link_cycles);
        let mut contention = 0u64;
        // Commits the crossing messages on one link's VC slots and returns
        // the link's new watermark.
        let mut commit_link = |slots: &mut [Cycle], mut mark: Cycle, mut crossing: u64| {
            while crossing != 0 {
                let d = crossing.trailing_zeros() as usize;
                crossing &= crossing - 1;
                let start = commit_hop(slots, head[d] + router, hold, &mut contention);
                mark = mark.max(start + hold);
                head[d] = start + link_cycles;
            }
            mark
        };
        while mask != 0 {
            let link = node * 4 + dir.index();
            let base = link * self.vcs;
            let mark = self.last_commit[link];
            self.last_commit[link] = if VCS == 0 {
                commit_link(&mut self.link_free[base..base + self.vcs], mark, mask)
            } else {
                let table = &mut self.link_free[base..base + VCS];
                let mut slots = [Cycle::ZERO; VCS];
                slots.copy_from_slice(table);
                let mark = commit_link(&mut slots, mark, mask);
                table.copy_from_slice(&slots);
                mark
            };
            // Every remaining message lies beyond the next node, so its
            // index (and column) stays inside the mesh and the bit-vector.
            let arrived = match dir {
                Direction::East => {
                    node += 1;
                    x += 1;
                    self.col_masks[x]
                }
                Direction::West => {
                    node -= 1;
                    x -= 1;
                    self.col_masks[x]
                }
                Direction::North => {
                    node += width;
                    1u64 << node
                }
                Direction::South => {
                    node -= width;
                    1u64 << node
                }
            };
            mask &= !arrived;
        }
        self.stats.contention_cycles += contention;
    }

    /// Accounts one `kind` message from every core in `sources` to `dst` —
    /// bandwidth and energy exactly as [`Fabric::send`] accounts them —
    /// without timing them or reserving links.
    ///
    /// Used for background traffic that real hardware aggregates or
    /// combines off the critical path (e.g. snoop responses on an ordered
    /// interconnect): the bytes are real, the serialization is not
    /// modelled. The counters are batched; the `f64` energy is added
    /// message by message in ascending source order, so the result is
    /// bit-identical to accounting the messages one at a time in that
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a source or `dst` lies outside the mesh.
    pub fn fanin_untimed(&mut self, sources: CoreSet, dst: CoreId, kind: MsgKind) {
        self.assert_in_mesh(sources);
        let bytes = kind.bytes();
        let count = sources.len() as u64;
        self.stats.messages += count;
        self.stats.bytes_injected += bytes * count;
        let mut total_hops = 0u64;
        let energy_per_byte = self.cfg.link_energy_per_byte + self.cfg.router_energy_per_byte;
        let energy = &mut self.stats.energy;
        let remote = sources.difference(CoreSet::single(dst)).bits();
        for_each_hops(
            self.cfg.width,
            self.mesh.coord_of(dst),
            remote,
            |_, hops| {
                total_hops += hops;
                *energy += bytes as f64 * hops as f64 * energy_per_byte;
            },
        );
        self.stats.byte_hops += bytes * total_hops;
        if !kind.carries_data() {
            self.stats.ctrl_byte_hops += bytes * total_hops;
        }
    }

    /// Panics unless every core of `set` has a tile in the mesh.
    fn assert_in_mesh(&self, set: CoreSet) {
        assert!(
            set.bits() & !low_mask(self.cfg.nodes()) == 0,
            "cores {:#x} outside a {}-node mesh",
            set.bits(),
            self.cfg.nodes()
        );
    }

    /// Audits the fabric's internal accounting: the VC reservation table
    /// has exactly `nodes × 4 directions × vcs` slots, the traffic
    /// counters are mutually consistent, every link's VC free times are in
    /// ascending order (the hop commit takes the first as the earliest),
    /// and no VC slot holds a cycle beyond its link's last-commit
    /// watermark. Slots only ever move forward via commits and every
    /// commit raises the watermark, so a slot ahead of it means a
    /// reservation bypassed the commit bookkeeping.
    /// Cheap (one pass over the small slot table plus a few compares), so
    /// the runtime invariant layer can call it per transaction.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn audit(&self) -> Result<(), String> {
        let want = self.cfg.nodes() * 4 * self.vcs;
        if self.link_free.len() != want {
            return Err(format!(
                "VC reservation table has {} slots, geometry implies {want}",
                self.link_free.len()
            ));
        }
        if self.last_commit.len() != self.cfg.nodes() * 4 {
            return Err(format!(
                "last-commit table has {} links, geometry implies {}",
                self.last_commit.len(),
                self.cfg.nodes() * 4
            ));
        }
        for (slot, &free_at) in self.link_free.iter().enumerate() {
            let link = slot / self.vcs;
            if free_at > self.last_commit[link] {
                return Err(format!(
                    "VC slot {slot} free at {free_at}, beyond link {link}'s \
                     last commit {}",
                    self.last_commit[link]
                ));
            }
            if slot % self.vcs != 0 && free_at < self.link_free[slot - 1] {
                return Err(format!(
                    "VC slot {slot} free at {free_at}, before slot {} at {}: \
                     link {link}'s free times are out of order",
                    slot - 1,
                    self.link_free[slot - 1]
                ));
            }
        }
        if self.vcs != self.cfg.virtual_channels.max(1) {
            return Err(format!(
                "cached VC count {} disagrees with config {}",
                self.vcs, self.cfg.virtual_channels
            ));
        }
        if self.stats.ctrl_byte_hops > self.stats.byte_hops {
            return Err(format!(
                "control byte-hops {} exceed total byte-hops {}",
                self.stats.ctrl_byte_hops, self.stats.byte_hops
            ));
        }
        if self.stats.messages == 0 && (self.stats.bytes_injected != 0 || self.stats.byte_hops != 0)
        {
            return Err("traffic accounted with zero messages injected".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::new(NocConfig::default())
    }

    #[test]
    fn precomputed_hold_matches_flit_count_for_every_kind() {
        use MsgKind::*;
        let kinds = [
            Request,
            PredictedRequest,
            Forward,
            Invalidate,
            InvalidateAck,
            Nack,
            ControlResponse,
            DataResponse,
            WriteBack,
            DirectoryUpdate,
            SnoopProbe,
            SnoopResponse,
        ];
        for (flit_bytes, link_cycles) in [(16, 1), (8, 3), (7, 2), (100, 1), (1, 1)] {
            let f = Fabric::new(NocConfig {
                flit_bytes,
                link_cycles,
                ..NocConfig::default()
            });
            for kind in kinds {
                let flits = kind.bytes().div_ceil(flit_bytes).max(1);
                assert_eq!(
                    f.hold(kind),
                    flits * link_cycles,
                    "{kind} at {flit_bytes} B"
                );
            }
        }
    }

    #[test]
    fn local_delivery_is_instant() {
        let mut f = fabric();
        let t = f.send(
            CoreId::new(3),
            CoreId::new(3),
            MsgKind::Request,
            Cycle::new(10),
        );
        assert_eq!(t, Cycle::new(10));
        assert_eq!(f.stats().byte_hops, 0);
        assert_eq!(f.stats().messages, 1);
    }

    #[test]
    fn one_hop_latency_is_router_plus_link() {
        let mut f = fabric();
        let t = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::Request,
            Cycle::ZERO,
        );
        assert_eq!(t.as_u64(), 3);
    }

    #[test]
    fn corner_to_corner_latency() {
        let mut f = fabric();
        // 6 hops * (2+1) = 18 cycles uncontended.
        let t = f.send(
            CoreId::new(0),
            CoreId::new(15),
            MsgKind::Request,
            Cycle::ZERO,
        );
        assert_eq!(t.as_u64(), 18);
    }

    #[test]
    fn bandwidth_counts_byte_hops() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(2),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        // 72 bytes * 2 hops
        assert_eq!(f.stats().byte_hops, 144);
        assert_eq!(f.stats().bytes_injected, 72);
    }

    #[test]
    fn energy_uses_router_4x_link_model() {
        let cfg = NocConfig::default();
        let mut f = Fabric::new(cfg.clone());
        f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::Request,
            Cycle::ZERO,
        );
        let expected = 8.0 * 1.0 * (cfg.link_energy_per_byte + cfg.router_energy_per_byte);
        assert!((f.stats().energy - expected).abs() < 1e-9);
    }

    #[test]
    fn contention_delays_message_when_vcs_exhausted() {
        let mut f = Fabric::new(NocConfig {
            virtual_channels: 1,
            ..NocConfig::default()
        });
        // Two data messages over the same single-VC link at the same cycle.
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert!(t2 > t1, "second message must queue behind the first");
        assert!(f.stats().contention_cycles > 0);
    }

    #[test]
    fn virtual_channels_absorb_small_bursts() {
        let mut f = fabric(); // 4 VCs by default
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert_eq!(t1, t2, "a 4-VC link passes two concurrent messages");
        // A fifth concurrent message exhausts the VCs.
        for _ in 0..2 {
            f.send(
                CoreId::new(0),
                CoreId::new(1),
                MsgKind::DataResponse,
                Cycle::ZERO,
            );
        }
        let t5 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert!(t5 > t1);
    }

    #[test]
    fn no_contention_when_disabled() {
        let mut f = Fabric::new(NocConfig {
            model_contention: false,
            ..NocConfig::default()
        });
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        assert_eq!(t1, t2);
        assert_eq!(f.stats().contention_cycles, 0);
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut f = fabric();
        let t1 = f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::Request,
            Cycle::ZERO,
        );
        let t2 = f.send(
            CoreId::new(8),
            CoreId::new(9),
            MsgKind::Request,
            Cycle::ZERO,
        );
        assert_eq!(t1, t2);
        assert_eq!(f.stats().contention_cycles, 0);
    }

    #[test]
    fn fanout_latest_arrival_is_farthest_target() {
        let mut f = fabric();
        let mut t = Cycle::ZERO;
        f.fanout(
            CoreId::new(0),
            CoreSet::from_iter([CoreId::new(1), CoreId::new(15)]),
            MsgKind::Invalidate,
            Cycle::ZERO,
            |_, arrival| t = t.max(arrival),
        );
        // Farthest target dominates: 6 hops * 3 = 18; the shared initial
        // link has spare virtual channels so nothing queues.
        assert_eq!(t.as_u64(), 18);
        assert_eq!(f.stats().messages, 2);
    }

    /// The tree walk leaves the reservation tables exactly as one send per
    /// target in ascending order does: every VC slot, every watermark and
    /// every statistic (energy bit for bit), on warmed fabrics across
    /// geometries, VC counts and contention modes.
    #[test]
    fn fanout_tables_match_per_message_sends() {
        let mut rng = spcp_sim::DetRng::seeded(0xFA_2007);
        for case in 0..400 {
            let (width, height) = *rng.pick(&[(4usize, 4usize), (8, 8), (5, 3), (1, 8), (8, 1)]);
            let cfg = NocConfig {
                width,
                height,
                virtual_channels: *rng.pick(&[1usize, 2, 4, 8]),
                model_contention: case % 4 != 0,
                ..NocConfig::default()
            };
            let nodes = cfg.nodes();
            let mut batched = Fabric::new(cfg.clone());
            let mut serial = Fabric::new(cfg);
            let mut now = Cycle::ZERO;
            for _ in 0..rng.range(0, 80) {
                now += rng.range(0, 3);
                let src = CoreId::new(rng.index(nodes));
                let dst = CoreId::new(rng.index(nodes));
                let kind = *rng.pick(&[MsgKind::Request, MsgKind::DataResponse]);
                assert_eq!(
                    batched.send(src, dst, kind, now),
                    serial.send(src, dst, kind, now)
                );
            }
            let src = CoreId::new(rng.index(nodes));
            let targets = CoreSet::from_bits(rng.range(0, u64::MAX) & CoreSet::all(nodes).bits());
            let kind = *rng.pick(&[MsgKind::SnoopProbe, MsgKind::DataResponse]);
            let mut got = Vec::new();
            batched.fanout(src, targets, kind, now, |d, t| got.push((d, t)));
            let want: Vec<(CoreId, Cycle)> = targets
                .iter()
                .map(|d| (d, serial.send(src, d, kind, now)))
                .collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(batched.link_free, serial.link_free, "case {case}: VC slots");
            assert_eq!(
                batched.last_commit, serial.last_commit,
                "case {case}: watermarks"
            );
            assert_eq!(
                batched.stats.energy.to_bits(),
                serial.stats.energy.to_bits(),
                "case {case}: energy"
            );
            assert_eq!(batched.stats, serial.stats, "case {case}: stats");
        }
    }

    #[test]
    fn fanout_rejects_targets_outside_the_mesh() {
        let result = std::panic::catch_unwind(|| {
            let mut f = fabric();
            f.fanout(
                CoreId::new(0),
                CoreSet::single(CoreId::new(16)),
                MsgKind::SnoopProbe,
                Cycle::ZERO,
                |_, _| {},
            );
        });
        assert!(result.is_err(), "a 16-node mesh has no core 16");
    }

    #[test]
    fn fanin_untimed_counts_local_source_without_traffic() {
        let mut f = fabric();
        let sources = CoreSet::from_iter([CoreId::new(0), CoreId::new(5)]);
        f.fanin_untimed(sources, CoreId::new(5), MsgKind::SnoopResponse);
        // Two messages; only 0 -> 5 (two hops) moves bytes.
        assert_eq!(f.stats().messages, 2);
        assert_eq!(f.stats().bytes_injected, 16);
        assert_eq!(f.stats().byte_hops, 16);
        assert_eq!(f.stats().ctrl_byte_hops, 16);
    }

    #[test]
    fn reset_clears_everything() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(5),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.reset();
        assert_eq!(*f.stats(), NocStats::default());
    }

    #[test]
    fn stats_merge_adds_fields() {
        let a = NocStats {
            messages: 1,
            bytes_injected: 8,
            byte_hops: 16,
            ctrl_byte_hops: 16,
            energy: 5.0,
            contention_cycles: 2,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.messages, 2);
        assert_eq!(b.byte_hops, 32);
        assert!((b.energy - 10.0).abs() < 1e-12);
    }

    #[test]
    fn audit_catches_slot_beyond_watermark() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(3),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.audit().expect("clean run");
        // Corrupt one reserved slot past its link's watermark: the audit
        // must name it.
        let base = f.link_base(Link {
            from: 0,
            dir: Direction::East,
        });
        let link = base / f.vcs;
        f.link_free[base] = f.last_commit[link] + 1;
        let err = f.audit().expect_err("corruption undetected");
        assert!(
            err.contains("last commit"),
            "unexpected audit message: {err}"
        );
    }

    #[test]
    fn audit_catches_unordered_vc_slots() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(1),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.audit().expect("clean run");
        // The reservation sits in the last VC lane; swapping it to the
        // front breaks the earliest-first order the commit relies on.
        let base = f.link_base(Link {
            from: 0,
            dir: Direction::East,
        });
        f.link_free.swap(base, base + f.vcs - 1);
        let err = f.audit().expect_err("unordered slots undetected");
        assert!(
            err.contains("out of order"),
            "unexpected audit message: {err}"
        );
    }

    #[test]
    fn watermark_survives_reset() {
        let mut f = fabric();
        f.send(
            CoreId::new(0),
            CoreId::new(5),
            MsgKind::DataResponse,
            Cycle::ZERO,
        );
        f.reset();
        assert!(f.last_commit.iter().all(|&c| c == Cycle::ZERO));
        f.audit().expect("reset state is consistent");
    }
}
