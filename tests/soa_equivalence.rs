//! Differential (lockstep) harness pinning the structure-of-arrays
//! `SetAssocCache` and the batched `Fabric` reservation path against
//! reference models of the pre-migration implementations:
//!
//! * `RefCache` (`tests/common/mod.rs`) — a verbatim port of the old
//!   array-of-structures cache (`Vec<Vec<Way>>` per set, push-order fill,
//!   `swap_remove` on invalidate, min-stamp eviction). Every demand access, probe, insert
//!   and invalidate is issued to both caches and the outcomes compared
//!   bit for bit: hit/miss, returned payload, victim `(block, payload)`,
//!   occupancy and the hit/miss counters.
//! * `RefFabric` — the naive one-hop-at-a-time reservation model
//!   (`HashMap<Link, Vec<Cycle>>`, slot bases re-derived per hop, every
//!   `NocStats` field accounted per message). Every send is issued to both
//!   fabrics and the arrival cycle and accumulated statistics compared
//!   exactly. The batched `Fabric::fanout` tree walk and
//!   `Fabric::fanin_untimed` are pinned against the reference sending one
//!   message at a time, in ascending core order.
//!
//! Each of the four protocols of the comparison study drives its own
//! ≥ 1000 randomized sequences, with the op mix and traffic pattern
//! shaped to the protocol's behaviour (directory: home-node funnel;
//! broadcast: invalidation fan-out; SP-prediction: hot-set locality;
//! unicast prediction: pairwise streams), so the lockstep covers the
//! access/route distributions each engine actually generates. All
//! randomness is `DetRng`-seeded: a failure names the protocol and case
//! to replay. Same pattern as `tests/flat_table_equivalence.rs`, which
//! pinned the FlatMap migration.

use std::collections::HashMap;

use spcp::mem::{BlockAddr, CacheConfig, SetAssocCache, BLOCK_BYTES};
use spcp::noc::{Direction, Fabric, Link, Mesh, MsgKind, NocConfig, NocStats};
use spcp::sim::{CoreId, CoreSet, Cycle, DetRng};
use spcp::system::{PredictorKind, ProtocolKind};

mod common;
use common::RefCache;

/// Randomized sequences per protocol (acceptance floor: 1000).
const SEQUENCES: u64 = 1024;
const SEED: u64 = 0x5_0AE9;

fn case_rng(salt: u64, case: u64) -> DetRng {
    DetRng::seeded(SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

// ---------------------------------------------------------------------------
// Reference models
// ---------------------------------------------------------------------------

/// The pre-batching reservation semantics: per-link VC vectors in a
/// `HashMap`, slot bases re-derived hop by hop, earliest-free VC (first on
/// ties), lazily initialised to all-free; traffic accounted message by
/// message.
struct RefFabric {
    mesh: Mesh,
    cfg: NocConfig,
    link_free: HashMap<Link, Vec<Cycle>>,
    stats: NocStats,
}

impl RefFabric {
    fn new(cfg: NocConfig) -> Self {
        RefFabric {
            mesh: Mesh::new(cfg.width, cfg.height),
            cfg,
            link_free: HashMap::new(),
            stats: NocStats::default(),
        }
    }

    /// Bandwidth and energy of one message (the §5.3 model).
    fn account(&mut self, src: CoreId, dst: CoreId, kind: MsgKind) {
        let bytes = kind.bytes();
        self.stats.messages += 1;
        self.stats.bytes_injected += bytes;
        let hops = self.mesh.hops(src, dst) as u64;
        if hops == 0 {
            return;
        }
        self.stats.byte_hops += bytes * hops;
        if !kind.carries_data() {
            self.stats.ctrl_byte_hops += bytes * hops;
        }
        self.stats.energy += bytes as f64
            * hops as f64
            * (self.cfg.link_energy_per_byte + self.cfg.router_energy_per_byte);
    }

    fn send_untimed(&mut self, src: CoreId, dst: CoreId, kind: MsgKind) {
        self.account(src, dst, kind);
    }

    fn send(&mut self, src: CoreId, dst: CoreId, kind: MsgKind, depart: Cycle) -> Cycle {
        self.account(src, dst, kind);
        if src == dst {
            return depart;
        }
        if !self.cfg.model_contention {
            let hops = self.mesh.hops(src, dst) as u64;
            return depart + hops * (self.cfg.router_cycles + self.cfg.link_cycles);
        }
        let vcs = self.cfg.virtual_channels.max(1);
        let flits = kind.bytes().div_ceil(self.cfg.flit_bytes).max(1);
        let mut head = depart;
        for link in self.mesh.route(src, dst) {
            head += self.cfg.router_cycles;
            let slots = self
                .link_free
                .entry(link)
                .or_insert_with(|| vec![Cycle::ZERO; vcs]);
            let slot = slots
                .iter_mut()
                .min_by_key(|c| **c)
                .expect("at least one VC");
            if *slot > head {
                self.stats.contention_cycles += (*slot - head).as_u64();
                head = *slot;
            }
            *slot = head + flits * self.cfg.link_cycles;
            head += self.cfg.link_cycles;
        }
        head
    }
}

/// Every `NocStats` field equal, the `f64` energy bit for bit.
fn assert_stats_eq(got: &NocStats, want: &NocStats, ctx: &str) {
    assert_eq!(got.messages, want.messages, "{ctx}: messages");
    assert_eq!(got.bytes_injected, want.bytes_injected, "{ctx}: bytes");
    assert_eq!(got.byte_hops, want.byte_hops, "{ctx}: byte-hops");
    assert_eq!(
        got.ctrl_byte_hops, want.ctrl_byte_hops,
        "{ctx}: ctrl byte-hops"
    );
    assert_eq!(
        got.energy.to_bits(),
        want.energy.to_bits(),
        "{ctx}: energy {} vs {}",
        got.energy,
        want.energy
    );
    assert_eq!(
        got.contention_cycles, want.contention_cycles,
        "{ctx}: contention"
    );
}

/// Every link holds the same multiset of VC free times as the reference
/// (the fabric keeps each link's times earliest first; the reference keeps
/// them in the lanes its first-on-ties pick happened to use).
fn assert_vc_multisets_eq(fab: &Fabric, rfab: &RefFabric, ctx: &str) {
    let vcs = rfab.cfg.virtual_channels.max(1);
    for from in 0..rfab.cfg.nodes() {
        for dir in [
            Direction::East,
            Direction::West,
            Direction::North,
            Direction::South,
        ] {
            let link = Link { from, dir };
            let mut want = rfab
                .link_free
                .get(&link)
                .cloned()
                .unwrap_or_else(|| vec![Cycle::ZERO; vcs]);
            want.sort_unstable();
            assert_eq!(
                fab.vc_free_times(link),
                want.as_slice(),
                "{ctx}: VC free times of {link:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol-shaped traffic
// ---------------------------------------------------------------------------

/// Access/traffic distribution for one protocol engine.
struct Mix {
    /// Relative weights of lookup / insert / probe / invalidate.
    ops: [u64; 4],
    /// Chance an access targets the sequence's hot working set.
    hot: f64,
    /// Messages injected per traffic event.
    fanout: usize,
    /// Chance a message funnels into the "home corner" of the mesh.
    funnel: f64,
}

/// What each engine predominantly does to caches and links: the directory
/// funnels requests through home nodes; broadcast invalidates widely;
/// SP-prediction rides hot sharer sets; unicast prediction streams between
/// stable pairs.
fn mix_for(proto: &ProtocolKind) -> Mix {
    match proto {
        ProtocolKind::Directory => Mix {
            ops: [4, 3, 2, 1],
            hot: 0.4,
            fanout: 1,
            funnel: 0.7,
        },
        ProtocolKind::Broadcast => Mix {
            ops: [3, 2, 2, 3],
            hot: 0.3,
            fanout: 3,
            funnel: 0.2,
        },
        ProtocolKind::Predicted(PredictorKind::Uni) => Mix {
            ops: [3, 5, 1, 1],
            hot: 0.2,
            fanout: 1,
            funnel: 0.1,
        },
        // SP default and the rest of the predicted family: locality-heavy.
        _ => Mix {
            ops: [6, 2, 1, 1],
            hot: 0.7,
            fanout: 2,
            funnel: 0.4,
        },
    }
}

fn weighted(rng: &mut DetRng, weights: &[u64; 4]) -> usize {
    let total: u64 = weights.iter().sum();
    let mut roll = rng.range(0, total);
    for (i, &w) in weights.iter().enumerate() {
        if roll < w {
            return i;
        }
        roll -= w;
    }
    unreachable!()
}

/// One lockstep sequence: fresh random cache geometry and mesh, a few
/// hundred interleaved cache ops and sends, outcomes compared op by op and
/// state compared at the end. Returns (evictions, contention) observed so
/// callers can assert the traffic was meaningful in aggregate.
fn lockstep_sequence(rng: &mut DetRng, mix: &Mix, ctx: &str) -> (u64, u64) {
    // Cache geometry: the paper's associativities plus non-power-of-two
    // set counts to exercise the modulo (non-mask) set-index path.
    let assoc = *rng.pick(&[1usize, 2, 4, 8]);
    let sets = *rng.pick(&[2usize, 3, 4, 5, 8, 16]);
    let cfg = CacheConfig {
        size_bytes: (assoc * sets) as u64 * BLOCK_BYTES,
        assoc,
        block_bytes: BLOCK_BYTES,
        tag_cycles: 1,
        data_cycles: 1,
    };
    let mut soa: SetAssocCache<u64> = SetAssocCache::new(cfg);
    let mut aos: RefCache<u64> = RefCache::new(cfg);

    // Mesh geometry: square and rectangular, down to a single node.
    let ncfg = NocConfig {
        width: rng.range(1, 5) as usize,
        height: rng.range(1, 5) as usize,
        virtual_channels: *rng.pick(&[1usize, 2, 4]),
        ..NocConfig::default()
    };
    let nodes = ncfg.nodes();
    let mut fab = Fabric::new(ncfg.clone());
    let mut rfab = RefFabric::new(ncfg);
    let kinds = [
        MsgKind::Request,
        MsgKind::DataResponse,
        MsgKind::Invalidate,
        MsgKind::InvalidateAck,
    ];

    // Block universe 4× capacity; a small hot set supplies locality.
    let universe = (assoc * sets) as u64 * 4;
    let hot: Vec<u64> = (0..4).map(|_| rng.range(0, universe)).collect();
    let mut evictions = 0u64;
    let mut now = Cycle::ZERO;
    let ops = rng.range(60, 200);
    for step in 0..ops {
        let raw = if rng.chance(mix.hot) {
            *rng.pick(&hot)
        } else {
            rng.range(0, universe)
        };
        let b = BlockAddr::from_index(raw);
        match weighted(rng, &mix.ops) {
            0 => {
                let got = soa.lookup(b).map(|p| *p);
                let want = aos.lookup(b).map(|p| *p);
                assert_eq!(got, want, "{ctx} step {step}: lookup {raw}");
            }
            1 => {
                let payload = rng.range(0, 1 << 30);
                let got = soa.insert(b, payload);
                let want = aos.insert(b, payload);
                assert_eq!(got, want, "{ctx} step {step}: insert {raw}");
                if got.is_some_and(|(victim, _)| victim != b) {
                    evictions += 1;
                }
            }
            2 => {
                let got = soa.probe(b).copied();
                let want = aos.probe(b).copied();
                assert_eq!(got, want, "{ctx} step {step}: probe {raw}");
            }
            _ => {
                let got = soa.invalidate(b);
                let want = aos.invalidate(b);
                assert_eq!(got, want, "{ctx} step {step}: invalidate {raw}");
            }
        }
        assert_eq!(soa.len(), aos.len(), "{ctx} step {step}: occupancy");

        // Interleaved route traffic, bursty in time.
        if rng.chance(0.6) {
            if rng.chance(0.4) {
                now += rng.range(0, 5);
            }
            let src = CoreId::new(rng.index(nodes));
            for _ in 0..mix.fanout {
                let dst = if rng.chance(mix.funnel) {
                    CoreId::new(rng.index(2.min(nodes)))
                } else {
                    CoreId::new(rng.index(nodes))
                };
                let kind = *rng.pick(&kinds);
                let got = fab.send(src, dst, kind, now);
                let want = rfab.send(src, dst, kind, now);
                assert_eq!(got, want, "{ctx} step {step}: {src}->{dst} {kind:?}");
            }
        }
    }

    // End-of-sequence state equivalence, both directions.
    assert_eq!(soa.hits(), aos.hits(), "{ctx}: hit counter");
    assert_eq!(soa.misses(), aos.misses(), "{ctx}: miss counter");
    let mut got: Vec<(u64, u64)> = (0..soa.num_sets())
        .flat_map(|s| soa.set_ways(s).collect::<Vec<_>>())
        .map(|(b, stamp)| (b.index(), stamp))
        .collect();
    got.sort_unstable();
    assert_eq!(got, aos.resident(), "{ctx}: resident (block, stamp) pairs");
    soa.audit()
        .unwrap_or_else(|e| panic!("{ctx}: cache audit: {e}"));
    assert_stats_eq(fab.stats(), &rfab.stats, ctx);
    assert_vc_multisets_eq(&fab, &rfab, ctx);
    fab.audit()
        .unwrap_or_else(|e| panic!("{ctx}: fabric audit: {e}"));
    (evictions, fab.stats().contention_cycles)
}

fn lockstep_protocol(proto: ProtocolKind, salt: u64) {
    let mix = mix_for(&proto);
    let (mut evictions, mut contention) = (0u64, 0u64);
    for case in 0..SEQUENCES {
        let mut rng = case_rng(salt, case);
        let ctx = format!("{proto:?} case {case}");
        let (e, c) = lockstep_sequence(&mut rng, &mix, &ctx);
        evictions += e;
        contention += c;
    }
    // The traffic must genuinely evict and contend, or the lockstep is
    // only checking the easy paths.
    assert!(evictions > 0, "{proto:?}: no sequence ever evicted");
    assert!(contention > 0, "{proto:?}: no sequence ever contended");
}

#[test]
fn lockstep_directory_traffic() {
    lockstep_protocol(ProtocolKind::Directory, 1);
}

#[test]
fn lockstep_broadcast_traffic() {
    lockstep_protocol(ProtocolKind::Broadcast, 2);
}

#[test]
fn lockstep_sp_predicted_traffic() {
    lockstep_protocol(ProtocolKind::Predicted(PredictorKind::sp_default()), 3);
}

#[test]
fn lockstep_uni_predicted_traffic() {
    lockstep_protocol(ProtocolKind::Predicted(PredictorKind::Uni), 4);
}

/// The paper-geometry caches (16 KB direct-mapped L1, 1 MB 8-way L2) agree
/// with the reference on a long mixed stream — the exact configurations
/// the machine instantiates per tile.
#[test]
fn paper_geometry_long_stream_agrees() {
    for (salt, cfg) in [(10u64, CacheConfig::l1_16kb()), (11, CacheConfig::l2_1mb())] {
        let mut rng = case_rng(90, salt);
        let mut soa: SetAssocCache<u64> = SetAssocCache::new(cfg);
        let mut aos: RefCache<u64> = RefCache::new(cfg);
        // A universe twice the line count keeps sets churning.
        let universe = cfg.num_lines() as u64 * 2;
        for step in 0..60_000 {
            let b = BlockAddr::from_index(rng.range(0, universe));
            match rng.index(3) {
                0 => {
                    let payload = rng.range(0, 1 << 20);
                    assert_eq!(
                        soa.insert(b, payload),
                        aos.insert(b, payload),
                        "step {step}"
                    );
                }
                1 => {
                    assert_eq!(
                        soa.lookup(b).map(|p| *p),
                        aos.lookup(b).map(|p| *p),
                        "step {step}"
                    );
                }
                _ => {
                    assert_eq!(soa.invalidate(b), aos.invalidate(b), "step {step}");
                }
            }
        }
        assert_eq!(soa.hits(), aos.hits());
        assert_eq!(soa.misses(), aos.misses());
        assert_eq!(soa.len(), aos.len());
        soa.audit().expect("cache audit");
    }
}

// ---------------------------------------------------------------------------
// Fan-out / fan-in batching
// ---------------------------------------------------------------------------

/// One random unicast on both fabrics, arrival compared.
fn lockstep_send(rng: &mut DetRng, fab: &mut Fabric, rfab: &mut RefFabric, now: Cycle, ctx: &str) {
    let nodes = fab.config().nodes();
    let src = CoreId::new(rng.index(nodes));
    let dst = CoreId::new(rng.index(nodes));
    let kind = *rng.pick(&[MsgKind::Request, MsgKind::DataResponse, MsgKind::SnoopProbe]);
    let got = fab.send(src, dst, kind, now);
    let want = rfab.send(src, dst, kind, now);
    assert_eq!(got, want, "{ctx}: send {src}->{dst} {kind:?}");
}

/// A random target set of one of the shapes the protocols produce: empty,
/// just the source, random (with or without the source), or every node.
fn target_set(rng: &mut DetRng, nodes: usize, src: CoreId) -> CoreSet {
    let all = CoreSet::all(nodes);
    match rng.index(5) {
        0 => CoreSet::empty(),
        1 => CoreSet::single(src),
        2 => CoreSet::from_bits(rng.range(0, u64::MAX) & all.bits()),
        3 => CoreSet::from_bits(rng.range(0, u64::MAX) & all.bits()).union(CoreSet::single(src)),
        _ => all,
    }
}

/// `fanout` against one reference `send` per target in ascending core
/// order, and `fanin_untimed` against a `send_untimed` loop, on warmed
/// fabrics (random unicasts first, so the VC slots hold arbitrary
/// states), across the paper and 64-core geometries, rectangular and
/// one-dimensional meshes, every VC count and both contention modes:
/// every arrival, every `NocStats` field and every link's multiset of VC
/// free times must agree. Unicasts interleaved after each burst read the
/// slot state the burst left behind.
#[test]
fn fanout_and_fanin_match_per_message_sends() {
    let geometries = [(4usize, 4usize), (8, 8), (5, 3), (1, 8), (8, 1)];
    let mut contended = 0u64;
    for case in 0..SEQUENCES {
        let mut rng = case_rng(20, case);
        let (width, height) = *rng.pick(&geometries);
        let cfg = NocConfig {
            width,
            height,
            virtual_channels: *rng.pick(&[1usize, 2, 4, 8]),
            model_contention: case % 2 == 0,
            ..NocConfig::default()
        };
        let ctx = format!(
            "case {case} ({width}x{height}, {} VCs, contention {})",
            cfg.virtual_channels, cfg.model_contention
        );
        let nodes = cfg.nodes();
        let mut fab = Fabric::new(cfg.clone());
        let mut rfab = RefFabric::new(cfg);
        let mut now = Cycle::ZERO;
        for _ in 0..rng.range(0, 120) {
            now += rng.range(0, 3);
            lockstep_send(&mut rng, &mut fab, &mut rfab, now, &ctx);
        }
        for round in 0..rng.range(1, 6) {
            let ctx = format!("{ctx} round {round}");
            now += rng.range(0, 8);
            let src = CoreId::new(rng.index(nodes));
            let targets = target_set(&mut rng, nodes, src);
            let kind = *rng.pick(&[MsgKind::SnoopProbe, MsgKind::DataResponse]);
            let mut got = Vec::new();
            fab.fanout(src, targets, kind, now, |d, t| got.push((d, t)));
            let want: Vec<(CoreId, Cycle)> = targets
                .iter()
                .map(|d| (d, rfab.send(src, d, kind, now)))
                .collect();
            assert_eq!(got, want, "{ctx}: fanout {src} -> {targets:?} {kind:?}");
            assert_stats_eq(fab.stats(), &rfab.stats, &ctx);
            assert_vc_multisets_eq(&fab, &rfab, &ctx);
            fab.audit()
                .unwrap_or_else(|e| panic!("{ctx}: fabric audit: {e}"));

            let dst = CoreId::new(rng.index(nodes));
            let sources = target_set(&mut rng, nodes, dst);
            let kind = *rng.pick(&[MsgKind::SnoopResponse, MsgKind::DataResponse]);
            fab.fanin_untimed(sources, dst, kind);
            for s in sources.iter() {
                rfab.send_untimed(s, dst, kind);
            }
            assert_stats_eq(fab.stats(), &rfab.stats, &format!("{ctx} fanin"));

            for _ in 0..rng.range(0, 20) {
                lockstep_send(&mut rng, &mut fab, &mut rfab, now, &ctx);
            }
        }
        assert_stats_eq(fab.stats(), &rfab.stats, &ctx);
        fab.audit()
            .unwrap_or_else(|e| panic!("{ctx}: fabric audit: {e}"));
        contended += fab.stats().contention_cycles;
    }
    assert!(contended > 0, "no fan-out case ever contended");
}
