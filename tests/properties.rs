//! Randomized property tests on the core data structures and invariants,
//! cross-checked against simple reference models.
//!
//! Inputs are driven by the workspace's own deterministic PRNG
//! (`spcp::sim::DetRng`), so the suite runs fully offline and every case is
//! reproducible from its printed case number.

use spcp::harness::frame;
use spcp::mem::{BlockAddr, CacheConfig, DirEntry, Directory, SetAssocCache, BLOCK_BYTES};
use spcp::noc::{Coord, Mesh};
use spcp::predict::CommCounters;
use spcp::sim::{CoreId, CoreSet, Cycle, DetRng, ReadyQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod common;
use common::RefCache;

/// Cases per randomized test.
const CASES: u64 = 64;
const PROP_SEED: u64 = 0x9d0b_5eed;

fn case_rng(test_salt: u64, case: u64) -> DetRng {
    DetRng::seeded(PROP_SEED ^ test_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

/// An arbitrary 64-bit value (both halves uniform).
fn any_u64(rng: &mut DetRng) -> u64 {
    (rng.range(0, 1 << 32) << 32) | rng.range(0, 1 << 32)
}

// ---------------- CoreSet algebra ----------------

#[test]
fn coreset_union_superset_of_both() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let (sa, sb) = (
            CoreSet::from_bits(any_u64(&mut rng)),
            CoreSet::from_bits(any_u64(&mut rng)),
        );
        let u = sa.union(sb);
        assert!(u.is_superset(sa), "case {case}");
        assert!(u.is_superset(sb), "case {case}");
        assert_eq!(u, sb.union(sa), "case {case}");
    }
}

#[test]
fn coreset_intersect_subset_of_both() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let (sa, sb) = (
            CoreSet::from_bits(any_u64(&mut rng)),
            CoreSet::from_bits(any_u64(&mut rng)),
        );
        let i = sa.intersect(sb);
        assert!(sa.is_superset(i), "case {case}");
        assert!(sb.is_superset(i), "case {case}");
    }
}

#[test]
fn coreset_len_matches_iteration() {
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let s = CoreSet::from_bits(any_u64(&mut rng));
        assert_eq!(s.len(), s.iter().count(), "case {case}");
        // Round trip through the iterator.
        let rebuilt: CoreSet = s.iter().collect();
        assert_eq!(rebuilt, s, "case {case}");
    }
}

#[test]
fn coreset_difference_disjoint_from_subtrahend() {
    for case in 0..CASES {
        let mut rng = case_rng(13, case);
        let (a, b) = (any_u64(&mut rng), any_u64(&mut rng));
        let d = CoreSet::from_bits(a).difference(CoreSet::from_bits(b));
        assert!(d.intersect(CoreSet::from_bits(b)).is_empty(), "case {case}");
    }
}

// ---------------- Ready queue ----------------

#[test]
fn ready_queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = case_rng(20, case);
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range(0, 1000)).collect();
        let mut q = ReadyQueue::new(n);
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle::new(t), i);
        }
        let mut last = Cycle::ZERO;
        let mut popped = 0;
        while let Some((t, id)) = q.pop() {
            assert!(t >= last, "case {case}");
            assert_eq!(t, Cycle::new(times[id]), "case {case}");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len(), "case {case}");
    }
}

#[test]
fn ready_queue_equal_times_fifo() {
    for case in 0..CASES {
        let mut rng = case_rng(21, case);
        let n = rng.range(1, 100) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut q = ReadyQueue::new(n);
        for &id in &order {
            q.push(Cycle::new(42), id);
        }
        for &id in &order {
            assert_eq!(q.pop().map(|(_, x)| x), Some(id), "case {case}");
        }
        assert_eq!(q.pop(), None, "case {case}");
    }
}

/// The tournament tree against a binary heap keyed by `(time, push seq)`,
/// the order the simulator's run loop has always popped in: random
/// interleavings of pushes and pops with at most one pending entry per id,
/// wake-up times drawn from a narrow window so equal-time ties are common,
/// and the run loop's pop-then-push-the-same-id pattern.
#[test]
fn ready_queue_matches_heap_model_in_lockstep() {
    for n in [1usize, 2, 3, 16, 17, 64] {
        for case in 0..CASES {
            let mut rng = case_rng(22 ^ ((n as u64) << 8), case);
            let mut q = ReadyQueue::new(n);
            let mut model: BinaryHeap<Reverse<(Cycle, u64, usize)>> = BinaryHeap::new();
            let mut pending = vec![false; n];
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut push = |q: &mut ReadyQueue,
                            model: &mut BinaryHeap<Reverse<(Cycle, u64, usize)>>,
                            pending: &mut [bool],
                            id: usize,
                            t: Cycle| {
                q.push(t, id);
                model.push(Reverse((t, seq, id)));
                seq += 1;
                pending[id] = true;
            };
            for step in 0..rng.range(1, 400) {
                let idle: Vec<usize> = (0..n).filter(|&i| !pending[i]).collect();
                if !idle.is_empty() && (model.is_empty() || rng.chance(0.5)) {
                    let id = *rng.pick(&idle);
                    let t = Cycle::new(now + rng.range(0, 4));
                    push(&mut q, &mut model, &mut pending, id, t);
                } else {
                    let got = q.pop();
                    let want = model.pop().map(|Reverse((t, _, id))| (t, id));
                    assert_eq!(got, want, "n {n} case {case} step {step}");
                    let Some((t, id)) = got else { continue };
                    pending[id] = false;
                    now = t.as_u64();
                    if rng.chance(0.6) {
                        let again = Cycle::new(now + rng.range(0, 3));
                        push(&mut q, &mut model, &mut pending, id, again);
                    }
                }
                assert_eq!(q.len(), model.len(), "n {n} case {case} step {step}");
            }
            while let Some(Reverse((t, _, id))) = model.pop() {
                assert_eq!(q.pop(), Some((t, id)), "n {n} case {case} drain");
            }
            assert_eq!(q.pop(), None, "n {n} case {case}");
        }
    }
}

// ---------------- Mesh routing ----------------

#[test]
fn mesh_route_reaches_destination() {
    for case in 0..CASES {
        let mut rng = case_rng(30, case);
        let w = rng.range(1, 6) as usize;
        let h = rng.range(1, 6) as usize;
        let mesh = Mesh::new(w, h);
        let n = mesh.nodes();
        let src = CoreId::new(rng.index(n));
        let dst = CoreId::new(rng.index(n));
        let route = mesh.route(src, dst);
        assert_eq!(route.len(), mesh.hops(src, dst), "case {case}");
        assert_eq!(mesh.hops(src, dst), mesh.hops(dst, src), "case {case}");
    }
}

#[test]
fn mesh_hops_triangle_inequality() {
    for case in 0..CASES {
        let mut rng = case_rng(31, case);
        let mesh = Mesh::new(4, 4);
        let a = CoreId::new(rng.index(16));
        let b = CoreId::new(rng.index(16));
        let c = CoreId::new(rng.index(16));
        assert!(
            mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c),
            "case {case}"
        );
    }
}

#[test]
fn mesh_coordinate_table_matches_row_major_numbering() {
    for (w, h) in [(4, 4), (8, 8), (5, 3), (1, 8), (8, 1)] {
        let mesh = Mesh::new(w, h);
        for i in 0..w * h {
            let c = CoreId::new(i);
            let coord = mesh.coord_of(c);
            assert_eq!(coord, Coord { x: i % w, y: i / w }, "{w}x{h} node {i}");
            assert_eq!(mesh.core_at(coord), c, "{w}x{h} node {i}");
            for j in 0..w * h {
                let manhattan = (i % w).abs_diff(j % w) + (i / w).abs_diff(j / w);
                assert_eq!(mesh.hops(c, CoreId::new(j)), manhattan, "{w}x{h} {i}->{j}");
            }
        }
    }
}

// ---------------- Directory home striping ----------------

#[test]
fn directory_home_matches_block_interleaving() {
    for tiles in [16usize, 64, 12] {
        let dir = Directory::new(tiles);
        for case in 0..CASES {
            let mut rng = case_rng(35 ^ tiles as u64, case);
            for _ in 0..64 {
                let raw = if rng.chance(0.5) {
                    rng.range(0, 4096)
                } else {
                    any_u64(&mut rng) >> rng.range(0, 58)
                };
                let b = BlockAddr::from_index(raw);
                assert_eq!(dir.home_of(b), b.home(tiles), "{tiles} tiles, block {raw}");
            }
        }
    }
}

// ---------------- Set-associative cache vs reference model ----------------

#[test]
fn cache_agrees_with_reference_lru() {
    for case in 0..CASES {
        let mut rng = case_rng(40, case);
        let n_ops = rng.range(1, 300) as usize;
        // 2-way, 4-set cache against a per-set reference LRU list.
        let cfg = CacheConfig {
            size_bytes: 8 * BLOCK_BYTES,
            assoc: 2,
            block_bytes: BLOCK_BYTES,
            tag_cycles: 1,
            data_cycles: 1,
        };
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(cfg);
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); 4]; // MRU at back
        for _ in 0..n_ops {
            let block = rng.range(0, 64);
            let is_insert = rng.chance(0.5);
            let set = (block % 4) as usize;
            let b = BlockAddr::from_index(block);
            if is_insert {
                cache.insert(b, block);
                let r = &mut reference[set];
                if let Some(pos) = r.iter().position(|&x| x == block) {
                    r.remove(pos);
                } else if r.len() == 2 {
                    r.remove(0); // evict LRU
                }
                r.push(block);
            } else {
                let hit = cache.lookup(b).is_some();
                let r = &mut reference[set];
                let ref_hit = r.contains(&block);
                assert_eq!(hit, ref_hit, "case {case} block {block}");
                if let Some(pos) = r.iter().position(|&x| x == block) {
                    let v = r.remove(pos);
                    r.push(v); // refresh recency
                }
            }
        }
        // Final contents agree.
        let mut got: Vec<u64> = cache.iter().map(|(b, _)| b.index()).collect();
        let mut want: Vec<u64> = reference.into_iter().flatten().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

// ---------------- Cache LRU invariants (SoA and reference) ----------------
//
// The same three invariants are checked against the SoA `SetAssocCache`
// (through its `set_ways` introspection) and the pre-SoA reference model
// (`tests/common/mod.rs`) independently, so a violation pinpoints which
// implementation drifted.

/// A small random geometry plus an op stream applied to both caches.
fn churned_pair(rng: &mut DetRng, ops: usize) -> (SetAssocCache<u64>, RefCache<u64>) {
    let assoc = *rng.pick(&[1usize, 2, 4, 8]);
    let sets = *rng.pick(&[2usize, 3, 4, 8]);
    let cfg = CacheConfig {
        size_bytes: (assoc * sets) as u64 * BLOCK_BYTES,
        assoc,
        block_bytes: BLOCK_BYTES,
        tag_cycles: 1,
        data_cycles: 1,
    };
    let mut soa: SetAssocCache<u64> = SetAssocCache::new(cfg);
    let mut aos: RefCache<u64> = RefCache::new(cfg);
    let universe = (assoc * sets) as u64 * 3;
    for _ in 0..ops {
        let b = BlockAddr::from_index(rng.range(0, universe));
        match rng.index(3) {
            0 => {
                let v = rng.range(0, 1 << 20);
                soa.insert(b, v);
                aos.insert(b, v);
            }
            1 => {
                soa.lookup(b);
                aos.lookup(b);
            }
            _ => {
                soa.invalidate(b);
                aos.invalidate(b);
            }
        }
    }
    (soa, aos)
}

/// Sorting a set's ways by LRU stamp permutes exactly its resident ways:
/// stamps are pairwise distinct (the global clock ticks on every stamping
/// op) and the stamp-ordered list holds the same blocks, each once.
#[test]
fn cache_lru_order_is_permutation_of_resident_ways() {
    for case in 0..CASES {
        let mut rng = case_rng(41, case);
        let ops = rng.range(50, 400) as usize;
        let (soa, aos) = churned_pair(&mut rng, ops);
        let mut soa_total = 0;
        for set in 0..soa.num_sets() {
            let ways: Vec<(BlockAddr, u64)> = soa.set_ways(set).collect();
            soa_total += ways.len();
            let mut by_stamp = ways.clone();
            by_stamp.sort_by_key(|&(_, stamp)| stamp);
            let mut blocks: Vec<BlockAddr> = ways.iter().map(|&(b, _)| b).collect();
            let mut permuted: Vec<BlockAddr> = by_stamp.iter().map(|&(b, _)| b).collect();
            blocks.sort_by_key(|b| b.index());
            permuted.sort_by_key(|b| b.index());
            assert_eq!(blocks, permuted, "case {case} set {set}: permutation");
            for w in by_stamp.windows(2) {
                assert!(w[0].1 < w[1].1, "case {case} set {set}: stamp collision");
            }
        }
        assert_eq!(soa_total, soa.len(), "case {case}: occupancy");
        let mut aos_total = 0;
        for set in 0..aos.num_sets() {
            let mut ways = aos.set_ways(set);
            aos_total += ways.len();
            ways.sort_by_key(|&(_, stamp)| stamp);
            for w in ways.windows(2) {
                assert!(
                    w[0].1 < w[1].1,
                    "case {case} set {set}: ref stamp collision"
                );
            }
        }
        assert_eq!(aos_total, aos.len(), "case {case}: ref occupancy");
    }
}

/// When a full set takes a new block, the victim is always the resident
/// way with the oldest (minimum) LRU stamp.
#[test]
fn cache_eviction_selects_oldest_stamp() {
    for case in 0..CASES {
        let mut rng = case_rng(42, case);
        let warmup = rng.range(20, 200) as usize;
        let (mut soa, mut aos) = churned_pair(&mut rng, warmup);
        let universe = soa.num_sets() as u64 * soa.config().assoc as u64 * 3;
        let mut evictions = 0;
        for i in 0..200 {
            let b = BlockAddr::from_index(rng.range(0, universe));
            let assoc = soa.config().assoc;
            let set = soa.set_of(b);
            let ways: Vec<(BlockAddr, u64)> = soa.set_ways(set).collect();
            let expect_evict = ways.len() == assoc && !ways.iter().any(|&(w, _)| w == b);
            let oldest = ways
                .iter()
                .min_by_key(|&&(_, stamp)| stamp)
                .map(|&(w, _)| w);
            let ref_oldest = aos
                .set_ways(set)
                .into_iter()
                .min_by_key(|&(_, stamp)| stamp)
                .map(|(w, _)| BlockAddr::from_index(w));
            assert_eq!(oldest, ref_oldest, "case {case} insert {i}: oldest way");
            let v = rng.range(0, 1 << 20);
            let victim = soa.insert(b, v);
            let ref_victim = aos.insert(b, v);
            assert_eq!(victim, ref_victim, "case {case} insert {i}");
            if expect_evict {
                evictions += 1;
                assert_eq!(
                    victim.map(|(w, _)| w),
                    oldest,
                    "case {case} insert {i}: victim is not the oldest stamp"
                );
            }
        }
        assert!(evictions > 0, "case {case}: stream never filled a set");
    }
}

/// `lookup` — hit or miss — never changes which blocks are resident.
#[test]
fn cache_lookup_never_changes_occupancy() {
    for case in 0..CASES {
        let mut rng = case_rng(43, case);
        let warmup = rng.range(20, 300) as usize;
        let (mut soa, mut aos) = churned_pair(&mut rng, warmup);
        let universe = soa.num_sets() as u64 * soa.config().assoc as u64 * 3;
        for i in 0..100 {
            let b = BlockAddr::from_index(rng.range(0, universe));
            let before: Vec<(u64, u64)> = (0..soa.num_sets())
                .flat_map(|s| soa.set_ways(s).collect::<Vec<_>>())
                .map(|(blk, _)| (blk.index(), 0))
                .collect();
            let ref_before = aos.len();
            let hit = soa.lookup(b).is_some();
            let ref_hit = aos.lookup(b).is_some();
            assert_eq!(hit, ref_hit, "case {case} lookup {i}");
            let after: Vec<(u64, u64)> = (0..soa.num_sets())
                .flat_map(|s| soa.set_ways(s).collect::<Vec<_>>())
                .map(|(blk, _)| (blk.index(), 0))
                .collect();
            assert_eq!(before, after, "case {case} lookup {i}: resident set moved");
            assert_eq!(
                ref_before,
                aos.len(),
                "case {case} lookup {i}: ref occupancy"
            );
        }
        assert!(soa.audit().is_ok(), "case {case}");
    }
}

// ---------------- Reset equals fresh ----------------
//
// A machine reused across runs resets its caches, directory and fabric
// instead of rebuilding them. Each reset structure, driven by a second
// random stream, must answer exactly like a fresh one driven by the same
// stream.

/// One random cache operation: 0 insert, 1 lookup, 2 invalidate.
type CacheOp = (usize, BlockAddr, u64);

fn cache_ops(rng: &mut DetRng, universe: u64, n: usize) -> Vec<CacheOp> {
    (0..n)
        .map(|_| {
            let b = BlockAddr::from_index(rng.range(0, universe));
            (rng.index(3), b, rng.range(0, 1 << 20))
        })
        .collect()
}

/// Applies `op`, returning what the cache answered.
fn apply_cache_op(c: &mut SetAssocCache<u64>, &(kind, b, v): &CacheOp) -> Option<(u64, u64)> {
    match kind {
        0 => c.insert(b, v).map(|(w, old)| (w.index(), old)),
        1 => c.lookup(b).map(|p| (b.index(), *p)),
        _ => c.invalidate(b).map(|old| (b.index(), old)),
    }
}

#[test]
fn cache_reset_behaves_as_fresh() {
    for case in 0..CASES {
        let mut rng = case_rng(44, case);
        let assoc = *rng.pick(&[1usize, 2, 4, 8]);
        let sets = *rng.pick(&[2usize, 3, 4, 8]);
        let cfg = CacheConfig {
            size_bytes: (assoc * sets) as u64 * BLOCK_BYTES,
            assoc,
            block_bytes: BLOCK_BYTES,
            tag_cycles: 1,
            data_cycles: 1,
        };
        let universe = (assoc * sets) as u64 * 3;
        let (n1, n2) = (rng.range(0, 400) as usize, rng.range(1, 400) as usize);
        let first = cache_ops(&mut rng, universe, n1);
        let second = cache_ops(&mut rng, universe, n2);
        let mut reused: SetAssocCache<u64> = SetAssocCache::new(cfg);
        for op in &first {
            apply_cache_op(&mut reused, op);
        }
        reused.reset();
        let mut fresh: SetAssocCache<u64> = SetAssocCache::new(cfg);
        for (i, op) in second.iter().enumerate() {
            assert_eq!(
                apply_cache_op(&mut reused, op),
                apply_cache_op(&mut fresh, op),
                "case {case} op {i}: {op:?}"
            );
        }
        assert_eq!(reused.hits(), fresh.hits(), "case {case}: hits");
        assert_eq!(reused.misses(), fresh.misses(), "case {case}: misses");
        assert_eq!(reused.len(), fresh.len(), "case {case}: occupancy");
        for set in 0..sets {
            let got: Vec<(BlockAddr, u64)> = reused.set_ways(set).collect();
            let want: Vec<(BlockAddr, u64)> = fresh.set_ways(set).collect();
            assert_eq!(got, want, "case {case} set {set}: ways and stamps");
        }
        assert_eq!(reused.audit(), Ok(()), "case {case}: reused audit");
        assert_eq!(fresh.audit(), Ok(()), "case {case}: fresh audit");
    }
}

/// Applies one random directory update over `universe` blocks.
fn churn_directory(rng: &mut DetRng, dir: &mut Directory, universe: u64) -> (usize, u64, usize) {
    let op = (rng.index(4), rng.range(0, universe), rng.index(16));
    let (b, c) = (BlockAddr::from_index(op.1), CoreId::new(op.2));
    match op.0 {
        0 => dir.record_exclusive(b, c),
        1 => dir.record_shared(b, c),
        2 => dir.record_shared_no_forward(b, c),
        _ => dir.record_drop(b, c),
    }
    op
}

#[test]
fn directory_reset_behaves_as_fresh() {
    for case in 0..CASES {
        let mut rng = case_rng(45, case);
        // The first run spans up to ten times the blocks of the second, and
        // every other case drops all but a few blocks before the reset, so
        // the reset both keeps and replaces the table.
        let first_universe = rng.range(1, 2000);
        let universe = rng.range(1, 200);
        let mut reused = Directory::new(16);
        for _ in 0..rng.range(0, 3000) {
            churn_directory(&mut rng, &mut reused, first_universe);
        }
        if case % 2 == 1 {
            for b in (8..first_universe).map(BlockAddr::from_index) {
                for c in 0..16 {
                    reused.record_drop(b, CoreId::new(c));
                }
            }
        }
        reused.reset();
        assert_eq!(
            reused.tracked_blocks(),
            0,
            "case {case}: reset left entries"
        );
        let mut fresh = Directory::new(16);
        let mut second = rng.fork(1);
        let mut twin = second.clone();
        for i in 0..rng.range(1, 400) {
            let op = churn_directory(&mut second, &mut reused, universe);
            churn_directory(&mut twin, &mut fresh, universe);
            assert_eq!(
                reused.tracked_blocks(),
                fresh.tracked_blocks(),
                "case {case} op {i}: {op:?}"
            );
        }
        for b in (0..first_universe.max(universe)).map(BlockAddr::from_index) {
            assert_eq!(reused.entry(b), fresh.entry(b), "case {case}: {b}");
        }
        let sorted = |d: &Directory| {
            let mut v: Vec<(u64, DirEntry)> = d.iter().map(|(b, e)| (b.index(), *e)).collect();
            v.sort_unstable_by_key(|&(b, _)| b);
            v
        };
        assert_eq!(sorted(&reused), sorted(&fresh), "case {case}: entries");
    }
}

/// Sends one random message or snoop fan-out at a random time; returns
/// every arrival it produced.
fn churn_fabric(rng: &mut DetRng, f: &mut spcp::noc::Fabric, nodes: usize) -> Vec<(usize, u64)> {
    use spcp::noc::MsgKind;
    let src = CoreId::new(rng.index(nodes));
    let depart = Cycle::new(rng.range(0, 2_000));
    let kind = *rng.pick(&[
        MsgKind::Request,
        MsgKind::DataResponse,
        MsgKind::SnoopProbe,
        MsgKind::InvalidateAck,
    ]);
    if rng.chance(0.7) {
        let dst = CoreId::new(rng.index(nodes));
        vec![(dst.index(), f.send(src, dst, kind, depart).as_u64())]
    } else {
        let targets = CoreSet::from_bits(rng.range(0, 1 << nodes));
        let mut arrivals = Vec::new();
        f.fanout(src, targets, kind, depart, |d, t| {
            arrivals.push((d.index(), t.as_u64()))
        });
        arrivals
    }
}

#[test]
fn fabric_reset_behaves_as_fresh() {
    use spcp::noc::{Direction, Fabric, Link, NocConfig};
    for case in 0..CASES {
        let mut rng = case_rng(72, case);
        let cfg = NocConfig {
            width: rng.range(1, 5) as usize,
            height: rng.range(1, 5) as usize,
            virtual_channels: rng.range(1, 4) as usize,
            model_contention: rng.chance(0.8),
            ..NocConfig::default()
        };
        let nodes = cfg.nodes();
        let mut reused = Fabric::new(cfg.clone());
        for _ in 0..rng.range(0, 300) {
            churn_fabric(&mut rng, &mut reused, nodes);
        }
        reused.reset();
        let mut fresh = Fabric::new(cfg);
        let mut second = rng.fork(1);
        let mut twin = second.clone();
        for i in 0..rng.range(1, 300) {
            assert_eq!(
                churn_fabric(&mut second, &mut reused, nodes),
                churn_fabric(&mut twin, &mut fresh, nodes),
                "case {case} message {i}"
            );
        }
        for from in 0..nodes {
            for dir in [
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South,
            ] {
                let link = Link { from, dir };
                assert_eq!(
                    reused.vc_free_times(link),
                    fresh.vc_free_times(link),
                    "case {case}: {link:?}"
                );
            }
        }
        let (got, want) = (reused.stats(), fresh.stats());
        assert_eq!(got, want, "case {case}: NoC stats");
        assert_eq!(got.energy.to_bits(), want.energy.to_bits(), "case {case}");
        assert_eq!(reused.audit(), Ok(()), "case {case}: audit");
    }
}

// ---------------- Hot-set extraction ----------------

fn random_counters(rng: &mut DetRng, max_volume: u64) -> CommCounters {
    let mut c = CommCounters::new(16);
    for i in 0..16 {
        for _ in 0..rng.range(0, max_volume) {
            c.record(CoreId::new(i));
        }
    }
    c
}

#[test]
fn hot_set_members_meet_threshold() {
    for case in 0..CASES {
        let mut rng = case_rng(50, case);
        let c = random_counters(&mut rng, 200);
        let th = 0.01 + rng.unit() * 0.49;
        let hot = c.hot_set(th, None);
        let total = c.total();
        for core in hot.iter() {
            assert!(
                c.volume(core) as f64 >= (total as f64 * th).ceil().max(1.0) - 0.5,
                "case {case}: member below threshold"
            );
        }
        // Non-members are below threshold.
        for i in 0..16 {
            let core = CoreId::new(i);
            if !hot.contains(core) && total > 0 {
                assert!(
                    (c.volume(core) as u64) < ((total as f64 * th).ceil() as u64).max(1),
                    "case {case}"
                );
            }
        }
    }
}

#[test]
fn hot_set_cap_keeps_hottest() {
    for case in 0..CASES {
        let mut rng = case_rng(51, case);
        let c = random_counters(&mut rng, 100);
        let capped = c.hot_set(0.05, Some(2));
        assert!(capped.len() <= 2, "case {case}");
        let uncapped = c.hot_set(0.05, None);
        assert!(uncapped.is_superset(capped), "case {case}");
        // Every member of the capped set has volume >= every non-member of
        // the uncapped set that was dropped.
        for m in capped.iter() {
            for d in uncapped.difference(capped).iter() {
                assert!(c.volume(m) >= c.volume(d), "case {case}");
            }
        }
    }
}

#[test]
fn coverage_by_top_is_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(52, case);
        let c = random_counters(&mut rng, 100);
        let mut prev = 0.0;
        for k in 0..=16 {
            let cov = c.coverage_by_top(k);
            assert!(cov + 1e-12 >= prev, "case {case} k={k}");
            assert!((0.0..=1.0 + 1e-12).contains(&cov), "case {case} k={k}");
            prev = cov;
        }
        if c.total() > 0 {
            assert!((c.coverage_by_top(16) - 1.0).abs() < 1e-9, "case {case}");
        }
    }
}

// ---------------- Signature history ----------------

#[test]
fn sig_history_keeps_newest_d() {
    for case in 0..CASES {
        let mut rng = case_rng(60, case);
        let n = rng.range(1, 40) as usize;
        let sigs: Vec<u64> = (0..n).map(|_| rng.range(0, 0xFFFF)).collect();
        let d = rng.range(1, 5) as usize;
        let mut h = spcp::predict::SigHistory::new(d);
        for &s in &sigs {
            h.push(CoreSet::from_bits(s));
        }
        assert_eq!(h.len(), sigs.len().min(d), "case {case}");
        assert_eq!(
            h.newest(),
            Some(CoreSet::from_bits(*sigs.last().unwrap())),
            "case {case}"
        );
        if sigs.len() >= 2 && d >= 2 {
            assert_eq!(
                h.previous(),
                Some(CoreSet::from_bits(sigs[sigs.len() - 2])),
                "case {case}"
            );
        }
        // stable() is always a subset of the union of the history.
        if let Some(st) = h.stable() {
            assert!(h.union().is_superset(st), "case {case}");
        }
    }
}

#[test]
fn stride2_flag_matches_definition() {
    for case in 0..CASES {
        let mut rng = case_rng(61, case);
        let n = rng.range(3, 30) as usize;
        let sigs: Vec<u64> = (0..n).map(|_| rng.range(0, 16)).collect();
        let mut h = spcp::predict::SigHistory::new(2);
        let mut expected = false;
        for (i, &s) in sigs.iter().enumerate() {
            if i >= 2 {
                expected = s == sigs[i - 2] && s != sigs[i - 1];
            }
            h.push(CoreSet::from_bits(s));
        }
        assert_eq!(h.stride2_detected(), expected, "case {case}: {sigs:?}");
    }
}

// ---------------- NoC fabric ----------------

#[test]
fn fabric_latency_monotone_in_departure_without_contention() {
    use spcp::noc::{Fabric, MsgKind, NocConfig};
    for case in 0..CASES {
        let mut rng = case_rng(70, case);
        let src = rng.index(16);
        let dst = rng.index(16);
        let t1 = rng.range(0, 10_000);
        let dt = rng.range(0, 10_000);
        let mut f = Fabric::new(NocConfig {
            model_contention: false,
            ..NocConfig::default()
        });
        let a = f.send(
            CoreId::new(src),
            CoreId::new(dst),
            MsgKind::Request,
            Cycle::new(t1),
        );
        let b = f.send(
            CoreId::new(src),
            CoreId::new(dst),
            MsgKind::Request,
            Cycle::new(t1 + dt),
        );
        // Same route, later departure: arrival shifts by exactly dt.
        assert_eq!(b.as_u64() - a.as_u64(), dt, "case {case}");
        // And arrival never precedes departure.
        assert!(a.as_u64() >= t1, "case {case}");
    }
}

#[test]
fn fabric_accounting_is_additive() {
    use spcp::noc::{Fabric, MsgKind, NocConfig};
    for case in 0..CASES {
        let mut rng = case_rng(71, case);
        let n = rng.range(1, 60) as usize;
        let pairs: Vec<(usize, usize)> = (0..n).map(|_| (rng.index(16), rng.index(16))).collect();
        let mut f = Fabric::new(NocConfig::default());
        let mesh = Mesh::new(4, 4);
        let mut expected_hops = 0u64;
        for &(s, d) in &pairs {
            f.send(
                CoreId::new(s),
                CoreId::new(d),
                MsgKind::Request,
                Cycle::ZERO,
            );
            expected_hops += mesh.hops(CoreId::new(s), CoreId::new(d)) as u64;
        }
        let stats = f.stats();
        assert_eq!(stats.messages, pairs.len() as u64, "case {case}");
        assert_eq!(stats.byte_hops, 8 * expected_hops, "case {case}");
        assert_eq!(
            stats.ctrl_byte_hops, stats.byte_hops,
            "case {case}: requests are control-only"
        );
        // Energy: 5 units per byte-hop (link 1 + router 4).
        assert!(
            (stats.energy - 5.0 * stats.byte_hops as f64).abs() < 1e-6,
            "case {case}"
        );
    }
}

// ---------------- Trace analyzer vs raw event stream ----------------

#[test]
fn trace_analyzer_counts_match_stream() {
    use spcp::sync::SyncKind;
    use spcp::trace::{TraceAnalyzer, TraceEvent};
    for case in 0..CASES {
        let mut rng = case_rng(80, case);
        let n = rng.range(0, 200) as usize;
        let stream: Vec<TraceEvent> = (0..n)
            .map(|_| {
                let core = rng.index(8);
                let val = rng.range(0, 4);
                if rng.chance(0.5) {
                    TraceEvent::Sync {
                        core: CoreId::new(core),
                        kind: SyncKind::Barrier,
                        static_id: val as u32 + 1,
                        instance: 0,
                    }
                } else {
                    TraceEvent::Miss {
                        core: CoreId::new(core),
                        block: BlockAddr::from_index(val),
                        pc: 0,
                        kind: spcp::predict::AccessKind::Read,
                        targets: CoreSet::from_bits(val),
                    }
                }
            })
            .collect();
        let a = TraceAnalyzer::from_events(8, &stream);
        let misses = stream
            .iter()
            .filter(|e| matches!(e, TraceEvent::Miss { .. }))
            .count() as u64;
        let comm = stream.iter().filter(|e| e.is_communicating_miss()).count() as u64;
        let syncs = stream.len() as u64 - misses;
        assert_eq!(a.total_misses(), misses, "case {case}");
        assert_eq!(a.comm_misses(), comm, "case {case}");
        assert_eq!(a.epochs().len() as u64, syncs, "case {case}");
        // Attributed volume never exceeds total communication events.
        let attributed: u64 = a.epochs().iter().map(|e| e.total_volume()).sum();
        let total_targets: u64 = stream
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Miss { targets, .. } => Some(targets.len() as u64),
                _ => None,
            })
            .sum();
        assert!(attributed <= total_targets, "case {case}");
    }
}

// ---------------- Workload generation ----------------

#[test]
fn generation_deterministic_and_balanced() {
    for case in 0..8 {
        let mut rng = case_rng(90, case);
        let seed = any_u64(&mut rng);
        let spec = spcp::workloads::suite::x264();
        let a = spec.generate(16, seed);
        let b = spec.generate(16, seed);
        assert_eq!(a.threads(), b.threads(), "seed {seed}");
        // All threads observe the same barrier count.
        let barriers: Vec<usize> = a
            .threads()
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|o| {
                        matches!(o, spcp::workloads::Op::Sync(p)
                            if p.kind == spcp::sync::SyncKind::Barrier)
                    })
                    .count()
            })
            .collect();
        assert!(barriers.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
    }
}

// ---------------- Spool frame codec ----------------

/// A random frame payload: printable ASCII (never a newline — the encoder
/// rejects embedded newlines by contract), length 0..=40.
fn any_payload(rng: &mut DetRng) -> String {
    let len = rng.index(41);
    (0..len)
        .map(|_| char::from(rng.range(0x20, 0x7f) as u8))
        .collect()
}

/// A random valid frame stream plus its payloads.
fn any_stream(rng: &mut DetRng, max_frames: usize) -> (Vec<u8>, Vec<String>) {
    let n = rng.index(max_frames + 1);
    let payloads: Vec<String> = (0..n).map(|_| any_payload(rng)).collect();
    let stream = payloads
        .iter()
        .map(|p| frame::encode(p))
        .collect::<String>();
    (stream.into_bytes(), payloads)
}

#[test]
fn frame_encode_decode_round_trips() {
    for case in 0..CASES {
        let mut rng = case_rng(100, case);
        let payload = any_payload(&mut rng);
        let encoded = frame::encode(&payload);
        assert!(encoded.ends_with('\n'), "case {case}");
        let line = encoded.trim_end_matches('\n');
        assert_eq!(
            frame::decode_line(line.as_bytes()),
            Ok(payload.as_str()),
            "case {case}"
        );
    }
}

#[test]
fn frame_truncation_yields_exact_prefix() {
    for case in 0..CASES {
        let mut rng = case_rng(101, case);
        let (stream, payloads) = any_stream(&mut rng, 8);
        let cut = rng.index(stream.len() + 1);
        let decoded = frame::decode_stream(&stream[..cut]);
        // Complete frames before the cut decode exactly; the torn frame is
        // reported as a truncated tail, never misparsed or miscounted.
        assert!(decoded.payloads.len() <= payloads.len(), "case {case}");
        assert_eq!(
            decoded.payloads,
            payloads[..decoded.payloads.len()],
            "case {case}"
        );
        assert_eq!(
            decoded.rejected, 0,
            "case {case}: truncation is not corruption"
        );
        let consumed: usize = payloads[..decoded.payloads.len()]
            .iter()
            .map(|p| frame::encode(p).len())
            .sum();
        assert_eq!(decoded.truncated_tail, cut != consumed, "case {case}");
    }
}

#[test]
fn frame_bit_flips_never_misparse() {
    for case in 0..CASES {
        let mut rng = case_rng(102, case);
        let (mut stream, payloads) = any_stream(&mut rng, 6);
        if stream.is_empty() {
            continue;
        }
        let byte = rng.index(stream.len());
        let bit = rng.index(8);
        stream[byte] ^= 1 << bit;
        let decoded = frame::decode_stream(&stream);
        // Every payload that still decodes must be one of the originals:
        // a flip either leaves a frame untouched-equivalent or gets the
        // frame rejected — it never yields a novel payload.
        for p in &decoded.payloads {
            assert!(
                payloads.iter().any(|orig| orig == p),
                "case {case}: misparsed {p:?}"
            );
        }
        assert!(decoded.payloads.len() <= payloads.len(), "case {case}");
    }
}

#[test]
fn frame_concatenation_decodes_both_streams() {
    for case in 0..CASES {
        let mut rng = case_rng(103, case);
        let (a, pa) = any_stream(&mut rng, 5);
        let (b, pb) = any_stream(&mut rng, 5);
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let decoded = frame::decode_stream(&joined);
        let expected: Vec<String> = pa.iter().chain(&pb).cloned().collect();
        assert_eq!(decoded.payloads, expected, "case {case}");
        assert_eq!(decoded.rejected, 0, "case {case}");
        assert!(!decoded.truncated_tail, "case {case}");
    }
}
