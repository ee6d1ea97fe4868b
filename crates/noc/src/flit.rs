//! A flit-level, cycle-stepped router network.
//!
//! The main simulator uses the transaction-level timing of [`crate::Fabric`]
//! (head-latency pipeline + virtual-channel link reservation). This module
//! provides the detailed counterpart: input-buffered routers stepped cycle
//! by cycle, with per-flit wormhole switching, credit-free bounded buffers
//! and round-robin output arbitration. It serves two purposes:
//!
//! 1. **validation** — under light load the two models must agree on
//!    latency (tests in this module and the `noc_saturation` experiment,
//!    `spcp exp noc_saturation`, check that);
//! 2. **network evaluation** — offered-load vs. latency saturation curves,
//!    the standard NoC characterization.
//!
//! The model is intentionally classic: X-Y dimension-ordered routing (so it
//! is deadlock-free on a mesh), one flit per link per cycle, wormhole
//! allocation in which a packet holds an output port from head to tail.
//!
//! # Examples
//!
//! ```
//! use spcp_noc::flit::FlitNetwork;
//! use spcp_noc::NocConfig;
//! use spcp_sim::CoreId;
//!
//! let mut net = FlitNetwork::new(&NocConfig::default());
//! net.inject(CoreId::new(0), CoreId::new(5), 5, 0);
//! let mut delivered = Vec::new();
//! for _ in 0..100 {
//!     net.step(&mut delivered);
//! }
//! assert_eq!(delivered.len(), 1);
//! ```

use crate::mesh::{Coord, Mesh};
use crate::NocConfig;
use spcp_sim::CoreId;
use std::collections::VecDeque;

/// A delivered packet: id, destination, injection and arrival cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Caller-supplied packet id.
    pub id: u64,
    /// Destination core.
    pub dst: CoreId,
    /// Cycle the head flit was injected.
    pub injected_at: u64,
    /// Cycle the tail flit left the network.
    pub delivered_at: u64,
}

impl Delivery {
    /// End-to-end packet latency in cycles.
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }
}

/// One flit in flight.
#[derive(Debug, Clone, Copy)]
struct Flit {
    packet: u64,
    dst: usize,
    is_tail: bool,
    injected_at: u64,
}

/// Output directions of a router: E, W, N, S, local ejection.
const PORTS: usize = 5;
const LOCAL: usize = 4;

/// One router: an input queue per port plus wormhole output locks.
#[derive(Debug)]
struct Router {
    /// Input buffers, one per input port (E, W, N, S, injection).
    inputs: [VecDeque<Flit>; PORTS],
    /// Which input port currently owns each output port (wormhole lock),
    /// until that packet's tail passes.
    output_owner: [Option<usize>; PORTS],
    /// Round-robin arbitration pointer per output port.
    rr: [usize; PORTS],
}

impl Router {
    fn new(capacity: usize) -> Self {
        Router {
            inputs: std::array::from_fn(|_| VecDeque::with_capacity(capacity)),
            output_owner: [None; PORTS],
            rr: [0; PORTS],
        }
    }
}

/// The cycle-stepped network.
#[derive(Debug)]
pub struct FlitNetwork {
    mesh: Mesh,
    routers: Vec<Router>,
    buffer_capacity: usize,
    cycle: u64,
    next_packet: u64,
    in_flight: usize,
}

impl FlitNetwork {
    /// Builds the network for the mesh described by `cfg`, with input
    /// buffers of 8 flits.
    pub fn new(cfg: &NocConfig) -> Self {
        let mesh = Mesh::new(cfg.width, cfg.height);
        let n = mesh.nodes();
        FlitNetwork {
            mesh,
            routers: (0..n).map(|_| Router::new(8)).collect(),
            buffer_capacity: 8,
            cycle: 0,
            next_packet: 0,
            in_flight: 0,
        }
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets injected but not yet fully delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The output port a flit at `node` takes toward `dst` (X then Y).
    fn route_port(&self, node: usize, dst: usize) -> usize {
        let cur = self.mesh.coord_of(CoreId::new(node));
        let goal = self.mesh.coord_of(CoreId::new(dst));
        if cur.x < goal.x {
            0 // east
        } else if cur.x > goal.x {
            1 // west
        } else if cur.y < goal.y {
            2 // north
        } else if cur.y > goal.y {
            3 // south
        } else {
            LOCAL
        }
    }

    fn neighbor(&self, node: usize, port: usize) -> usize {
        let Coord { x, y } = self.mesh.coord_of(CoreId::new(node));
        let c = match port {
            0 => Coord { x: x + 1, y },
            1 => Coord { x: x - 1, y },
            2 => Coord { x, y: y + 1 },
            3 => Coord { x, y: y - 1 },
            _ => unreachable!("local port has no neighbour"),
        };
        self.mesh.core_at(c).index()
    }

    /// The input port of `to` that a flit arriving from `from` lands in
    /// (the reverse direction).
    fn arrival_port(&self, from: usize, to: usize) -> usize {
        let a = self.mesh.coord_of(CoreId::new(from));
        let b = self.mesh.coord_of(CoreId::new(to));
        if b.x > a.x {
            1 // arrived heading east -> lands in the west-side input
        } else if b.x < a.x {
            0
        } else if b.y > a.y {
            3
        } else {
            2
        }
    }

    /// Injects a `flits`-long packet, returning its id, or `None` when the
    /// source router's injection buffer lacks space for the whole packet.
    pub fn inject(&mut self, src: CoreId, dst: CoreId, flits: u64, id: u64) -> Option<u64> {
        assert!(flits >= 1, "a packet has at least one flit");
        let buf = &mut self.routers[src.index()].inputs[LOCAL];
        if buf.len() + flits as usize > self.buffer_capacity.max(flits as usize) {
            // Allow oversize packets to enter an empty buffer so large
            // payloads are representable; otherwise require space.
            if !buf.is_empty() {
                return None;
            }
        }
        let _ = id;
        let packet = self.next_packet;
        self.next_packet += 1;
        for i in 0..flits {
            buf.push_back(Flit {
                packet,
                dst: dst.index(),
                is_tail: i + 1 == flits,
                injected_at: self.cycle,
            });
        }
        self.in_flight += 1;
        Some(packet)
    }

    /// Advances one cycle: every router moves at most one flit per output
    /// port. Completed packets are appended to `delivered`.
    pub fn step(&mut self, delivered: &mut Vec<Delivery>) {
        let n = self.routers.len();
        // Collect moves first (router, input port, output port) so a flit
        // moves at most one hop per cycle.
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        for r in 0..n {
            let router = &self.routers[r];
            for out in 0..PORTS {
                // Wormhole: if an input owns this output, it goes next.
                let candidates: Vec<usize> = match router.output_owner[out] {
                    Some(owner) => vec![owner],
                    None => (0..PORTS).map(|i| (router.rr[out] + i) % PORTS).collect(),
                };
                for input in candidates {
                    let Some(flit) = router.inputs[input].front() else {
                        continue;
                    };
                    if self.route_port(r, flit.dst) != out {
                        continue;
                    }
                    // Downstream must have buffer space (except ejection).
                    if out != LOCAL {
                        let next = self.neighbor(r, out);
                        let in_port = self.arrival_port(r, next);
                        if self.routers[next].inputs[in_port].len() >= self.buffer_capacity {
                            continue;
                        }
                    }
                    moves.push((r, input, out));
                    break;
                }
            }
        }

        for (r, input, out) in moves {
            let flit = self.routers[r].inputs[input]
                .pop_front()
                .expect("move was computed from a non-empty buffer");
            // Maintain the wormhole lock.
            self.routers[r].output_owner[out] = if flit.is_tail { None } else { Some(input) };
            self.routers[r].rr[out] = (input + 1) % PORTS;
            if out == LOCAL {
                if flit.is_tail {
                    self.in_flight -= 1;
                    delivered.push(Delivery {
                        id: flit.packet,
                        dst: CoreId::new(r),
                        injected_at: flit.injected_at,
                        delivered_at: self.cycle + 1,
                    });
                }
            } else {
                let next = self.neighbor(r, out);
                let in_port = self.arrival_port(r, next);
                self.routers[next].inputs[in_port].push_back(flit);
            }
        }
        self.cycle += 1;
    }

    /// Runs until the network drains or `max_cycles` pass, returning all
    /// deliveries.
    pub fn drain(&mut self, max_cycles: u64) -> Vec<Delivery> {
        let mut delivered = Vec::new();
        let deadline = self.cycle + max_cycles;
        while self.in_flight > 0 && self.cycle < deadline {
            self.step(&mut delivered);
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> FlitNetwork {
        FlitNetwork::new(&NocConfig::default())
    }

    #[test]
    fn single_packet_reaches_destination() {
        let mut n = net();
        n.inject(CoreId::new(0), CoreId::new(15), 1, 0).unwrap();
        let d = n.drain(1000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dst, CoreId::new(15));
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn latency_grows_with_distance() {
        // One hop vs corner-to-corner, single-flit packets, empty network.
        let mut a = net();
        a.inject(CoreId::new(0), CoreId::new(1), 1, 0).unwrap();
        let near = a.drain(1000)[0].latency();
        let mut b = net();
        b.inject(CoreId::new(0), CoreId::new(15), 1, 0).unwrap();
        let far = b.drain(1000)[0].latency();
        assert!(far > near);
        // X-Y on 6 hops: one router traversal per hop plus ejection.
        assert_eq!(far - near, 5, "per-hop cost is one cycle in this model");
    }

    #[test]
    fn multi_flit_packet_adds_serialization() {
        let mut a = net();
        a.inject(CoreId::new(0), CoreId::new(3), 1, 0).unwrap();
        let one = a.drain(1000)[0].latency();
        let mut b = net();
        b.inject(CoreId::new(0), CoreId::new(3), 5, 0).unwrap();
        let five = b.drain(1000)[0].latency();
        assert_eq!(five - one, 4, "tail trails the head by flits-1 cycles");
    }

    #[test]
    fn local_delivery_works() {
        let mut n = net();
        n.inject(CoreId::new(4), CoreId::new(4), 3, 0).unwrap();
        let d = n.drain(100);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dst, CoreId::new(4));
    }

    #[test]
    fn contending_packets_share_a_link_fairly() {
        // Two packets from different sources converge on the same column
        // path; both must still arrive.
        let mut n = net();
        n.inject(CoreId::new(0), CoreId::new(12), 4, 0).unwrap();
        n.inject(CoreId::new(1), CoreId::new(12), 4, 1).unwrap();
        let d = n.drain(1000);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn wormhole_keeps_packets_contiguous() {
        // Many same-destination packets: deliveries happen tail-by-tail,
        // and every packet completes exactly once.
        let mut n = net();
        for i in 0..4 {
            n.inject(CoreId::new(i), CoreId::new(10), 3, i as u64)
                .unwrap();
        }
        let d = n.drain(10_000);
        assert_eq!(d.len(), 4);
        let mut ids: Vec<u64> = d.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn injection_backpressure_refuses_when_full() {
        let mut n = net();
        // Fill the injection buffer with an 8-flit packet, then refuse.
        n.inject(CoreId::new(0), CoreId::new(15), 8, 0).unwrap();
        assert!(n.inject(CoreId::new(0), CoreId::new(15), 4, 1).is_none());
        // After draining, injection works again.
        n.drain(10_000);
        assert!(n.inject(CoreId::new(0), CoreId::new(15), 4, 2).is_some());
    }

    #[test]
    fn heavy_random_load_eventually_drains() {
        let mut n = net();
        let mut injected = 0u64;
        let mut delivered = Vec::new();
        for round in 0..200u64 {
            for src in 0..16 {
                let dst = (src * 7 + round as usize) % 16;
                if src != dst
                    && n.inject(CoreId::new(src), CoreId::new(dst), 2, injected)
                        .is_some()
                {
                    injected += 1;
                }
            }
            n.step(&mut delivered);
        }
        delivered.extend(n.drain(100_000));
        assert_eq!(delivered.len() as u64, injected, "no packet may be lost");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn xy_routing_is_deadlock_free_under_saturation() {
        // Saturate every node toward the opposite corner and ensure the
        // network still drains (dimension-ordered routing on a mesh cannot
        // deadlock).
        let mut n = net();
        let mut id = 0;
        for _ in 0..50 {
            for src in 0..16 {
                let dst = 15 - src;
                if src != dst {
                    n.inject(CoreId::new(src), CoreId::new(dst), 4, id);
                    id += 1;
                }
            }
            let mut sink = Vec::new();
            n.step(&mut sink);
        }
        n.drain(1_000_000);
        assert_eq!(n.in_flight(), 0, "network must drain — deadlock otherwise");
    }
}
