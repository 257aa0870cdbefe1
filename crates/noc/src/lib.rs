//! A packet-level Network-on-Chip model.
//!
//! This models the OpenPiton-style P-Mesh interconnect the paper integrates
//! MAPLE into (Section 3.7): a grid of routers ([`Mesh`]) with
//! dimension-ordered XY routing, one cycle of latency per hop,
//! per-output-port serialization by packet size, and credit-based
//! backpressure between adjacent routers. For 256–1024 tiles a
//! [`Fabric`] puts MemPool-style clusters of tiles on single-cycle
//! [`Crossbar`]s in front of a grid with one router per cluster.
//!
//! [`Fabric`] is the one interconnect the SoC holds, flat or clustered:
//! it admits packets, draws the fault plane's drops and delays, and
//! queues final deliveries per tile. It is generic over its payload type
//! so the memory system, the cores and the MAPLE engines can all exchange
//! their own message enums through a single interconnect.
//!
//! # Observability
//!
//! [`Fabric::set_tracer`] attaches a [`maple_trace::Tracer`]; the fabric
//! then emits a hop event per router traversal and fault markers for
//! injected packet drops/delays. Tracing never alters routing or timing.
//!
//! # Example
//!
//! ```
//! use maple_noc::{Coord, Fabric, MeshConfig};
//! use maple_sim::Cycle;
//!
//! let mut noc: Fabric<&str> = Fabric::flat(MeshConfig::new(2, 2));
//! let src = Coord::new(0, 0);
//! let dst = Coord::new(1, 1);
//! noc.inject(Cycle(0), src, dst, 1, "ping").unwrap();
//! let mut now = Cycle(0);
//! loop {
//!     noc.tick(now);
//!     let got = noc.take_delivered(dst);
//!     if !got.is_empty() {
//!         assert_eq!(got, ["ping"]);
//!         break;
//!     }
//!     now += 1;
//! }
//! ```

#![deny(missing_docs)]

pub mod crossbar;
mod deliveries;
pub mod fabric;

pub use crossbar::{Crossbar, CrossbarConfig};
pub use fabric::{ClusterTopology, Fabric, NocFault, XbarFault};

use std::collections::VecDeque;

use maple_sim::stats::{Counter, Histogram};
use maple_sim::worklist::Worklist;
use maple_sim::Cycle;
use maple_trace::{TraceEvent, Tracer};

/// A router position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// Column, increasing eastward.
    pub x: u16,
    /// Row, increasing southward.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    ///
    /// Coordinates are 16-bit so kilotile fabrics (e.g. a 32×32 grid of
    /// 256 clusters) can never silently truncate a tile id the way the
    /// old 8-bit fields could.
    #[must_use]
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to `other`, i.e. the hop count under XY routing.
    #[must_use]
    pub fn hops_to(self, other: Coord) -> u64 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs() as u64;
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs() as u64;
        dx + dy
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Mesh dimensions and timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Number of columns.
    pub width: u16,
    /// Number of rows.
    pub height: u16,
    /// Cycles a packet spends traversing one hop (paper: 1).
    pub hop_latency: u64,
    /// Packets an input buffer can hold before backpressure.
    pub buffer_depth: usize,
}

/// Upper bound on router counts accepted at construction: generous for
/// the 1024-tile fabrics the scaling sweeps exercise, but small enough
/// to catch a garbage dimension (e.g. a truncated cast) immediately.
pub const MAX_NODES: usize = 64 * 1024;

impl MeshConfig {
    /// A mesh of `width` × `height` routers with the paper's default timing
    /// (1 cycle per hop, 8-deep input buffers).
    #[must_use]
    pub fn new(width: u16, height: u16) -> Self {
        debug_assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        debug_assert!(
            usize::from(width) * usize::from(height) <= MAX_NODES,
            "mesh of {width}x{height} routers exceeds MAX_NODES ({MAX_NODES})"
        );
        MeshConfig {
            width,
            height,
            hop_latency: 1,
            buffer_depth: 8,
        }
    }

    /// Overrides the per-hop latency. It must be at least one cycle:
    /// [`Mesh::new`] rejects zero, because a zero-latency hop would let a
    /// packet cross several routers in one tick, which the mesh's
    /// visit-each-busy-router-once tick does not model.
    #[must_use]
    pub fn with_hop_latency(mut self, cycles: u64) -> Self {
        self.hop_latency = cycles;
        self
    }

    /// Overrides the router input-buffer depth.
    #[must_use]
    pub fn with_buffer_depth(mut self, packets: usize) -> Self {
        self.buffer_depth = packets;
        self
    }

    /// Number of routers in the mesh.
    #[must_use]
    pub fn nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }
}

/// Error returned by an injection whose entry buffer is full.
///
/// The payload is handed back so the caller can retry next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure<T>(pub T);

impl<T> std::fmt::Display for Backpressure<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "network injection refused: local buffer full")
    }
}

impl<T: std::fmt::Debug> std::error::Error for Backpressure<T> {}

/// Aggregate interconnect statistics: a [`Fabric`]'s end to end, or one
/// [`Mesh`]'s own (which never drops or delays).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Packets injected successfully.
    pub injected: Counter,
    /// Packets delivered to their destination.
    pub delivered: Counter,
    /// Total hops traversed by delivered packets.
    pub hops: Counter,
    /// End-to-end latency (inject to deliver) of delivered packets.
    pub latency: Histogram,
    /// Packets dropped by the fault plane (counted as injected, never
    /// delivered).
    pub dropped: Counter,
    /// Packets held back by the fault plane's extra-delay schedule.
    pub delayed: Counter,
}

const PORTS: usize = 5;
const LOCAL: usize = 0;
const NORTH: usize = 1;
const EAST: usize = 2;
const SOUTH: usize = 3;
const WEST: usize = 4;

#[derive(Debug)]
struct Packet<T> {
    dst: Coord,
    flits: u8,
    /// First cycle the packet could leave its source router.
    entered: Cycle,
    ready_at: Cycle,
    hops: u64,
    payload: T,
}

/// The router grid. Ejected packets go to the caller's sink in
/// [`Mesh::tick`]; [`Fabric`] holds one and owns the delivery queues.
#[derive(Debug)]
pub struct Mesh<T> {
    cfg: MeshConfig,
    /// Input buffers: `buffers[router][port]`.
    buffers: Vec<[VecDeque<Packet<T>>; PORTS]>,
    /// Per router, bit `p` is set while input `p` holds a packet, so
    /// arbitration walks only occupied inputs.
    occupied: Vec<u8>,
    /// Each router's coordinate, built once so a router visit never
    /// divides.
    coords: Vec<Coord>,
    /// Serialization: each output port is busy until this cycle.
    port_busy: Vec<[Cycle; PORTS]>,
    /// Round-robin arbitration pointer, shared by every router: all of
    /// them rotate once per tick, so one pointer is the whole state.
    rr: usize,
    /// Routers holding at least one buffered packet.
    active: Worklist,
    /// Scratch index buffer, reused so ticks never allocate.
    scratch: Vec<usize>,
    /// Packets buffered in routers (injected, not yet ejected or dropped).
    in_flight: usize,
    /// Router arbitrations performed (see [`Mesh::visits`]).
    visits: u64,
    stats: MeshStats,
    /// Observability tracer (disabled by default; hop events).
    tracer: Tracer,
}

impl<T> Mesh<T> {
    /// Builds an idle mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if the hop latency is zero
    /// (see [`MeshConfig::with_hop_latency`]).
    #[must_use]
    pub fn new(cfg: MeshConfig) -> Self {
        assert!(cfg.width > 0 && cfg.height > 0, "mesh must be non-empty");
        assert!(
            cfg.hop_latency > 0,
            "mesh hop latency must be at least one cycle"
        );
        let n = cfg.nodes();
        Mesh {
            cfg,
            buffers: (0..n)
                .map(|_| std::array::from_fn(|_| VecDeque::new()))
                .collect(),
            occupied: vec![0; n],
            coords: (0..cfg.height)
                .flat_map(|y| (0..cfg.width).map(move |x| Coord::new(x, y)))
                .collect(),
            port_busy: vec![[Cycle::ZERO; PORTS]; n],
            rr: 0,
            active: Worklist::new(n),
            scratch: Vec::new(),
            in_flight: 0,
            visits: 0,
            stats: MeshStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs an observability tracer; every router hop is recorded
    /// through it. Tracing never changes routing or timing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The mesh configuration.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    fn idx(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.cfg.width) + usize::from(c.x)
    }

    fn in_bounds(&self, c: Coord) -> bool {
        c.x < self.cfg.width && c.y < self.cfg.height
    }

    /// Injects a packet of `flits` flits at `src` destined for `dst`.
    ///
    /// `ready_at` is the first cycle the packet may leave `src`: the
    /// injection cycle for fresh traffic, later for a fault-delayed
    /// packet. The mesh's own latency statistic counts from it.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] carrying the payload when the local input
    /// buffer at `src` is full; callers retry on a later cycle.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` lies outside the mesh, or `flits == 0`.
    pub fn inject(
        &mut self,
        ready_at: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        assert!(self.in_bounds(src), "inject: src {src} out of bounds");
        assert!(self.in_bounds(dst), "inject: dst {dst} out of bounds");
        assert!(flits > 0, "inject: packets need at least one flit");
        let i = self.idx(src);
        if self.buffers[i][LOCAL].len() >= self.cfg.buffer_depth {
            return Err(Backpressure(payload));
        }
        self.buffers[i][LOCAL].push_back(Packet {
            dst,
            flits,
            entered: ready_at,
            ready_at,
            hops: 0,
            payload,
        });
        self.occupied[i] |= 1 << LOCAL;
        self.active.insert(i);
        self.in_flight += 1;
        self.stats.injected.inc();
        Ok(())
    }

    /// Whether a new packet can currently be injected at `src`.
    #[must_use]
    pub fn can_inject(&self, src: Coord) -> bool {
        let i = self.idx(src);
        self.buffers[i][LOCAL].len() < self.cfg.buffer_depth
    }

    /// XY route: move east/west until the column matches, then north/south.
    fn route(&self, here: Coord, dst: Coord) -> usize {
        if dst.x > here.x {
            EAST
        } else if dst.x < here.x {
            WEST
        } else if dst.y > here.y {
            SOUTH
        } else if dst.y < here.y {
            NORTH
        } else {
            LOCAL
        }
    }

    /// Index of router `r`'s neighbour in direction `dir` (never
    /// [`LOCAL`]; XY routing never leaves the grid).
    fn neighbor(&self, r: usize, dir: usize) -> usize {
        let width = usize::from(self.cfg.width);
        match dir {
            NORTH => r - width,
            SOUTH => r + width,
            EAST => r + 1,
            _ => r - 1,
        }
    }

    /// Reverse of the output direction: the input port a packet arrives on.
    fn entry_port(dir: usize) -> usize {
        match dir {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            other => other,
        }
    }

    /// Advances the mesh by one cycle, handing each packet that reaches
    /// its destination router to `eject` as `(router index, payload)`.
    ///
    /// Each router considers its five input ports in round-robin order and
    /// forwards at most one packet per *output* port per cycle; forwarding a
    /// packet occupies the output for `flits` cycles (serialization) and the
    /// packet arrives at the neighbour `hop_latency` cycles later.
    ///
    /// Only routers holding packets are visited, in ascending router
    /// index — the order a full scan would visit them in, which matters
    /// because a forward fills the neighbour's buffer that a later
    /// router's credit check reads. An empty router's only per-cycle
    /// state is the round-robin pointer, which every router shares, so
    /// skipping it changes nothing. A packet forwarded this cycle is not
    /// ready before the next (hop latency is at least one cycle), so its
    /// new router joins the worklist for the next tick.
    pub fn tick(&mut self, now: Cycle, mut eject: impl FnMut(usize, T)) {
        let start = self.rr;
        self.rr = (start + 1) % PORTS;
        let mut routers = std::mem::take(&mut self.scratch);
        self.active.drain_sorted(&mut routers);
        for &r in &routers {
            self.arbitrate(r, start, now, &mut eject);
            if self.occupied[r] != 0 {
                self.active.insert(r);
            }
        }
        self.scratch = routers;
    }

    /// One router's arbitration for cycle `now`, starting at input
    /// `start` and visiting only occupied inputs, in round-robin order.
    fn arbitrate(&mut self, r: usize, start: usize, now: Cycle, eject: &mut impl FnMut(usize, T)) {
        self.visits += 1;
        let here = self.coords[r];
        // Rotate the occupancy mask so bit k is input `(start + k) % 5`.
        let occ = u16::from(self.occupied[r]);
        let mut rotated = ((occ >> start) | (occ << (PORTS - start))) & ((1 << PORTS) - 1);
        while rotated != 0 {
            let k = rotated.trailing_zeros() as usize;
            rotated &= rotated - 1;
            let port = (start + k) % PORTS;
            let head = self.buffers[r][port]
                .front()
                .expect("occupied input has a head");
            if head.ready_at > now {
                continue;
            }
            let out = self.route(here, head.dst);
            // A grant holds its output busy for `flits` ≥ 1 cycles, which
            // also enforces one grant per output port per cycle.
            if self.port_busy[r][out] > now {
                continue;
            }
            if out == LOCAL {
                let pkt = self.pop(r, port);
                self.port_busy[r][LOCAL] = now.plus(u64::from(pkt.flits));
                self.in_flight -= 1;
                self.stats.delivered.inc();
                self.stats.hops.add(pkt.hops);
                self.stats.latency.record(now.since(pkt.entered));
                eject(r, pkt.payload);
                continue;
            }
            let next_idx = self.neighbor(r, out);
            let entry = Self::entry_port(out);
            if self.buffers[next_idx][entry].len() >= self.cfg.buffer_depth {
                continue; // credit-based backpressure
            }
            let mut pkt = self.pop(r, port);
            self.port_busy[r][out] = now.plus(u64::from(pkt.flits));
            pkt.ready_at = now.plus(self.cfg.hop_latency);
            pkt.hops += 1;
            self.tracer.emit(now, || TraceEvent::NocHop {
                x: here.x,
                y: here.y,
                flits: pkt.flits,
            });
            self.buffers[next_idx][entry].push_back(pkt);
            self.occupied[next_idx] |= 1 << entry;
            self.active.insert(next_idx);
        }
    }

    /// Removes the head of router `r`'s input `port`, keeping the
    /// occupancy mask current.
    fn pop(&mut self, r: usize, port: usize) -> Packet<T> {
        let pkt = self.buffers[r][port].pop_front().expect("head exists");
        if self.buffers[r][port].is_empty() {
            self.occupied[r] &= !(1 << port);
        }
        pkt
    }

    /// Catches the mesh up over `cycles` skipped (quiescent) cycles.
    ///
    /// Every tick rotates the shared round-robin arbitration pointer once
    /// whether or not any packet moves; skipping applies the same
    /// rotation as one modular add, so the first arbitration after a gap
    /// matches the dense reference bit-for-bit.
    pub fn skip(&mut self, cycles: u64) {
        self.rr = (self.rr + (cycles % PORTS as u64) as usize) % PORTS;
    }

    /// Number of packets currently buffered anywhere in the mesh.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Router arbitrations performed since construction: one per router
    /// per tick in which it held a packet. A deterministic measure of the
    /// mesh's host work — idle ticks add nothing.
    #[must_use]
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// Aggregate statistics since construction.
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }
}

#[cfg(test)]
#[allow(clippy::explicit_counter_loop)]
mod tests {
    use super::*;

    fn drive<T>(mesh: &mut Fabric<T>, from: Cycle, cycles: u64) -> Cycle {
        let mut now = from;
        for _ in 0..cycles {
            mesh.tick(now);
            now += 1;
        }
        now
    }

    #[test]
    fn coord_hops() {
        assert_eq!(Coord::new(0, 0).hops_to(Coord::new(3, 2)), 5);
        assert_eq!(Coord::new(3, 2).hops_to(Coord::new(0, 0)), 5);
        assert_eq!(Coord::new(1, 1).hops_to(Coord::new(1, 1)), 0);
        assert_eq!(Coord::new(2, 1).to_string(), "(2,1)");
    }

    #[test]
    fn single_hop_delivery_latency() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 1));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        mesh.inject(Cycle(0), src, dst, 1, 99).unwrap();
        // Cycle 0: forwarded east, arrives ready at cycle 1.
        // Cycle 1: delivered locally at dst.
        mesh.tick(Cycle(0));
        assert!(mesh.take_delivered(dst).is_empty());
        mesh.tick(Cycle(1));
        assert_eq!(mesh.take_delivered(dst), vec![99]);
        assert_eq!(mesh.stats().hops.get(), 1);
    }

    #[test]
    fn self_delivery() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(1, 1));
        let c = Coord::new(0, 0);
        mesh.inject(Cycle(0), c, c, 1, 7).unwrap();
        mesh.tick(Cycle(0));
        assert_eq!(mesh.take_delivered(c), vec![7]);
        assert_eq!(mesh.stats().hops.get(), 0);
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(8, 8));
        let src = Coord::new(0, 0);
        let dst = Coord::new(7, 7);
        mesh.inject(Cycle(0), src, dst, 1, 1).unwrap();
        drive(&mut mesh, Cycle(0), 40);
        assert_eq!(mesh.take_delivered(dst), vec![1]);
        assert_eq!(mesh.stats().hops.get(), 14);
        // 14 hops then ejection on the cycle after the last hop.
        assert_eq!(mesh.stats().latency.mean(), 14.0);
    }

    #[test]
    fn xy_routing_no_reordering_same_pair() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(4, 4));
        let src = Coord::new(0, 3);
        let dst = Coord::new(3, 0);
        let mut now = Cycle(0);
        for i in 0..6 {
            mesh.inject(now, src, dst, 1, i).unwrap();
            mesh.tick(now);
            now += 1;
        }
        drive(&mut mesh, now, 30);
        assert_eq!(mesh.take_delivered(dst), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn backpressure_on_full_local_buffer() {
        let cfg = MeshConfig::new(2, 1).with_buffer_depth(2);
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        // No ticks: local buffer can hold exactly 2.
        assert!(mesh.inject(Cycle(0), src, dst, 1, 0).is_ok());
        assert!(mesh.inject(Cycle(0), src, dst, 1, 1).is_ok());
        assert!(!mesh.can_inject(src));
        let err = mesh.inject(Cycle(0), src, dst, 1, 2).unwrap_err();
        assert_eq!(err, Backpressure(2));
        assert!(err.to_string().contains("injection refused"));
    }

    #[test]
    fn serialization_throttles_big_packets() {
        // Two 8-flit packets from the same source: second must wait for the
        // first to serialize onto the east port.
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 1));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        mesh.inject(Cycle(0), src, dst, 8, 0).unwrap();
        mesh.inject(Cycle(0), src, dst, 8, 1).unwrap();
        let mut arrivals = Vec::new();
        let mut now = Cycle(0);
        for _ in 0..40 {
            mesh.tick(now);
            for _ in mesh.take_delivered(dst) {
                arrivals.push(now);
            }
            now += 1;
        }
        assert_eq!(arrivals.len(), 2);
        assert!(
            arrivals[1].since(arrivals[0]) >= 8,
            "second packet should be serialized at least 8 cycles later, got {arrivals:?}"
        );
    }

    #[test]
    fn all_pairs_delivery() {
        let cfg = MeshConfig::new(3, 3);
        let mut mesh: Fabric<(Coord, Coord)> = Fabric::flat(cfg);
        let mut expected = 0;
        let mut now = Cycle(0);
        for sy in 0..3 {
            for sx in 0..3 {
                for dy in 0..3 {
                    for dx in 0..3 {
                        let s = Coord::new(sx, sy);
                        let d = Coord::new(dx, dy);
                        loop {
                            match mesh.inject(now, s, d, 1, (s, d)) {
                                Ok(()) => break,
                                Err(_) => {
                                    mesh.tick(now);
                                    now += 1;
                                }
                            }
                        }
                        expected += 1;
                    }
                }
            }
        }
        let mut got = 0;
        for _ in 0..500 {
            mesh.tick(now);
            for dy in 0..3 {
                for dx in 0..3 {
                    let here = Coord::new(dx, dy);
                    for (_s, d) in mesh.take_delivered(here) {
                        assert_eq!(d, here, "packet delivered to wrong node");
                        got += 1;
                    }
                }
            }
            now += 1;
        }
        assert_eq!(got, expected);
        assert!(mesh.is_quiescent());
        assert_eq!(mesh.stats().delivered.get(), expected as u64);
    }

    #[test]
    #[should_panic(expected = "hop latency must be at least one cycle")]
    fn zero_hop_latency_is_rejected() {
        let _: Mesh<u32> = Mesh::new(MeshConfig::new(2, 2).with_hop_latency(0));
    }

    #[test]
    fn visits_track_packets_not_routers() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(8, 8));
        let now = drive(&mut mesh, Cycle(0), 1000);
        assert_eq!(mesh.visits(), 0, "idle ticks visit nothing");
        mesh.inject(now, Coord::new(0, 0), Coord::new(7, 7), 1, 1)
            .unwrap();
        let now = drive(&mut mesh, now, 40);
        assert_eq!(mesh.take_delivered(Coord::new(7, 7)), vec![1]);
        // One visit per hop plus the ejection, however large the mesh.
        assert_eq!(mesh.visits(), 14 + 1);
        assert_eq!(mesh.in_flight(), 0);
        drive(&mut mesh, now, 100);
        assert_eq!(mesh.visits(), 15);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn inject_out_of_bounds_panics() {
        let mut mesh: Mesh<u32> = Mesh::new(MeshConfig::new(2, 2));
        let _ = mesh.inject(Cycle(0), Coord::new(0, 0), Coord::new(5, 5), 1, 0);
    }

    #[test]
    fn hop_latency_config_respected() {
        let cfg = MeshConfig::new(3, 1).with_hop_latency(4);
        let mut mesh: Fabric<u32> = Fabric::flat(cfg);
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 0);
        mesh.inject(Cycle(0), src, dst, 1, 5).unwrap();
        let mut now = Cycle(0);
        let mut arrival = None;
        for _ in 0..60 {
            mesh.tick(now);
            if !mesh.take_delivered(dst).is_empty() {
                arrival = Some(now);
                break;
            }
            now += 1;
        }
        // 2 hops × 4 cycles each, plus ejection.
        assert!(arrival.expect("delivered").0 >= 8);
    }

    #[test]
    fn take_one_delivered() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(1, 1));
        let c = Coord::new(0, 0);
        mesh.inject(Cycle(0), c, c, 1, 1).unwrap();
        mesh.inject(Cycle(1), c, c, 1, 2).unwrap();
        drive(&mut mesh, Cycle(0), 5);
        assert_eq!(mesh.take_one_delivered(c), Some(1));
        assert_eq!(mesh.take_one_delivered(c), Some(2));
        assert_eq!(mesh.take_one_delivered(c), None);
    }

    #[test]
    fn fault_plane_drops_unreliable_packets() {
        use maple_sim::fault::FaultPlaneConfig;
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 2));
        mesh.set_fault_plane(&FaultPlaneConfig::new(3).with_noc_drop(1.0));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 1);
        for k in 0..8 {
            mesh.inject_unreliable(Cycle(k), src, dst, 1, k as u32)
                .unwrap();
        }
        drive(&mut mesh, Cycle(8), 64);
        assert!(mesh.take_delivered(dst).is_empty(), "all packets dropped");
        assert_eq!(mesh.stats().dropped.get(), 8);
        assert_eq!(
            mesh.stats().injected.get(),
            8,
            "drops still count as injected"
        );
        assert_eq!(mesh.stats().delivered.get(), 0);
        assert!(mesh.is_quiescent());
    }

    #[test]
    fn fault_plane_delays_but_delivers() {
        use maple_sim::fault::FaultPlaneConfig;
        let extra = 40;
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 1));
        mesh.set_fault_plane(&FaultPlaneConfig::new(5).with_noc_delay(1.0, extra));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        mesh.inject_unreliable(Cycle(0), src, dst, 1, 77).unwrap();
        let mut arrival = None;
        for t in 0..200u64 {
            mesh.tick(Cycle(t));
            if let Some(v) = mesh.take_one_delivered(dst) {
                arrival = Some((t, v));
                break;
            }
        }
        let (t, v) = arrival.expect("delayed packet still arrives");
        assert_eq!(v, 77);
        assert!(
            t >= extra,
            "held at least {extra} extra cycles, arrived at {t}"
        );
        assert_eq!(mesh.stats().delayed.get(), 1);
        assert_eq!(mesh.stats().dropped.get(), 0);
    }

    #[test]
    fn inject_unreliable_without_fault_state_is_reliable() {
        let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 1));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        mesh.inject_unreliable(Cycle(0), src, dst, 1, 9).unwrap();
        drive(&mut mesh, Cycle(0), 16);
        assert_eq!(mesh.take_delivered(dst), [9]);
        assert_eq!(mesh.stats().dropped.get(), 0);
        assert_eq!(mesh.stats().delayed.get(), 0);
    }
}
