//! Test-only reference interconnect: the full-scan tick that visits every
//! router, every crossbar and every crossbar port on every cycle, with a
//! round-robin pointer per router and per crossbar and a per-cycle grant
//! array. The library's activity-driven tick must be indistinguishable
//! from it cycle by cycle (`tick_reference.rs`). Tracing is left out: it
//! never alters routing or timing.

use std::collections::VecDeque;

use maple_noc::{Backpressure, ClusterTopology, Coord, MeshConfig, MeshStats, NocFault, XbarFault};
use maple_sim::Cycle;

const PORTS: usize = 5;
const LOCAL: usize = 0;
const NORTH: usize = 1;
const EAST: usize = 2;
const SOUTH: usize = 3;
const WEST: usize = 4;

struct Packet<T> {
    dst: Coord,
    flits: u8,
    injected_at: Cycle,
    ready_at: Cycle,
    hops: u64,
    payload: T,
}

pub struct RefMesh<T> {
    cfg: MeshConfig,
    buffers: Vec<Vec<VecDeque<Packet<T>>>>,
    port_busy: Vec<[Cycle; PORTS]>,
    rr_start: Vec<usize>,
    delivered: Vec<VecDeque<T>>,
    stats: MeshStats,
    fault: Option<NocFault>,
}

impl<T> RefMesh<T> {
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.nodes();
        RefMesh {
            cfg,
            buffers: (0..n)
                .map(|_| (0..PORTS).map(|_| VecDeque::new()).collect())
                .collect(),
            port_busy: vec![[Cycle::ZERO; PORTS]; n],
            rr_start: vec![0; n],
            delivered: (0..n).map(|_| VecDeque::new()).collect(),
            stats: MeshStats::default(),
            fault: None,
        }
    }

    pub fn set_fault(&mut self, fault: NocFault) {
        self.fault = Some(fault);
    }

    fn idx(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.cfg.width) + usize::from(c.x)
    }

    fn coord(&self, idx: usize) -> Coord {
        Coord::new(
            (idx % usize::from(self.cfg.width)) as u16,
            (idx / usize::from(self.cfg.width)) as u16,
        )
    }

    pub fn inject(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
        unreliable: bool,
    ) -> Result<(), Backpressure<T>> {
        let i = self.idx(src);
        if self.buffers[i][LOCAL].len() >= self.cfg.buffer_depth {
            return Err(Backpressure(payload));
        }
        let mut ready_at = now;
        if let (true, Some(f)) = (unreliable, &mut self.fault) {
            if f.drop.strike() {
                self.stats.injected.inc();
                self.stats.dropped.inc();
                return Ok(());
            }
            if f.delay.strike() {
                self.stats.delayed.inc();
                ready_at = now.plus(f.delay.magnitude());
            }
        }
        self.buffers[i][LOCAL].push_back(Packet {
            dst,
            flits,
            injected_at: now,
            ready_at,
            hops: 0,
            payload,
        });
        self.stats.injected.inc();
        Ok(())
    }

    pub fn can_inject(&self, src: Coord) -> bool {
        self.buffers[self.idx(src)][LOCAL].len() < self.cfg.buffer_depth
    }

    fn route(here: Coord, dst: Coord) -> usize {
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

    fn neighbor(here: Coord, dir: usize) -> Coord {
        match dir {
            NORTH => Coord::new(here.x, here.y - 1),
            SOUTH => Coord::new(here.x, here.y + 1),
            EAST => Coord::new(here.x + 1, here.y),
            WEST => Coord::new(here.x - 1, here.y),
            _ => here,
        }
    }

    fn entry_port(dir: usize) -> usize {
        match dir {
            NORTH => SOUTH,
            SOUTH => NORTH,
            EAST => WEST,
            WEST => EAST,
            other => other,
        }
    }

    pub fn tick(&mut self, now: Cycle) {
        for r in 0..self.buffers.len() {
            let here = self.coord(r);
            let start = self.rr_start[r];
            self.rr_start[r] = (start + 1) % PORTS;
            let mut granted = [false; PORTS];
            for k in 0..PORTS {
                let port = (start + k) % PORTS;
                let Some(head) = self.buffers[r][port].front() else {
                    continue;
                };
                if head.ready_at > now {
                    continue;
                }
                let out = Self::route(here, head.dst);
                if granted[out] || self.port_busy[r][out] > now {
                    continue;
                }
                if out == LOCAL {
                    let pkt = self.buffers[r][port].pop_front().expect("head exists");
                    granted[LOCAL] = true;
                    self.port_busy[r][LOCAL] = now.plus(u64::from(pkt.flits));
                    self.stats.delivered.inc();
                    self.stats.hops.add(pkt.hops);
                    self.stats.latency.record(now.since(pkt.injected_at));
                    self.delivered[r].push_back(pkt.payload);
                    continue;
                }
                let next_idx = self.idx(Self::neighbor(here, out));
                let entry = Self::entry_port(out);
                if self.buffers[next_idx][entry].len() >= self.cfg.buffer_depth {
                    continue;
                }
                let mut pkt = self.buffers[r][port].pop_front().expect("head exists");
                granted[out] = true;
                self.port_busy[r][out] = now.plus(u64::from(pkt.flits));
                pkt.ready_at = now.plus(self.cfg.hop_latency);
                pkt.hops += 1;
                self.buffers[next_idx][entry].push_back(pkt);
            }
        }
    }

    pub fn skip(&mut self, cycles: u64) {
        let step = (cycles % PORTS as u64) as usize;
        for start in &mut self.rr_start {
            *start = (*start + step) % PORTS;
        }
    }

    pub fn take_delivered(&mut self, node: Coord) -> Vec<T> {
        let i = self.idx(node);
        self.delivered[i].drain(..).collect()
    }

    pub fn take_one_delivered(&mut self, node: Coord) -> Option<T> {
        let i = self.idx(node);
        self.delivered[i].pop_front()
    }

    pub fn in_flight(&self) -> usize {
        self.buffers
            .iter()
            .map(|ports| ports.iter().map(VecDeque::len).sum::<usize>())
            .sum()
    }

    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0 && self.delivered.iter().all(VecDeque::is_empty)
    }
}

struct XbarPacket<T> {
    out: usize,
    flits: u8,
    ready_at: Cycle,
    payload: T,
}

struct Wire<T> {
    arrives_at: Cycle,
    out: usize,
    payload: T,
}

struct RefCrossbar<T> {
    ports: usize,
    latency: u64,
    buffer_depth: usize,
    inputs: Vec<VecDeque<XbarPacket<T>>>,
    out_busy: Vec<Cycle>,
    rr_start: usize,
    wires: VecDeque<Wire<T>>,
    delivered: Vec<VecDeque<T>>,
}

impl<T> RefCrossbar<T> {
    fn new(ports: usize, latency: u64) -> Self {
        RefCrossbar {
            ports,
            latency,
            buffer_depth: 8,
            inputs: (0..ports).map(|_| VecDeque::new()).collect(),
            out_busy: vec![Cycle::ZERO; ports],
            rr_start: 0,
            wires: VecDeque::new(),
            delivered: (0..ports).map(|_| VecDeque::new()).collect(),
        }
    }

    fn can_inject(&self, in_port: usize) -> bool {
        self.inputs[in_port].len() < self.buffer_depth
    }

    fn inject(
        &mut self,
        ready_at: Cycle,
        in_port: usize,
        out: usize,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        if !self.can_inject(in_port) {
            return Err(Backpressure(payload));
        }
        self.inputs[in_port].push_back(XbarPacket {
            out,
            flits,
            ready_at,
            payload,
        });
        Ok(())
    }

    fn tick(&mut self, now: Cycle) {
        while self.wires.front().is_some_and(|w| w.arrives_at <= now) {
            let w = self.wires.pop_front().expect("front exists");
            self.delivered[w.out].push_back(w.payload);
        }
        let start = self.rr_start;
        self.rr_start = (start + 1) % self.ports;
        let mut granted = vec![false; self.ports];
        for k in 0..self.ports {
            let port = (start + k) % self.ports;
            let Some(head) = self.inputs[port].front() else {
                continue;
            };
            if head.ready_at > now {
                continue;
            }
            let out = head.out;
            if granted[out] || self.out_busy[out] > now {
                continue;
            }
            let pkt = self.inputs[port].pop_front().expect("head exists");
            granted[out] = true;
            self.out_busy[out] = now.plus(u64::from(pkt.flits));
            self.wires.push_back(Wire {
                arrives_at: now.plus(self.latency),
                out,
                payload: pkt.payload,
            });
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.rr_start = (self.rr_start + (cycles % self.ports as u64) as usize) % self.ports;
    }

    /// Packets in the switch, including those delivered at an output
    /// and not yet moved on by the fabric.
    fn in_flight(&self) -> usize {
        self.inputs.iter().map(VecDeque::len).sum::<usize>()
            + self.wires.len()
            + self.delivered.iter().map(VecDeque::len).sum::<usize>()
    }
}

struct Env<T> {
    dst: Coord,
    flits: u8,
    injected_at: Cycle,
    hops: u64,
    payload: T,
}

pub struct RefClustered<T> {
    topo: ClusterTopology,
    xbars: Vec<RefCrossbar<Env<T>>>,
    mesh: RefMesh<Env<T>>,
    delivered: Vec<VecDeque<T>>,
    stats: MeshStats,
    fault: Option<NocFault>,
    xbar_fault: Option<XbarFault>,
}

impl<T> RefClustered<T> {
    pub fn new(topo: ClusterTopology, xbar_latency: u64) -> Self {
        let ports = topo.tiles_per_cluster() + 1;
        RefClustered {
            topo,
            xbars: (0..topo.clusters())
                .map(|_| RefCrossbar::new(ports, xbar_latency))
                .collect(),
            mesh: RefMesh::new(MeshConfig::new(topo.clusters_x, topo.clusters_y)),
            delivered: (0..topo.total_tiles()).map(|_| VecDeque::new()).collect(),
            stats: MeshStats::default(),
            fault: None,
            xbar_fault: None,
        }
    }

    pub fn set_faults(&mut self, noc: NocFault, xbar: XbarFault) {
        self.fault = Some(noc);
        self.xbar_fault = Some(xbar);
    }

    fn tile_index(&self, tile: Coord) -> usize {
        usize::from(tile.y) * usize::from(self.topo.total_width()) + usize::from(tile.x)
    }

    fn mesh_port(&self) -> usize {
        self.topo.tiles_per_cluster()
    }

    pub fn can_inject(&self, src: Coord) -> bool {
        self.xbars[self.topo.cluster_index_of(src)].can_inject(self.topo.local_port(src))
    }

    pub fn inject(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
        unreliable: bool,
    ) -> Result<(), Backpressure<T>> {
        if !self.can_inject(src) {
            return Err(Backpressure(payload));
        }
        let mut ready_at = now;
        if unreliable {
            if let Some(f) = &mut self.fault {
                if f.drop.strike() {
                    self.stats.injected.inc();
                    self.stats.dropped.inc();
                    return Ok(());
                }
                if f.delay.strike() {
                    self.stats.delayed.inc();
                    ready_at = ready_at.plus(f.delay.magnitude());
                }
            }
            if let Some(f) = &mut self.xbar_fault {
                if f.drop.strike() {
                    self.stats.injected.inc();
                    self.stats.dropped.inc();
                    return Ok(());
                }
                if f.delay.strike() {
                    self.stats.delayed.inc();
                    ready_at = ready_at.plus(f.delay.magnitude());
                }
            }
        }
        let (sc, dc) = (self.topo.cluster_of(src), self.topo.cluster_of(dst));
        let out_port = if sc == dc {
            self.topo.local_port(dst)
        } else {
            self.mesh_port()
        };
        let env = Env {
            dst,
            flits,
            injected_at: now,
            hops: if sc == dc { 1 } else { 2 + sc.hops_to(dc) },
            payload,
        };
        let ci = self.topo.cluster_index_of(src);
        let in_port = self.topo.local_port(src);
        self.xbars[ci]
            .inject(ready_at, in_port, out_port, flits, env)
            .map_err(|Backpressure(e)| Backpressure(e.payload))?;
        self.stats.injected.inc();
        Ok(())
    }

    pub fn tick(&mut self, now: Cycle) {
        let mesh_port = self.mesh_port();
        for ci in 0..self.xbars.len() {
            let cc = self.topo.cluster_coord(ci);
            while self.xbars[ci].can_inject(mesh_port) {
                let Some(env) = self.mesh.take_one_delivered(cc) else {
                    break;
                };
                let out = self.topo.local_port(env.dst);
                let flits = env.flits;
                self.xbars[ci]
                    .inject(now, mesh_port, out, flits, env)
                    .ok()
                    .expect("can_inject checked");
            }
        }
        for x in &mut self.xbars {
            x.tick(now);
        }
        for ci in 0..self.xbars.len() {
            let cc = self.topo.cluster_coord(ci);
            while let Some(env) = self.xbars[ci].delivered[mesh_port].front() {
                let dst_cluster = self.topo.cluster_of(env.dst);
                if !self.mesh.can_inject(cc) {
                    break;
                }
                let env = self.xbars[ci].delivered[mesh_port]
                    .pop_front()
                    .expect("peeked");
                let flits = env.flits;
                self.mesh
                    .inject(now, cc, dst_cluster, flits, env, false)
                    .ok()
                    .expect("can_inject checked");
            }
            for port in 0..mesh_port {
                let tile = self.topo.tile_at(ci, port);
                let ti = self.tile_index(tile);
                let envs: Vec<_> = self.xbars[ci].delivered[port].drain(..).collect();
                for env in envs {
                    self.stats.delivered.inc();
                    self.stats.hops.add(env.hops);
                    self.stats.latency.record(now.since(env.injected_at));
                    self.delivered[ti].push_back(env.payload);
                }
            }
        }
        self.mesh.tick(now);
    }

    pub fn skip(&mut self, cycles: u64) {
        self.mesh.skip(cycles);
        for x in &mut self.xbars {
            x.skip(cycles);
        }
    }

    pub fn take_delivered(&mut self, node: Coord) -> Vec<T> {
        let i = self.tile_index(node);
        self.delivered[i].drain(..).collect()
    }

    pub fn take_one_delivered(&mut self, node: Coord) -> Option<T> {
        let i = self.tile_index(node);
        self.delivered[i].pop_front()
    }

    /// Packets not yet delivered to a tile: in the global mesh, ejected
    /// from it and waiting at a full crossbar mesh port, or in a crossbar
    /// (queued, on the wire, or staged at its mesh port).
    pub fn in_flight(&self) -> usize {
        self.mesh.in_flight()
            + self.mesh.delivered.iter().map(VecDeque::len).sum::<usize>()
            + self.xbars.iter().map(RefCrossbar::in_flight).sum::<usize>()
    }

    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0 && self.delivered.iter().all(VecDeque::is_empty)
    }

    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    pub fn global_mesh_stats(&self) -> &MeshStats {
        &self.mesh.stats
    }
}

/// The reference counterpart of `maple_noc::Fabric`.
pub enum RefFabric<T> {
    Flat(Box<RefMesh<T>>),
    Clustered(Box<RefClustered<T>>),
}

impl<T> RefFabric<T> {
    pub fn inject(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
        unreliable: bool,
    ) -> Result<(), Backpressure<T>> {
        match self {
            RefFabric::Flat(m) => m.inject(now, src, dst, flits, payload, unreliable),
            RefFabric::Clustered(c) => c.inject(now, src, dst, flits, payload, unreliable),
        }
    }

    pub fn can_inject(&self, src: Coord) -> bool {
        match self {
            RefFabric::Flat(m) => m.can_inject(src),
            RefFabric::Clustered(c) => c.can_inject(src),
        }
    }

    pub fn tick(&mut self, now: Cycle) {
        match self {
            RefFabric::Flat(m) => m.tick(now),
            RefFabric::Clustered(c) => c.tick(now),
        }
    }

    pub fn skip(&mut self, cycles: u64) {
        match self {
            RefFabric::Flat(m) => m.skip(cycles),
            RefFabric::Clustered(c) => c.skip(cycles),
        }
    }

    pub fn take_delivered(&mut self, node: Coord) -> Vec<T> {
        match self {
            RefFabric::Flat(m) => m.take_delivered(node),
            RefFabric::Clustered(c) => c.take_delivered(node),
        }
    }

    pub fn take_one_delivered(&mut self, node: Coord) -> Option<T> {
        match self {
            RefFabric::Flat(m) => m.take_one_delivered(node),
            RefFabric::Clustered(c) => c.take_one_delivered(node),
        }
    }

    pub fn in_flight(&self) -> usize {
        match self {
            RefFabric::Flat(m) => m.in_flight(),
            RefFabric::Clustered(c) => c.in_flight(),
        }
    }

    pub fn is_quiescent(&self) -> bool {
        match self {
            RefFabric::Flat(m) => m.is_quiescent(),
            RefFabric::Clustered(c) => c.is_quiescent(),
        }
    }

    pub fn stats(&self) -> &MeshStats {
        match self {
            RefFabric::Flat(m) => &m.stats,
            RefFabric::Clustered(c) => c.stats(),
        }
    }

    pub fn global_mesh_stats(&self) -> Option<&MeshStats> {
        match self {
            RefFabric::Flat(_) => None,
            RefFabric::Clustered(c) => Some(c.global_mesh_stats()),
        }
    }
}
