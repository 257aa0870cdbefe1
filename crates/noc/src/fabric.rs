//! The two-level hierarchical fabric: clusters of tiles on single-cycle
//! local crossbars, clusters connected by the global mesh.
//!
//! This is the MemPool-style topology that lets the model reach 256–1024
//! tiles: a flat mesh at that scale would charge tens of cycles for what
//! physically is a neighbourhood access. Here every tile sits in a
//! cluster served by a [`Crossbar`]; traffic that stays in the cluster
//! takes one switch traversal, and traffic that leaves goes
//! crossbar → global [`Mesh`] (one router per *cluster*) → crossbar.
//!
//! [`Fabric`] is the dispatch point the SoC holds: a flat configuration
//! (one cluster, or no cluster config at all) uses the untouched
//! [`Mesh`] code path, which is what makes the degenerate hierarchical
//! config byte-identical to the historical flat mesh — identity by
//! shared code, not by re-derived timing.
//!
//! # Fault sites
//!
//! The fabric keeps the flat mesh's injection-time drop/delay semantics
//! ([`NocFault`]) and adds a crossbar-local site pair ([`XbarFault`]):
//! a clustered fabric draws the NoC schedules first (the packet's
//! end-to-end traversal), then the crossbar schedules (the local switch
//! leg). Flat fabrics never construct the crossbar schedules, so chaos
//! replay of every existing configuration is unchanged.

use std::collections::VecDeque;

use maple_sim::worklist::Worklist;
use maple_sim::Cycle;
use maple_trace::{FaultSite, TraceEvent, Tracer};

use crate::crossbar::{Crossbar, CrossbarConfig};
use crate::deliveries::Deliveries;
use crate::{Backpressure, Coord, Mesh, MeshConfig, MeshStats, NocFault};

/// Geometry of the two-level hierarchy: a `clusters_x` × `clusters_y`
/// grid of clusters, each a `cluster_width` × `cluster_height` sub-grid
/// of tiles. Global tile coordinates span the full
/// `clusters_x·cluster_width` × `clusters_y·cluster_height` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Tiles per cluster, horizontally.
    pub cluster_width: u16,
    /// Tiles per cluster, vertically.
    pub cluster_height: u16,
    /// Clusters across the SoC.
    pub clusters_x: u16,
    /// Clusters down the SoC.
    pub clusters_y: u16,
}

impl ClusterTopology {
    /// Builds and validates a topology.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the global grid exceeds
    /// [`crate::MAX_NODES`] tiles.
    #[must_use]
    pub fn new(cluster_width: u16, cluster_height: u16, clusters_x: u16, clusters_y: u16) -> Self {
        assert!(
            cluster_width > 0 && cluster_height > 0 && clusters_x > 0 && clusters_y > 0,
            "cluster topology dimensions must be non-zero"
        );
        let t = ClusterTopology {
            cluster_width,
            cluster_height,
            clusters_x,
            clusters_y,
        };
        assert!(
            t.total_tiles() <= crate::MAX_NODES,
            "clustered fabric of {} tiles exceeds MAX_NODES ({})",
            t.total_tiles(),
            crate::MAX_NODES
        );
        t
    }

    /// Global grid width in tiles.
    #[must_use]
    pub fn total_width(&self) -> u16 {
        self.clusters_x * self.cluster_width
    }

    /// Global grid height in tiles.
    #[must_use]
    pub fn total_height(&self) -> u16 {
        self.clusters_y * self.cluster_height
    }

    /// Tiles in the whole fabric.
    #[must_use]
    pub fn total_tiles(&self) -> usize {
        usize::from(self.total_width()) * usize::from(self.total_height())
    }

    /// Tiles in one cluster.
    #[must_use]
    pub fn tiles_per_cluster(&self) -> usize {
        usize::from(self.cluster_width) * usize::from(self.cluster_height)
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        usize::from(self.clusters_x) * usize::from(self.clusters_y)
    }

    /// The cluster-grid coordinate of the cluster containing `tile`.
    #[must_use]
    pub fn cluster_of(&self, tile: Coord) -> Coord {
        Coord::new(tile.x / self.cluster_width, tile.y / self.cluster_height)
    }

    /// Row-major index of the cluster containing `tile`.
    #[must_use]
    pub fn cluster_index_of(&self, tile: Coord) -> usize {
        let c = self.cluster_of(tile);
        usize::from(c.y) * usize::from(self.clusters_x) + usize::from(c.x)
    }

    /// The cluster-grid coordinate of cluster `index` (row-major).
    #[must_use]
    pub fn cluster_coord(&self, index: usize) -> Coord {
        Coord::new(
            (index % usize::from(self.clusters_x)) as u16,
            (index / usize::from(self.clusters_x)) as u16,
        )
    }

    /// The crossbar port of `tile` within its cluster (row-major over
    /// the sub-grid; the extra port [`Self::tiles_per_cluster`] is the
    /// global-mesh port).
    #[must_use]
    pub fn local_port(&self, tile: Coord) -> usize {
        let lx = usize::from(tile.x % self.cluster_width);
        let ly = usize::from(tile.y % self.cluster_height);
        ly * usize::from(self.cluster_width) + lx
    }

    /// The global coordinate of local crossbar port `port` in cluster
    /// `cluster` (row-major index).
    #[must_use]
    pub fn tile_at(&self, cluster: usize, port: usize) -> Coord {
        let cc = self.cluster_coord(cluster);
        let lx = (port % usize::from(self.cluster_width)) as u16;
        let ly = (port / usize::from(self.cluster_width)) as u16;
        Coord::new(cc.x * self.cluster_width + lx, cc.y * self.cluster_height + ly)
    }

    /// Whether `tile` lies on the global grid.
    #[must_use]
    pub fn in_bounds(&self, tile: Coord) -> bool {
        tile.x < self.total_width() && tile.y < self.total_height()
    }
}

/// The crossbar slice of the fault plane: drop and extra-delay schedules
/// drawn at injection for the local-switch leg of clustered traversals.
/// Flat fabrics never construct one, so existing chaos replay streams
/// are untouched.
#[derive(Debug, Clone)]
pub struct XbarFault {
    /// Packet-drop schedule.
    pub drop: maple_sim::fault::FaultSchedule,
    /// Extra-delay schedule (magnitude = extra cycles).
    pub delay: maple_sim::fault::FaultSchedule,
}

impl XbarFault {
    /// Builds the crossbar fault state from a plane configuration.
    #[must_use]
    pub fn from_plane(cfg: &maple_sim::fault::FaultPlaneConfig) -> Self {
        XbarFault {
            drop: cfg.xbar_drop_schedule(),
            delay: cfg.xbar_delay_schedule(),
        }
    }
}

/// Envelope carried through crossbars and the global mesh: the final
/// destination tile (row-major index) plus the accounting the
/// fabric-level stats need.
#[derive(Debug)]
struct Env<T> {
    dst: usize,
    flits: u8,
    injected_at: Cycle,
    hops: u64,
    payload: T,
}

/// Where a global tile sits in the hierarchy.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Row-major cluster index (also the cluster's global-mesh router).
    cluster: usize,
    /// Crossbar port within the cluster.
    port: usize,
}

/// The clustered two-level interconnect. Most callers hold a [`Fabric`]
/// instead, which dispatches between this and the flat [`Mesh`].
#[derive(Debug)]
pub struct ClusteredNoc<T> {
    topo: ClusterTopology,
    xbars: Vec<Crossbar<Env<T>>>,
    /// Round-robin pointer shared by every crossbar: all of them rotate
    /// once per tick, so one pointer is the whole state.
    xbar_rr: usize,
    /// Clusters whose crossbar holds a packet or whose mesh-port staging
    /// queue is non-empty.
    active: Worklist,
    /// Scratch index buffers, reused so ticks never allocate.
    clusters: Vec<usize>,
    ejecting: Vec<usize>,
    /// Per cluster: packets the crossbar switched to its mesh port,
    /// waiting (under backpressure) to enter the global mesh.
    staged: Vec<VecDeque<Env<T>>>,
    /// Packets across every staging queue.
    staged_len: usize,
    /// Global mesh: one router per cluster.
    mesh: Mesh<Env<T>>,
    /// Final deliveries per global tile (row-major).
    delivered: Deliveries<T>,
    /// Lookup tables built once, so no packet pays a division: each
    /// tile's cluster and port, each tile's and each cluster's grid
    /// coordinate.
    slots: Vec<Slot>,
    tile_coords: Vec<Coord>,
    cluster_coords: Vec<Coord>,
    stats: MeshStats,
    fault: Option<NocFault>,
    xbar_fault: Option<XbarFault>,
    tracer: Tracer,
}

impl<T> ClusteredNoc<T> {
    /// Builds an idle clustered fabric. `xbar_latency` is the crossbar
    /// grant-to-delivery latency (1 = single-cycle local switch).
    #[must_use]
    pub fn new(topo: ClusterTopology, xbar_latency: u64) -> Self {
        let xcfg = CrossbarConfig::new(topo.tiles_per_cluster() + 1).with_latency(xbar_latency);
        let tile_coords: Vec<Coord> = (0..topo.total_height())
            .flat_map(|y| (0..topo.total_width()).map(move |x| Coord::new(x, y)))
            .collect();
        let slots: Vec<Slot> = tile_coords
            .iter()
            .map(|&t| Slot {
                cluster: topo.cluster_index_of(t),
                port: topo.local_port(t),
            })
            .collect();
        ClusteredNoc {
            topo,
            xbars: (0..topo.clusters()).map(|_| Crossbar::new(xcfg)).collect(),
            xbar_rr: 0,
            active: Worklist::new(topo.clusters()),
            clusters: Vec::new(),
            ejecting: Vec::new(),
            staged: (0..topo.clusters()).map(|_| VecDeque::new()).collect(),
            staged_len: 0,
            mesh: Mesh::new(MeshConfig::new(topo.clusters_x, topo.clusters_y)),
            delivered: Deliveries::new(topo.total_tiles()),
            slots,
            tile_coords,
            cluster_coords: (0..topo.clusters())
                .map(|c| topo.cluster_coord(c))
                .collect(),
            stats: MeshStats::default(),
            fault: None,
            xbar_fault: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// Installs the end-to-end NoC fault schedules (same site semantics
    /// as [`Mesh::set_fault`]).
    pub fn set_fault(&mut self, fault: NocFault) {
        self.fault = Some(fault);
    }

    /// Installs the crossbar-local fault schedules.
    pub fn set_xbar_fault(&mut self, fault: XbarFault) {
        self.xbar_fault = Some(fault);
    }

    /// Installs an observability tracer. Global-mesh hops are traced
    /// with cluster coordinates; fault injections with their site.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mesh.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn tile_index(&self, tile: Coord) -> usize {
        usize::from(tile.y) * usize::from(self.topo.total_width()) + usize::from(tile.x)
    }

    /// The mesh port of every cluster crossbar (one past the tiles).
    fn mesh_port(&self) -> usize {
        self.topo.tiles_per_cluster()
    }

    /// Whether a new packet can currently be injected at `src`.
    #[must_use]
    pub fn can_inject(&self, src: Coord) -> bool {
        let slot = self.slots[self.tile_index(src)];
        self.xbars[slot.cluster].can_inject(slot.port)
    }

    fn admit(
        &mut self,
        ready_at: Cycle,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        let from = self.slots[self.tile_index(src)];
        let dst = self.tile_index(dst);
        let to = self.slots[dst];
        // One switch traversal intra-cluster; switch + mesh hops + switch
        // when the route crosses clusters.
        let (out_port, hops) = if from.cluster == to.cluster {
            (to.port, 1)
        } else {
            let (sc, dc) = (self.cluster_coords[from.cluster], self.cluster_coords[to.cluster]);
            (self.mesh_port(), 2 + sc.hops_to(dc))
        };
        let env = Env {
            dst,
            flits,
            injected_at: now,
            hops,
            payload,
        };
        self.xbars[from.cluster]
            .inject(ready_at, from.port, out_port, flits, env)
            .map_err(|Backpressure(e)| Backpressure(e.payload))?;
        self.active.insert(from.cluster);
        self.stats.injected.inc();
        Ok(())
    }

    /// Injects a packet of `flits` flits at tile `src` for tile `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] carrying the payload when the source
    /// tile's crossbar input is full.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is off the global grid or
    /// `flits == 0`.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        assert!(self.topo.in_bounds(src), "inject: src {src} out of bounds");
        assert!(self.topo.in_bounds(dst), "inject: dst {dst} out of bounds");
        assert!(flits > 0, "inject: packets need at least one flit");
        self.admit(now, now, src, dst, flits, payload)
    }

    /// Like [`ClusteredNoc::inject`], but subject to the installed
    /// fault schedules: the end-to-end [`NocFault`] draws first (drop,
    /// then delay), then the crossbar-local [`XbarFault`] pair. Draws
    /// happen only after admission, so a backpressured retry never
    /// consumes randomness.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] as [`ClusteredNoc::inject`] does.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ClusteredNoc::inject`].
    pub fn inject_unreliable(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        assert!(self.topo.in_bounds(src), "inject: src {src} out of bounds");
        assert!(self.topo.in_bounds(dst), "inject: dst {dst} out of bounds");
        assert!(flits > 0, "inject: packets need at least one flit");
        if !self.can_inject(src) {
            return Err(Backpressure(payload));
        }
        let mut ready_at = now;
        if let Some(f) = &mut self.fault {
            if f.drop.strike() {
                self.stats.injected.inc();
                self.stats.dropped.inc();
                self.tracer
                    .emit(now, || TraceEvent::FaultInjected { site: FaultSite::NocDrop });
                return Ok(());
            }
            if f.delay.strike() {
                self.stats.delayed.inc();
                ready_at = ready_at.plus(f.delay.magnitude());
                self.tracer
                    .emit(now, || TraceEvent::FaultInjected { site: FaultSite::NocDelay });
            }
        }
        if let Some(f) = &mut self.xbar_fault {
            if f.drop.strike() {
                self.stats.injected.inc();
                self.stats.dropped.inc();
                self.tracer
                    .emit(now, || TraceEvent::FaultInjected { site: FaultSite::XbarDrop });
                return Ok(());
            }
            if f.delay.strike() {
                self.stats.delayed.inc();
                ready_at = ready_at.plus(f.delay.magnitude());
                self.tracer
                    .emit(now, || TraceEvent::FaultInjected { site: FaultSite::XbarDelay });
            }
        }
        self.admit(ready_at, now, src, dst, flits, payload)
    }

    /// Advances the whole fabric one cycle, in a fixed deterministic
    /// order: global-mesh arrivals feed crossbar mesh ports, crossbars
    /// switch, staged mesh-side packets feed the global mesh, and the
    /// mesh routes. A switch traversal that lands on a tile port is a
    /// final delivery on the spot; one that lands on the mesh port joins
    /// its cluster's staging queue.
    ///
    /// Steps 1–3 visit only the clusters with mesh ejections waiting,
    /// packets in their crossbar or packets staged, in ascending cluster
    /// order; an idle cluster's only per-cycle state is the round-robin
    /// pointer, which every crossbar shares. Step 4 is [`Mesh::tick`],
    /// which visits only routers holding packets.
    pub fn tick(&mut self, now: Cycle) {
        let mesh_port = self.mesh_port();
        let start = self.xbar_rr;
        self.xbar_rr = (start + 1) % (mesh_port + 1);
        // 1. Mesh ejections enter the destination cluster's crossbar
        //    through its mesh port (order-preserving; anything the
        //    crossbar cannot take stays queued on the mesh side). The
        //    mesh router index is the cluster index.
        let mut ejecting = std::mem::take(&mut self.ejecting);
        self.mesh.pending_nodes(&mut ejecting);
        for &ci in &ejecting {
            self.active.insert(ci);
            while self.xbars[ci].can_inject(mesh_port) {
                let Some(env) = self.mesh.take_one_at(ci) else {
                    break;
                };
                let out = self.slots[env.dst].port;
                let flits = env.flits;
                self.xbars[ci]
                    .inject(now, mesh_port, out, flits, env)
                    .ok()
                    .expect("can_inject checked");
            }
        }
        self.ejecting = ejecting;
        let mut clusters = std::mem::take(&mut self.clusters);
        self.active.drain_sorted(&mut clusters);
        // 2. Switch every busy cluster. Landed traversals go to their
        //    tile's deliveries or the cluster's staging queue.
        for &ci in &clusters {
            let (delivered, stats, slots) = (&mut self.delivered, &mut self.stats, &self.slots);
            let (staged, staged_len) = (&mut self.staged[ci], &mut self.staged_len);
            self.xbars[ci].step(now, start, |out, env| {
                if out == mesh_port {
                    staged.push_back(env);
                    *staged_len += 1;
                    return;
                }
                debug_assert_eq!(slots[env.dst].port, out, "crossbar delivered to wrong tile");
                stats.delivered.inc();
                stats.hops.add(env.hops);
                stats.latency.record(now.since(env.injected_at));
                delivered.push(env.dst, env.payload);
            });
        }
        // 3. Staged packets enter the global mesh, with backpressure.
        for &ci in &clusters {
            let cc = self.cluster_coords[ci];
            while let Some(env) = self.staged[ci].front() {
                if !self.mesh.can_inject(cc) {
                    break;
                }
                let dst_cluster = self.cluster_coords[self.slots[env.dst].cluster];
                let env = self.staged[ci].pop_front().expect("peeked");
                self.staged_len -= 1;
                let flits = env.flits;
                self.mesh
                    .inject(now, cc, dst_cluster, flits, env)
                    .ok()
                    .expect("can_inject checked");
            }
            if !self.xbars[ci].is_quiescent() || !self.staged[ci].is_empty() {
                self.active.insert(ci);
            }
        }
        self.clusters = clusters;
        // 4. Route the global mesh.
        self.mesh.tick(now);
    }

    /// Earliest cycle at or after `now` at which ticking could matter.
    /// Conservative like [`Mesh::next_event`]: any in-flight packet
    /// pins the horizon to `now`.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_quiescent() {
            None
        } else {
            Some(now)
        }
    }

    /// Catches arbitration pointers up over skipped quiescent cycles:
    /// one modular add each for the mesh and the shared crossbar pointer.
    pub fn skip(&mut self, cycles: u64) {
        self.mesh.skip(cycles);
        let ports = self.mesh_port() + 1;
        self.xbar_rr = (self.xbar_rr + (cycles % ports as u64) as usize) % ports;
    }

    /// Removes and returns every payload delivered at tile `node`.
    pub fn take_delivered(&mut self, node: Coord) -> Vec<T> {
        let i = self.tile_index(node);
        self.delivered.take_all(i)
    }

    /// Removes and returns at most one delivered payload at `node`.
    pub fn take_one_delivered(&mut self, node: Coord) -> Option<T> {
        let i = self.tile_index(node);
        self.delivered.take_one(i)
    }

    /// Fills `into` (cleared first) with every tile holding undrained
    /// deliveries, in row-major order. Costs O(such tiles), not O(fabric).
    pub fn delivered_tiles(&mut self, into: &mut Vec<Coord>) {
        let mut tiles = std::mem::take(&mut self.clusters);
        self.delivered.pending(&mut tiles);
        into.clear();
        into.extend(tiles.iter().map(|&t| self.tile_coords[t]));
        self.clusters = tiles;
    }

    /// Packets inside the fabric, not yet delivered to a tile: in the
    /// global mesh, ejected from it but waiting at a full crossbar mesh
    /// port, in a crossbar, or staged for the mesh. Every cluster whose
    /// crossbar holds a packet is on the worklist, so this costs
    /// O(busy clusters).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.mesh.in_flight()
            + self.mesh.undrained()
            + self.staged_len
            + self
                .active
                .as_slice()
                .iter()
                .map(|&ci| self.xbars[ci].in_flight())
                .sum::<usize>()
    }

    /// Whether the fabric holds no packets anywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.delivered.len() == 0 && self.in_flight() == 0
    }

    /// Router and crossbar arbitrations performed since construction:
    /// [`Mesh::visits`] plus one per crossbar per tick in which one of
    /// its inputs held a packet.
    #[must_use]
    pub fn visits(&self) -> u64 {
        self.mesh.visits() + self.xbars.iter().map(Crossbar::visits).sum::<u64>()
    }

    /// Fabric-level aggregate statistics (inject-to-final-delivery).
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// Statistics of the inter-cluster mesh alone (cluster-granular).
    #[must_use]
    pub fn global_mesh_stats(&self) -> &MeshStats {
        self.mesh.stats()
    }
}

/// The interconnect a SoC holds: either the historical flat mesh or the
/// clustered two-level fabric. Flat configurations (no cluster config,
/// or a 1×1 cluster grid) take the [`Fabric::Flat`] arm and run the
/// untouched [`Mesh`] code — byte-identical to every pre-hierarchy
/// simulation by construction.
#[derive(Debug)]
pub enum Fabric<T> {
    /// One flat W×H mesh over all tiles (the historical topology).
    Flat(Box<Mesh<T>>),
    /// Clusters on local crossbars, bridged by the global mesh.
    Clustered(Box<ClusteredNoc<T>>),
}
// Both variants are boxed: each holds hundreds of bytes of queue and
// stats state, and the SoC embeds one `Fabric` per system, so the enum
// should cost a pointer, not the larger of the two footprints.

impl<T> Fabric<T> {
    /// A flat fabric over the given mesh configuration.
    #[must_use]
    pub fn flat(cfg: MeshConfig) -> Self {
        Fabric::Flat(Box::new(Mesh::new(cfg)))
    }

    /// A clustered fabric over the given topology.
    #[must_use]
    pub fn clustered(topo: ClusterTopology, xbar_latency: u64) -> Self {
        Fabric::Clustered(Box::new(ClusteredNoc::new(topo, xbar_latency)))
    }

    /// Whether this fabric is the clustered variant.
    #[must_use]
    pub fn is_clustered(&self) -> bool {
        matches!(self, Fabric::Clustered(_))
    }

    /// Installs the end-to-end NoC fault schedules.
    pub fn set_fault(&mut self, fault: NocFault) {
        match self {
            Fabric::Flat(m) => m.set_fault(fault),
            Fabric::Clustered(c) => c.set_fault(fault),
        }
    }

    /// Installs the crossbar-local fault schedules (no-op on a flat
    /// fabric, which has no crossbars).
    pub fn set_xbar_fault(&mut self, fault: XbarFault) {
        if let Fabric::Clustered(c) = self {
            c.set_xbar_fault(fault);
        }
    }

    /// Installs an observability tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        match self {
            Fabric::Flat(m) => m.set_tracer(tracer),
            Fabric::Clustered(c) => c.set_tracer(tracer),
        }
    }

    /// Injects a packet at tile `src` for tile `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] when the source's injection queue is
    /// full; callers retry on a later cycle.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        match self {
            Fabric::Flat(m) => m.inject(now, src, dst, flits, payload),
            Fabric::Clustered(c) => c.inject(now, src, dst, flits, payload),
        }
    }

    /// Injects subject to the installed fault schedules.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] as [`Fabric::inject`] does.
    pub fn inject_unreliable(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        match self {
            Fabric::Flat(m) => m.inject_unreliable(now, src, dst, flits, payload),
            Fabric::Clustered(c) => c.inject_unreliable(now, src, dst, flits, payload),
        }
    }

    /// Whether a new packet can currently be injected at `src`.
    #[must_use]
    pub fn can_inject(&self, src: Coord) -> bool {
        match self {
            Fabric::Flat(m) => m.can_inject(src),
            Fabric::Clustered(c) => c.can_inject(src),
        }
    }

    /// Advances the fabric one cycle. The host cost is proportional to
    /// the packets in flight: only routers and clusters holding packets
    /// are visited (see [`Mesh::tick`] and [`ClusteredNoc::tick`]).
    pub fn tick(&mut self, now: Cycle) {
        match self {
            Fabric::Flat(m) => m.tick(now),
            Fabric::Clustered(c) => c.tick(now),
        }
    }

    /// Event horizon: `None` when quiescent, else `now`.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            Fabric::Flat(m) => m.next_event(now),
            Fabric::Clustered(c) => c.next_event(now),
        }
    }

    /// Catches per-cycle arbitration state up over skipped cycles: the
    /// shared round-robin pointers advance by one modular add each.
    pub fn skip(&mut self, cycles: u64) {
        match self {
            Fabric::Flat(m) => m.skip(cycles),
            Fabric::Clustered(c) => c.skip(cycles),
        }
    }

    /// Removes and returns every payload delivered at tile `node`.
    pub fn take_delivered(&mut self, node: Coord) -> Vec<T> {
        match self {
            Fabric::Flat(m) => m.take_delivered(node),
            Fabric::Clustered(c) => c.take_delivered(node),
        }
    }

    /// Removes and returns at most one delivered payload at `node`.
    pub fn take_one_delivered(&mut self, node: Coord) -> Option<T> {
        match self {
            Fabric::Flat(m) => m.take_one_delivered(node),
            Fabric::Clustered(c) => c.take_one_delivered(node),
        }
    }

    /// Fills `into` (cleared first) with every tile holding undrained
    /// deliveries, in row-major order.
    pub fn delivered_tiles(&mut self, into: &mut Vec<Coord>) {
        match self {
            Fabric::Flat(m) => m.delivered_tiles(into),
            Fabric::Clustered(c) => c.delivered_tiles(into),
        }
    }

    /// Router and crossbar arbitrations performed since construction: a
    /// deterministic measure of the fabric's host work, proportional to
    /// packets in flight rather than to tiles.
    #[must_use]
    pub fn visits(&self) -> u64 {
        match self {
            Fabric::Flat(m) => m.visits(),
            Fabric::Clustered(c) => c.visits(),
        }
    }

    /// Packets currently buffered anywhere in the fabric.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        match self {
            Fabric::Flat(m) => m.in_flight(),
            Fabric::Clustered(c) => c.in_flight(),
        }
    }

    /// Whether the fabric holds no packets anywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        match self {
            Fabric::Flat(m) => m.is_quiescent(),
            Fabric::Clustered(c) => c.is_quiescent(),
        }
    }

    /// End-to-end aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        match self {
            Fabric::Flat(m) => m.stats(),
            Fabric::Clustered(c) => c.stats(),
        }
    }

    /// Inter-cluster mesh statistics, when clustered.
    #[must_use]
    pub fn global_mesh_stats(&self) -> Option<&MeshStats> {
        match self {
            Fabric::Flat(_) => None,
            Fabric::Clustered(c) => Some(c.global_mesh_stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo2x2() -> ClusterTopology {
        // 4 clusters of 2×2 tiles → a 4×4 global grid.
        ClusterTopology::new(2, 2, 2, 2)
    }

    fn drain_all(f: &mut ClusteredNoc<u32>, now: Cycle) -> Vec<(Coord, u32)> {
        let mut out = Vec::new();
        let _ = now;
        for y in 0..f.topology().total_height() {
            for x in 0..f.topology().total_width() {
                let c = Coord::new(x, y);
                for v in f.take_delivered(c) {
                    out.push((c, v));
                }
            }
        }
        out
    }

    #[test]
    fn topology_mapping_roundtrips() {
        let t = topo2x2();
        assert_eq!(t.total_tiles(), 16);
        assert_eq!(t.tiles_per_cluster(), 4);
        for y in 0..4u16 {
            for x in 0..4u16 {
                let tile = Coord::new(x, y);
                let ci = t.cluster_index_of(tile);
                let port = t.local_port(tile);
                assert_eq!(t.tile_at(ci, port), tile, "roundtrip of {tile}");
            }
        }
        assert_eq!(t.cluster_of(Coord::new(3, 3)), Coord::new(1, 1));
    }

    #[test]
    fn intra_cluster_delivery_is_one_switch_traversal() {
        let mut f: ClusteredNoc<u32> = ClusteredNoc::new(topo2x2(), 1);
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 1); // same cluster
        f.inject(Cycle(0), src, dst, 1, 7).unwrap();
        f.tick(Cycle(0));
        assert!(f.take_delivered(dst).is_empty(), "in the switch at t=0");
        f.tick(Cycle(1));
        assert_eq!(f.take_delivered(dst), vec![7]);
        assert_eq!(f.stats().hops.get(), 1);
        assert!(f.is_quiescent());
    }

    #[test]
    fn inter_cluster_delivery_crosses_the_global_mesh() {
        let mut f: ClusteredNoc<u32> = ClusteredNoc::new(topo2x2(), 1);
        let src = Coord::new(0, 0); // cluster (0,0)
        let dst = Coord::new(3, 3); // cluster (1,1)
        f.inject(Cycle(0), src, dst, 1, 42).unwrap();
        let mut arrival = None;
        for t in 0..40u64 {
            f.tick(Cycle(t));
            if let Some(v) = f.take_one_delivered(dst) {
                arrival = Some((t, v));
                break;
            }
        }
        let (t, v) = arrival.expect("delivered");
        assert_eq!(v, 42);
        // switch + 2 mesh hops + switch: strictly more than local.
        assert!(t >= 4, "inter-cluster cannot be as fast as local, got {t}");
        assert_eq!(f.stats().hops.get(), 2 + 2, "xbar + 2 mesh hops + xbar");
        assert_eq!(f.stats().delivered.get(), 1);
        assert!(f.is_quiescent());
    }

    #[test]
    fn all_pairs_delivered_exactly_once() {
        let t = topo2x2();
        let mut f: ClusteredNoc<u32> = ClusteredNoc::new(t, 1);
        let mut now = Cycle(0);
        let mut expected = std::collections::HashMap::new();
        let mut id = 0u32;
        for sy in 0..4u16 {
            for sx in 0..4u16 {
                for dy in 0..4u16 {
                    for dx in 0..4u16 {
                        let s = Coord::new(sx, sy);
                        let d = Coord::new(dx, dy);
                        loop {
                            match f.inject(now, s, d, 1, id) {
                                Ok(()) => break,
                                Err(_) => {
                                    f.tick(now);
                                    now += 1;
                                }
                            }
                        }
                        expected.insert(id, d);
                        id += 1;
                    }
                }
            }
        }
        let mut got = 0usize;
        for _ in 0..4000 {
            f.tick(now);
            for (c, v) in drain_all(&mut f, now) {
                assert_eq!(expected[&v], c, "packet {v} delivered to wrong tile");
                got += 1;
            }
            now += 1;
            if got == expected.len() {
                break;
            }
        }
        assert_eq!(got, expected.len(), "every packet delivered exactly once");
        assert!(f.is_quiescent());
        assert_eq!(f.stats().delivered.get(), expected.len() as u64);
        assert_eq!(f.stats().injected.get(), expected.len() as u64);
    }

    #[test]
    fn same_pair_traffic_is_never_reordered() {
        let mut f: ClusteredNoc<u32> = ClusteredNoc::new(topo2x2(), 1);
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 0); // other cluster
        let mut now = Cycle(0);
        for i in 0..6 {
            loop {
                match f.inject(now, src, dst, 1, i) {
                    Ok(()) => break,
                    Err(_) => {
                        f.tick(now);
                        now += 1;
                    }
                }
            }
            f.tick(now);
            now += 1;
        }
        let mut seen = Vec::new();
        for _ in 0..60 {
            f.tick(now);
            seen.extend(f.take_delivered(dst));
            now += 1;
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn skip_matches_dense_idle_rotation() {
        let mut dense: ClusteredNoc<u32> = ClusteredNoc::new(topo2x2(), 1);
        let mut skipped: ClusteredNoc<u32> = ClusteredNoc::new(topo2x2(), 1);
        for t in 0..11u64 {
            dense.tick(Cycle(t));
        }
        skipped.skip(11);
        // Drive identical traffic afterwards; arbitration must match.
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        dense.inject(Cycle(11), src, dst, 1, 1).unwrap();
        skipped.inject(Cycle(11), src, dst, 1, 1).unwrap();
        for t in 11..20u64 {
            dense.tick(Cycle(t));
            skipped.tick(Cycle(t));
            assert_eq!(
                dense.take_delivered(dst),
                skipped.take_delivered(dst),
                "t={t}"
            );
        }
    }

    /// The 1024-tile fabric of the scaling sweep: 8×8 clusters of 4×4.
    fn kilotile() -> ClusterTopology {
        ClusterTopology::new(4, 4, 8, 8)
    }

    #[test]
    fn idle_kilotile_fabric_visits_nothing() {
        let mut f: Fabric<u32> = Fabric::clustered(kilotile(), 1);
        for t in 0..1000u64 {
            f.tick(Cycle(t));
        }
        assert_eq!(f.visits(), 0);
        assert!(f.is_quiescent());
    }

    #[test]
    fn corner_to_corner_packet_costs_o_hops_visits() {
        let mut f: Fabric<u32> = Fabric::clustered(kilotile(), 1);
        let (src, dst) = (Coord::new(0, 0), Coord::new(31, 31));
        f.inject(Cycle(0), src, dst, 1, 7).unwrap();
        let mut t = 0u64;
        while f.take_one_delivered(dst).is_none() {
            assert!(t < 1000, "packet never arrived");
            f.tick(Cycle(t));
            t += 1;
        }
        let hops = f.stats().hops.get();
        assert_eq!(hops, 2 + 14, "two switch legs and 14 mesh hops");
        // One arbitration per switch leg, one router visit per mesh hop,
        // one for the ejection: 17, against 64 routers plus 64 crossbars
        // per cycle for a full scan.
        assert_eq!(f.visits(), hops + 1);
        for k in 0..100 {
            f.tick(Cycle(t + k));
        }
        assert_eq!(f.visits(), hops + 1, "a drained fabric costs nothing");
    }

    #[test]
    fn fabric_flat_arm_is_the_plain_mesh() {
        let mut f: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 1));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        f.inject(Cycle(0), src, dst, 1, 5).unwrap();
        f.tick(Cycle(0));
        f.tick(Cycle(1));
        assert_eq!(f.take_delivered(dst), vec![5]);
        assert!(!f.is_clustered());
        assert!(f.global_mesh_stats().is_none());
    }

    #[test]
    fn xbar_fault_drops_only_clustered_traffic() {
        use maple_sim::fault::FaultPlaneConfig;
        let plane = FaultPlaneConfig::new(9).with_xbar_drop(1.0);
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
        f.set_xbar_fault(XbarFault::from_plane(&plane));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        for k in 0..5u64 {
            f.inject_unreliable(Cycle(k), src, dst, 1, k as u32).unwrap();
        }
        for t in 5..40u64 {
            f.tick(Cycle(t));
        }
        assert!(f.take_delivered(dst).is_empty(), "all dropped at the switch");
        assert_eq!(f.stats().dropped.get(), 5);
        assert_eq!(f.stats().injected.get(), 5);
        assert!(f.is_quiescent());
    }

    #[test]
    fn backpressure_returns_payload() {
        let mut f: ClusteredNoc<u32> = ClusteredNoc::new(topo2x2(), 1);
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 3);
        let mut refused = 0;
        for i in 0..20u32 {
            match f.inject(Cycle(0), src, dst, 1, i) {
                Ok(()) => {}
                Err(Backpressure(v)) => {
                    assert_eq!(v, i, "payload handed back intact");
                    refused += 1;
                }
            }
        }
        assert!(refused > 0, "8-deep input must refuse 20 back-to-back packets");
    }
}
