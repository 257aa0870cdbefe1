//! The interconnect a SoC holds: one router grid, optionally fronted by
//! clusters of tiles on single-cycle local crossbars.
//!
//! A flat fabric is one [`Mesh`] router per tile: the OpenPiton-style
//! P-Mesh. A clustered fabric is the MemPool-style two-level topology
//! that lets the model reach 256–1024 tiles, where a flat mesh would
//! charge tens of cycles for what physically is a neighbourhood access.
//! There every tile sits in a cluster served by one crossbar; traffic
//! that stays in the cluster takes one switch traversal, and traffic that
//! leaves goes crossbar → global [`Mesh`] (one router per *cluster*) →
//! crossbar.
//!
//! Both shapes are one [`Fabric`] whose crossbar layer is optional; only
//! admission and the tick tell them apart. A flat fabric's packets enter
//! the mesh at their tile's router and are delivered as the mesh ejects
//! them, so a 1×1-cluster configuration (which builds a flat fabric) is
//! byte-identical to the historical flat mesh.
//!
//! # Fault sites
//!
//! Packets injected through [`Fabric::inject_unreliable`] are subject to
//! the plane installed by [`Fabric::set_fault_plane`]: the NoC drop/delay
//! pair ([`NocFault`], the packet's end-to-end traversal) draws first,
//! then, on a clustered fabric, the crossbar pair ([`XbarFault`], the
//! local switch leg). Flat fabrics never construct the crossbar
//! schedules, so their chaos replay streams are unchanged.

use std::collections::VecDeque;

use maple_sim::fault::{FaultPlaneConfig, FaultSchedule};
use maple_sim::worklist::Worklist;
use maple_sim::Cycle;
use maple_trace::{FaultSite, TraceEvent, Tracer};

use crate::crossbar::{Crossbar, CrossbarConfig};
use crate::deliveries::Deliveries;
use crate::{Backpressure, Coord, Mesh, MeshConfig, MeshStats};

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
        Coord::new(
            cc.x * self.cluster_width + lx,
            cc.y * self.cluster_height + ly,
        )
    }

    /// Whether `tile` lies on the global grid.
    #[must_use]
    pub fn in_bounds(&self, tile: Coord) -> bool {
        tile.x < self.total_width() && tile.y < self.total_height()
    }
}

/// The NoC slice of the fault plane: drop and extra-delay schedules drawn
/// at injection for a packet's end-to-end traversal.
#[derive(Debug, Clone)]
pub struct NocFault {
    /// Packet-drop schedule.
    pub drop: FaultSchedule,
    /// Extra-delay schedule (magnitude = extra cycles).
    pub delay: FaultSchedule,
}

impl NocFault {
    /// Builds the NoC fault state from a plane configuration.
    #[must_use]
    pub fn from_plane(cfg: &FaultPlaneConfig) -> Self {
        NocFault {
            drop: cfg.noc_drop_schedule(),
            delay: cfg.noc_delay_schedule(),
        }
    }
}

/// The crossbar slice of the fault plane: drop and extra-delay schedules
/// drawn at injection for the local-switch leg of clustered traversals.
/// Flat fabrics never construct one, so their chaos replay streams are
/// untouched.
#[derive(Debug, Clone)]
pub struct XbarFault {
    /// Packet-drop schedule.
    pub drop: FaultSchedule,
    /// Extra-delay schedule (magnitude = extra cycles).
    pub delay: FaultSchedule,
}

impl XbarFault {
    /// Builds the crossbar fault state from a plane configuration.
    #[must_use]
    pub fn from_plane(cfg: &FaultPlaneConfig) -> Self {
        XbarFault {
            drop: cfg.xbar_drop_schedule(),
            delay: cfg.xbar_delay_schedule(),
        }
    }
}

/// Envelope carried through the router grid and the crossbars: the final
/// destination tile (row-major index) plus the accounting the end-to-end
/// stats need.
#[derive(Debug)]
struct Env<T> {
    dst: usize,
    flits: u8,
    injected_at: Cycle,
    hops: u64,
    payload: T,
}

/// Records a final delivery at tile `env.dst` during the tick at `now`.
fn deliver<T>(stats: &mut MeshStats, delivered: &mut Deliveries<T>, now: Cycle, env: Env<T>) {
    stats.delivered.inc();
    stats.hops.add(env.hops);
    stats.latency.record(now.since(env.injected_at));
    delivered.push(env.dst, env.payload);
}

/// Where a global tile sits in the hierarchy.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Row-major cluster index (also the cluster's global-mesh router).
    cluster: usize,
    /// Crossbar port within the cluster.
    port: usize,
}

/// The crossbar layer of a clustered fabric: one crossbar per cluster,
/// whose extra port (one past the tiles) faces the cluster's router.
#[derive(Debug)]
struct XbarLayer<T> {
    /// The mesh port of every cluster crossbar (one past the tiles).
    mesh_port: usize,
    xbars: Vec<Crossbar<Env<T>>>,
    /// Round-robin pointer shared by every crossbar: all of them rotate
    /// once per tick, so one pointer is the whole state.
    rr: usize,
    /// Clusters whose crossbar holds a packet or whose mesh-port staging
    /// queue is non-empty.
    active: Worklist,
    /// Scratch index buffers, reused so ticks never allocate.
    busy: Vec<usize>,
    ejecting: Vec<usize>,
    /// Per cluster: packets the router ejected, waiting (under
    /// backpressure) to enter the crossbar through its mesh port.
    arrived: Deliveries<Env<T>>,
    /// Per cluster: packets the crossbar switched to its mesh port,
    /// waiting (under backpressure) to enter the router grid.
    staged: Vec<VecDeque<Env<T>>>,
    /// Packets across every staging queue.
    staged_len: usize,
    /// Lookup tables built once, so no packet pays a division: each
    /// tile's cluster and port, and each cluster's grid coordinate.
    slots: Vec<Slot>,
    cluster_coords: Vec<Coord>,
    fault: Option<XbarFault>,
}

impl<T> XbarLayer<T> {
    fn new(topo: ClusterTopology, xbar_latency: u64, tiles: &[Coord]) -> Self {
        let xcfg = CrossbarConfig::new(topo.tiles_per_cluster() + 1).with_latency(xbar_latency);
        XbarLayer {
            mesh_port: topo.tiles_per_cluster(),
            xbars: (0..topo.clusters()).map(|_| Crossbar::new(xcfg)).collect(),
            rr: 0,
            active: Worklist::new(topo.clusters()),
            busy: Vec::new(),
            ejecting: Vec::new(),
            arrived: Deliveries::new(topo.clusters()),
            staged: (0..topo.clusters()).map(|_| VecDeque::new()).collect(),
            staged_len: 0,
            slots: tiles
                .iter()
                .map(|&t| Slot {
                    cluster: topo.cluster_index_of(t),
                    port: topo.local_port(t),
                })
                .collect(),
            cluster_coords: (0..topo.clusters())
                .map(|c| topo.cluster_coord(c))
                .collect(),
            fault: None,
        }
    }

    fn can_inject(&self, src: usize) -> bool {
        let slot = self.slots[src];
        self.xbars[slot.cluster].can_inject(slot.port)
    }

    /// Queues `env` at tile `src`'s crossbar input: one switch traversal
    /// intra-cluster; switch + mesh hops + switch when the route crosses
    /// clusters.
    fn admit(
        &mut self,
        ready_at: Cycle,
        src: usize,
        mut env: Env<T>,
    ) -> Result<(), Backpressure<Env<T>>> {
        let (from, to) = (self.slots[src], self.slots[env.dst]);
        let out_port = if from.cluster == to.cluster {
            env.hops = 1;
            to.port
        } else {
            let (sc, dc) = (
                self.cluster_coords[from.cluster],
                self.cluster_coords[to.cluster],
            );
            env.hops = 2 + sc.hops_to(dc);
            self.mesh_port
        };
        let flits = env.flits;
        self.xbars[from.cluster].inject(ready_at, from.port, out_port, flits, env)?;
        self.active.insert(from.cluster);
        Ok(())
    }

    /// One cycle of the clustered fabric, in a fixed deterministic order:
    /// router ejections feed crossbar mesh ports, crossbars switch, staged
    /// mesh-side packets feed the router grid, and the grid routes. A
    /// switch traversal that lands on a tile port is a final delivery on
    /// the spot; one that lands on the mesh port joins its cluster's
    /// staging queue.
    ///
    /// Steps 1–3 visit only the clusters with ejections waiting, packets
    /// in their crossbar or packets staged, in ascending cluster order; an
    /// idle cluster's only per-cycle state is the round-robin pointer,
    /// which every crossbar shares. Step 4 is [`Mesh::tick`], which visits
    /// only routers holding packets.
    fn tick(
        &mut self,
        now: Cycle,
        mesh: &mut Mesh<Env<T>>,
        stats: &mut MeshStats,
        delivered: &mut Deliveries<T>,
    ) {
        let mesh_port = self.mesh_port;
        let start = self.rr;
        self.rr = (start + 1) % (mesh_port + 1);
        // 1. Earlier ejections enter the destination cluster's crossbar
        //    through its mesh port (order-preserving; anything the
        //    crossbar cannot take stays queued on the mesh side). The
        //    router index is the cluster index.
        let mut ejecting = std::mem::take(&mut self.ejecting);
        self.arrived.pending(&mut ejecting);
        for &ci in &ejecting {
            self.active.insert(ci);
            while self.xbars[ci].can_inject(mesh_port) {
                let Some(env) = self.arrived.take_one(ci) else {
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
        let mut busy = std::mem::take(&mut self.busy);
        self.active.drain_sorted(&mut busy);
        // 2. Switch every busy cluster. Landed traversals go to their
        //    tile's deliveries or the cluster's staging queue.
        for &ci in &busy {
            let (staged, staged_len, slots) =
                (&mut self.staged[ci], &mut self.staged_len, &self.slots);
            self.xbars[ci].step(now, start, |out, env| {
                if out == mesh_port {
                    staged.push_back(env);
                    *staged_len += 1;
                    return;
                }
                debug_assert_eq!(slots[env.dst].port, out, "crossbar delivered to wrong tile");
                deliver(stats, delivered, now, env);
            });
        }
        // 3. Staged packets enter the router grid, with backpressure.
        for &ci in &busy {
            let cc = self.cluster_coords[ci];
            while let Some(env) = self.staged[ci].front() {
                if !mesh.can_inject(cc) {
                    break;
                }
                let dst_cluster = self.cluster_coords[self.slots[env.dst].cluster];
                let env = self.staged[ci].pop_front().expect("peeked");
                self.staged_len -= 1;
                let flits = env.flits;
                mesh.inject(now, cc, dst_cluster, flits, env)
                    .ok()
                    .expect("can_inject checked");
            }
            if !self.xbars[ci].is_quiescent() || !self.staged[ci].is_empty() {
                self.active.insert(ci);
            }
        }
        self.busy = busy;
        // 4. Route the grid; ejections wait for step 1 of a later tick.
        let arrived = &mut self.arrived;
        mesh.tick(now, |ci, env| arrived.push(ci, env));
    }

    /// Packets in the layer: ejected by the grid and waiting at a full
    /// crossbar mesh port, in a crossbar, or staged for the grid. Every
    /// cluster whose crossbar holds a packet is on the worklist, so this
    /// costs O(busy clusters).
    fn in_flight(&self) -> usize {
        self.arrived.len()
            + self.staged_len
            + self
                .active
                .as_slice()
                .iter()
                .map(|&ci| self.xbars[ci].in_flight())
                .sum::<usize>()
    }

    fn visits(&self) -> u64 {
        self.xbars.iter().map(Crossbar::visits).sum()
    }

    fn skip(&mut self, cycles: u64) {
        let ports = self.mesh_port + 1;
        self.rr = (self.rr + (cycles % ports as u64) as usize) % ports;
    }
}

/// The interconnect a SoC holds. See the module docs for the two shapes.
#[derive(Debug)]
pub struct Fabric<T> {
    /// Tile-grid width and height.
    width: u16,
    height: u16,
    /// The router grid: one router per tile when flat, one per cluster
    /// when clustered.
    mesh: Mesh<Env<T>>,
    /// The crossbar layer; `None` for a flat fabric.
    xbar: Option<XbarLayer<T>>,
    /// Final deliveries per tile (row-major).
    delivered: Deliveries<T>,
    /// Each tile's grid coordinate, built once so polling never divides.
    tile_coords: Vec<Coord>,
    /// Scratch index buffer, reused so polling never allocates.
    scratch: Vec<usize>,
    /// End-to-end statistics (inject to final delivery).
    stats: MeshStats,
    fault: Option<NocFault>,
    /// Observability tracer for fault events; the grid traces its hops.
    tracer: Tracer,
}

impl<T> Fabric<T> {
    fn build(mesh: Mesh<Env<T>>, width: u16, height: u16) -> Self {
        let tile_coords: Vec<Coord> = (0..height)
            .flat_map(|y| (0..width).map(move |x| Coord::new(x, y)))
            .collect();
        Fabric {
            width,
            height,
            mesh,
            xbar: None,
            delivered: Deliveries::new(tile_coords.len()),
            tile_coords,
            scratch: Vec::new(),
            stats: MeshStats::default(),
            fault: None,
            tracer: Tracer::disabled(),
        }
    }

    /// A flat fabric: one router per tile of the given mesh.
    ///
    /// # Panics
    ///
    /// Panics if [`Mesh::new`] rejects the configuration.
    #[must_use]
    pub fn flat(cfg: MeshConfig) -> Self {
        Self::build(Mesh::new(cfg), cfg.width, cfg.height)
    }

    /// A clustered fabric over the given topology. `xbar_latency` is the
    /// crossbar grant-to-delivery latency (1 = single-cycle local switch).
    #[must_use]
    pub fn clustered(topo: ClusterTopology, xbar_latency: u64) -> Self {
        let grid = Mesh::new(MeshConfig::new(topo.clusters_x, topo.clusters_y));
        let mut f = Self::build(grid, topo.total_width(), topo.total_height());
        f.xbar = Some(XbarLayer::new(topo, xbar_latency, &f.tile_coords));
        f
    }

    /// Installs the fault plane's interconnect schedules: the NoC pair
    /// always, the crossbar pair only on a clustered fabric. Only packets
    /// injected through [`Fabric::inject_unreliable`] are subject to them.
    pub fn set_fault_plane(&mut self, cfg: &FaultPlaneConfig) {
        self.fault = Some(NocFault::from_plane(cfg));
        if let Some(x) = &mut self.xbar {
            x.fault = Some(XbarFault::from_plane(cfg));
        }
    }

    /// Installs an observability tracer: router hops (with router
    /// coordinates) and fault-plane actions are recorded through it.
    /// Tracing never changes routing or timing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mesh.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn tile_index(&self, tile: Coord) -> usize {
        usize::from(tile.y) * usize::from(self.width) + usize::from(tile.x)
    }

    fn check(&self, src: Coord, dst: Coord, flits: u8) {
        let on_grid = |c: Coord| c.x < self.width && c.y < self.height;
        assert!(on_grid(src), "inject: src {src} out of bounds");
        assert!(on_grid(dst), "inject: dst {dst} out of bounds");
        assert!(flits > 0, "inject: packets need at least one flit");
    }

    /// Queues a packet at its entry point: the crossbar input of a
    /// clustered tile, or the tile's own router (XY routing is minimal,
    /// so the hop count is the Manhattan distance).
    fn admit(
        &mut self,
        ready_at: Cycle,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        let from = self.tile_index(src);
        let env = Env {
            dst: self.tile_index(dst),
            flits,
            injected_at: now,
            hops: src.hops_to(dst),
            payload,
        };
        match &mut self.xbar {
            None => self.mesh.inject(ready_at, src, dst, flits, env),
            Some(x) => x.admit(ready_at, from, env),
        }
        .map_err(|Backpressure(e)| Backpressure(e.payload))?;
        self.stats.injected.inc();
        Ok(())
    }

    /// Injects a packet of `flits` flits at tile `src` for tile `dst`.
    /// The packet may leave its entry buffer on the next tick.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] carrying the payload when the source's
    /// entry buffer is full; callers retry on a later cycle.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is off the tile grid or `flits == 0`.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        self.check(src, dst, flits);
        self.admit(now, now, src, dst, flits, payload)
    }

    /// Like [`Fabric::inject`], but subject to the installed fault plane:
    /// each installed slice, NoC then crossbar, draws drop and then delay.
    /// A dropped packet counts as injected and in [`MeshStats::dropped`];
    /// delays add up. Draws happen only after the backpressure check, so
    /// a refused retry never consumes randomness. Without an installed
    /// plane this is exactly [`Fabric::inject`].
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] as [`Fabric::inject`] does.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Fabric::inject`].
    pub fn inject_unreliable(
        &mut self,
        now: Cycle,
        src: Coord,
        dst: Coord,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        self.check(src, dst, flits);
        if !self.can_inject(src) {
            return Err(Backpressure(payload));
        }
        let noc = self.fault.as_mut().map(|f| {
            (
                &mut f.drop,
                &mut f.delay,
                FaultSite::NocDrop,
                FaultSite::NocDelay,
            )
        });
        let xbar = self.xbar.as_mut().and_then(|x| x.fault.as_mut()).map(|f| {
            (
                &mut f.drop,
                &mut f.delay,
                FaultSite::XbarDrop,
                FaultSite::XbarDelay,
            )
        });
        let mut ready_at = now;
        for (drop, delay, drop_site, delay_site) in noc.into_iter().chain(xbar) {
            if drop.strike() {
                // The packet entered the network and died there.
                self.stats.injected.inc();
                self.stats.dropped.inc();
                self.tracer
                    .emit(now, || TraceEvent::FaultInjected { site: drop_site });
                return Ok(());
            }
            if delay.strike() {
                self.stats.delayed.inc();
                ready_at = ready_at.plus(delay.magnitude());
                self.tracer
                    .emit(now, || TraceEvent::FaultInjected { site: delay_site });
            }
        }
        self.admit(ready_at, now, src, dst, flits, payload)
    }

    /// Whether a new packet can currently be injected at `src`.
    #[must_use]
    pub fn can_inject(&self, src: Coord) -> bool {
        match &self.xbar {
            None => self.mesh.can_inject(src),
            Some(x) => x.can_inject(self.tile_index(src)),
        }
    }

    /// Advances the fabric one cycle. The host cost is proportional to
    /// the packets in flight: only routers and clusters holding packets
    /// are visited. A flat fabric delivers each packet in the tick its
    /// router ejects it; a clustered one runs the crossbar layer around
    /// the grid's tick.
    pub fn tick(&mut self, now: Cycle) {
        let (stats, delivered) = (&mut self.stats, &mut self.delivered);
        match &mut self.xbar {
            None => self
                .mesh
                .tick(now, |_, env| deliver(stats, delivered, now, env)),
            Some(x) => x.tick(now, &mut self.mesh, stats, delivered),
        }
    }

    /// Earliest cycle at or after `now` at which ticking the fabric could
    /// have an observable effect, for the event-horizon scheduler.
    ///
    /// Conservative: any packet in flight or undrained delivery pins the
    /// horizon to `now`, because arbitration, serialization and
    /// backpressure interact per cycle. An empty fabric is quiescent; its
    /// only per-cycle state, the round-robin pointers, is caught up in
    /// bulk by [`Fabric::skip`].
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_quiescent() {
            None
        } else {
            Some(now)
        }
    }

    /// Catches per-cycle arbitration state up over skipped quiescent
    /// cycles: the shared round-robin pointers of the grid and of the
    /// crossbars advance by one modular add each, so the first
    /// arbitration after a gap matches ticking through it.
    pub fn skip(&mut self, cycles: u64) {
        self.mesh.skip(cycles);
        if let Some(x) = &mut self.xbar {
            x.skip(cycles);
        }
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
        let mut tiles = std::mem::take(&mut self.scratch);
        self.delivered.pending(&mut tiles);
        into.clear();
        into.extend(tiles.iter().map(|&t| self.tile_coords[t]));
        self.scratch = tiles;
    }

    /// Packets inside the fabric, not yet delivered to a tile.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.mesh.in_flight() + self.xbar.as_ref().map_or(0, XbarLayer::in_flight)
    }

    /// Whether the fabric holds no packets anywhere, delivered or not.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.delivered.len() == 0 && self.in_flight() == 0
    }

    /// Router and crossbar arbitrations performed since construction: one
    /// per router or crossbar per tick in which it held a packet. A
    /// deterministic measure of the fabric's host work, proportional to
    /// packets in flight rather than to tiles.
    #[must_use]
    pub fn visits(&self) -> u64 {
        self.mesh.visits() + self.xbar.as_ref().map_or(0, XbarLayer::visits)
    }

    /// End-to-end aggregate statistics (inject to final delivery).
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// Statistics of the inter-cluster router grid alone
    /// (cluster-granular); `None` for a flat fabric.
    #[must_use]
    pub fn global_mesh_stats(&self) -> Option<&MeshStats> {
        self.xbar.as_ref().map(|_| self.mesh.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo2x2() -> ClusterTopology {
        // 4 clusters of 2×2 tiles → a 4×4 global grid.
        ClusterTopology::new(2, 2, 2, 2)
    }

    fn drain_all(f: &mut Fabric<u32>) -> Vec<(Coord, u32)> {
        let mut out = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
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
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
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
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
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
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
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
            for (c, v) in drain_all(&mut f) {
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
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
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
        let mut dense: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
        let mut skipped: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
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
    fn flat_fabric_has_no_global_mesh() {
        let mut f: Fabric<u32> = Fabric::flat(MeshConfig::new(2, 1));
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        f.inject(Cycle(0), src, dst, 1, 5).unwrap();
        f.tick(Cycle(0));
        f.tick(Cycle(1));
        assert_eq!(f.take_delivered(dst), vec![5]);
        assert!(f.global_mesh_stats().is_none());
    }

    #[test]
    fn xbar_fault_drops_only_clustered_traffic() {
        let plane = FaultPlaneConfig::new(9).with_xbar_drop(1.0);
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 0);
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
        f.set_fault_plane(&plane);
        for k in 0..5u64 {
            f.inject_unreliable(Cycle(k), src, dst, 1, k as u32)
                .unwrap();
        }
        for t in 5..40u64 {
            f.tick(Cycle(t));
        }
        assert!(
            f.take_delivered(dst).is_empty(),
            "all dropped at the switch"
        );
        assert_eq!(f.stats().dropped.get(), 5);
        assert_eq!(f.stats().injected.get(), 5);
        assert!(f.is_quiescent());
        // A flat fabric has no switch, so the same plane drops nothing.
        let mut f: Fabric<u32> = Fabric::flat(MeshConfig::new(4, 4));
        f.set_fault_plane(&plane);
        for k in 0..5u64 {
            f.inject_unreliable(Cycle(k), src, dst, 1, k as u32)
                .unwrap();
            f.tick(Cycle(k));
        }
        let mut got = Vec::new();
        for t in 5..40u64 {
            f.tick(Cycle(t));
            got.extend(f.take_delivered(dst));
        }
        assert_eq!(got, [0, 1, 2, 3, 4], "every flat packet delivered");
        assert_eq!(f.stats().dropped.get(), 0);
        assert_eq!(f.stats().delivered.get(), 5);
        assert!(f.is_quiescent());
    }

    #[test]
    fn backpressure_returns_payload() {
        let mut f: Fabric<u32> = Fabric::clustered(topo2x2(), 1);
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
        assert!(
            refused > 0,
            "8-deep input must refuse 20 back-to-back packets"
        );
    }
}
