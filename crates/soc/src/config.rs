//! SoC configurations: the paper's Table 2 (FPGA prototype) and Table 3
//! (simulated system), plus the knobs the sensitivity studies sweep.

use maple_baselines::droplet::DropletConfig;
use maple_core::MapleConfig;
use maple_cpu::CpuConfig;
use maple_mem::dram::DramConfig;
use maple_mem::l2::L2Config;
use maple_noc::{ClusterTopology, Coord};
use maple_sim::fault::FaultPlaneConfig;
use maple_trace::TraceConfig;

/// Physical base address of the MAPLE instance pages.
pub const MAPLE_PA_BASE: u64 = 0xF000_0000;

/// The two-level hierarchical fabric configuration (MemPool-style):
/// tiles grouped into clusters on single-cycle local crossbars, clusters
/// bridged by the global mesh, with an address-interleaved multi-bank L2
/// and per-cluster MAPLE pools.
///
/// A 1×1 cluster grid is the degenerate hierarchy: the SoC then builds
/// the historical flat mesh (same code path, byte-identical behavior),
/// so `Some(ClusterConfig::flat_equivalent(..))` and `None` simulate
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Tiles each cluster must hold (the cluster sub-grid is the
    /// smallest square-ish grid with at least this capacity).
    pub tiles_per_cluster: usize,
    /// Clusters across the SoC.
    pub clusters_x: u16,
    /// Clusters down the SoC.
    pub clusters_y: u16,
    /// Crossbar grant-to-delivery latency (1 = single-cycle local
    /// switch, the paper-scale design point).
    pub xbar_latency: u64,
    /// Address-interleaved L2 banks; bank `b` lives in cluster `b`, so
    /// this must not exceed the cluster count.
    pub l2_banks: usize,
}

impl ClusterConfig {
    /// A `clusters_x` × `clusters_y` grid of clusters of at least
    /// `tiles_per_cluster` tiles each, with a single-cycle crossbar and
    /// one L2 bank per cluster.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    #[must_use]
    pub fn new(tiles_per_cluster: usize, clusters_x: u16, clusters_y: u16) -> Self {
        assert!(tiles_per_cluster > 0, "clusters need at least one tile");
        assert!(
            clusters_x > 0 && clusters_y > 0,
            "cluster grid must be non-empty"
        );
        ClusterConfig {
            tiles_per_cluster,
            clusters_x,
            clusters_y,
            xbar_latency: 1,
            l2_banks: usize::from(clusters_x) * usize::from(clusters_y),
        }
    }

    /// Overrides the number of L2 banks (≥ 1, ≤ cluster count).
    #[must_use]
    pub fn with_l2_banks(mut self, banks: usize) -> Self {
        self.l2_banks = banks;
        self
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        usize::from(self.clusters_x) * usize::from(self.clusters_y)
    }

    /// The cluster sub-grid shape: the smallest square-ish grid with at
    /// least `tiles_per_cluster` tiles (matches the square meshes
    /// [`SocConfig::with_cores`] builds, so a 1×1 cluster grid over an
    /// existing flat config reproduces its mesh exactly).
    #[must_use]
    pub fn cluster_shape(&self) -> (u16, u16) {
        let mut w = 1u16;
        while usize::from(w) * usize::from(w) < self.tiles_per_cluster {
            w += 1;
        }
        let h = self.tiles_per_cluster.div_ceil(usize::from(w)) as u16;
        (w, h)
    }

    /// The fabric topology this configuration describes.
    #[must_use]
    pub fn topology(&self) -> ClusterTopology {
        let (w, h) = self.cluster_shape();
        ClusterTopology::new(w, h, self.clusters_x, self.clusters_y)
    }
}

/// Complete system configuration.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// Mesh width in tiles (u16: kilotile fabrics exceed a u8 axis; see
    /// `maple_noc::MAX_NODES` for the hard ceiling).
    pub mesh_width: u16,
    /// Mesh height in tiles.
    pub mesh_height: u16,
    /// Number of core tiles.
    pub cores: usize,
    /// Number of MAPLE tiles.
    pub maples: usize,
    /// Core parameters (contains the L1 configuration).
    pub cpu: CpuConfig,
    /// Shared L2 parameters.
    pub l2: L2Config,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// MAPLE engine parameters.
    pub maple: MapleConfig,
    /// Tile-to-NoC path latency (L1.5 + NoC encoder in OpenPiton terms),
    /// charged on every outbound message.
    pub uncore_latency: u64,
    /// Extra cycles added to the MAPLE pipelines, split between decode and
    /// respond — the Figure 15 communication-latency knob.
    pub maple_extra_latency: u64,
    /// OS page-fault service time in cycles.
    pub fault_latency: u64,
    /// Optional DROPLET memory-side prefetcher at the L2.
    pub droplet: Option<DropletConfig>,
    /// Capacity of DeSC coupled queues when a pair is enabled.
    pub desc_queue_capacity: usize,
    /// Explicit MAPLE tile coordinates, overriding the default packing —
    /// the Section 5.3 placement discussion ("MAPLE instances are often
    /// scattered across the X and Y tile axes so that MAPLE are near
    /// cores").
    pub maple_tile_override: Option<Vec<(u16, u16)>>,
    /// Two-level hierarchical fabric (clusters on local crossbars bridged
    /// by the global mesh, banked L2, per-cluster MAPLE pools). `None`
    /// (the default) is the historical flat mesh; a 1×1 cluster grid is
    /// byte-identical to it by construction (DESIGN.md §14).
    pub cluster: Option<ClusterConfig>,
    /// Deterministic fault-injection plane; `None` (the default) keeps
    /// every run fault-free and timing-identical to a build without the
    /// plane.
    pub fault: Option<FaultPlaneConfig>,
    /// Cycle-level event tracing; `None` (the default) records nothing
    /// and is cycle-identical to a traced run (tracing is pure
    /// observation).
    pub trace: Option<TraceConfig>,
    /// Drive `System::run` with the dense cycle-by-cycle reference loop
    /// instead of the event-horizon skipping scheduler. The two steppers
    /// are bit-exact by contract (enforced by the stepper differential
    /// suite); this switch exists for that suite and for host-throughput
    /// comparisons.
    pub dense_stepper: bool,
}

impl SocConfig {
    /// Table 2: the FPGA prototype — 2 Ariane cores, 1 MAPLE (1 KB
    /// scratchpad), 8 KB 4-way 2-cycle L1, 64 KB 8-way 30-cycle shared
    /// L2, 300-cycle DRAM.
    #[must_use]
    pub fn fpga_prototype() -> Self {
        SocConfig {
            mesh_width: 2,
            mesh_height: 2,
            cores: 2,
            maples: 1,
            cpu: CpuConfig::default(),
            l2: L2Config::default(),
            dram: DramConfig::default(),
            maple: MapleConfig::default(),
            uncore_latency: 7,
            maple_extra_latency: 0,
            fault_latency: 1200,
            droplet: None,
            desc_queue_capacity: 32,
            maple_tile_override: None,
            cluster: None,
            fault: None,
            trace: None,
            dense_stepper: false,
        }
    }

    /// Table 3: the simulated system used for the prior-work comparison —
    /// identical memory timing, instruction window of 1.
    #[must_use]
    pub fn simulated_system() -> Self {
        // The two platforms intentionally share their timing parameters
        // (the paper matched the simulator to the SoC configuration).
        Self::fpga_prototype()
    }

    /// Scales the mesh and core count (threads share the single MAPLE, as
    /// in Figure 13).
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        let tiles = cores + 1 + self.maples;
        // Smallest square-ish mesh that fits.
        let mut w = 2u16;
        while usize::from(w) * usize::from(w) < tiles {
            w += 1;
        }
        self.mesh_width = w;
        self.mesh_height = w;
        self
    }

    /// Adds MAPLE instances (scaled experiments).
    #[must_use]
    pub fn with_maples(mut self, maples: usize) -> Self {
        self.maples = maples;
        let cores = self.cores;
        self.with_cores(cores)
    }

    /// Arranges the SoC as a two-level hierarchical fabric: tiles
    /// grouped into clusters on single-cycle local crossbars, clusters
    /// bridged by the global mesh, L2 banks interleaved across clusters
    /// by line address, and MAPLE instances pooled per cluster.
    ///
    /// The mesh dimensions are recomputed from the cluster grid (they
    /// remain the single source of truth for the global tile grid), and
    /// cores/MAPLEs are redistributed evenly across clusters by
    /// [`SocConfig::layout`]. A 1×1 cluster grid whose cluster shape
    /// matches the flat mesh simulates byte-identically to `None`.
    ///
    /// # Panics
    ///
    /// Panics when the bank count is zero or exceeds the cluster count,
    /// when the clusters cannot hold the configured components, or when
    /// a `maple_tile_override` is set (placement is cluster-derived in
    /// hierarchical fabrics).
    #[must_use]
    pub fn with_clusters(mut self, cluster: ClusterConfig) -> Self {
        assert!(
            cluster.l2_banks >= 1 && cluster.l2_banks <= cluster.clusters(),
            "l2_banks must be in 1..={} (one bank per cluster at most), got {}",
            cluster.clusters(),
            cluster.l2_banks
        );
        assert!(
            self.maple_tile_override.is_none(),
            "maple_tile_override and clustering are mutually exclusive: \
             hierarchical placement is derived from the cluster grid"
        );
        let (cw, ch) = cluster.cluster_shape();
        self.mesh_width = cluster.clusters_x * cw;
        self.mesh_height = cluster.clusters_y * ch;
        self.cluster = Some(cluster);
        // Surface capacity violations at configuration time.
        let _ = self.layout();
        self
    }

    /// Number of L2 banks (1 for flat configurations).
    #[must_use]
    pub fn n_l2_banks(&self) -> usize {
        self.cluster.map_or(1, |c| c.l2_banks)
    }

    /// The hierarchical fabric topology, when this configuration actually
    /// exercises the clustered NoC. A missing or 1×1 cluster grid returns
    /// `None`: the SoC then builds the plain flat mesh (the degenerate
    /// hierarchy is byte-identical to it by construction).
    #[must_use]
    pub fn fabric_topology(&self) -> Option<ClusterTopology> {
        self.cluster
            .filter(|c| c.clusters() > 1)
            .map(|c| c.topology())
    }

    /// Sets the Figure 15 communication-latency knob.
    #[must_use]
    pub fn with_maple_extra_latency(mut self, cycles: u64) -> Self {
        self.maple_extra_latency = cycles;
        self
    }

    /// Sets the queue shape (Section 5.3 queue-size sweep).
    #[must_use]
    pub fn with_queue_entries(mut self, entries: usize) -> Self {
        self.maple.default_entries = entries;
        // Keep the shipped 8-queue shape; shrink the count if the
        // scratchpad cannot hold 8 queues of this size.
        let bytes_per_queue = entries * usize::from(self.maple.default_entry_bytes);
        let max_queues = (self.maple.scratchpad_bytes as usize / bytes_per_queue).max(1);
        self.maple.queues = self.maple.queues.min(max_queues);
        self
    }

    /// Enables the DROPLET comparator.
    #[must_use]
    pub fn with_droplet(mut self, cfg: DropletConfig) -> Self {
        self.droplet = Some(cfg);
        self
    }

    /// Installs the deterministic fault-injection plane.
    #[must_use]
    pub fn with_fault_plane(mut self, fault: FaultPlaneConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Enables cycle-level event tracing (see `maple-trace`). Traced runs
    /// are cycle-count identical to untraced ones — tracing only
    /// observes.
    #[must_use]
    pub fn with_tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Selects the dense cycle-by-cycle reference stepper for
    /// `System::run` instead of the default event-horizon skipping
    /// scheduler. Bit-exact with the default (enforced by the stepper
    /// differential suite) — only host throughput differs.
    #[must_use]
    pub fn with_dense_stepper(mut self) -> Self {
        self.dense_stepper = true;
        self
    }

    /// Total tiles used by this configuration (every L2 bank occupies a
    /// tile; flat configurations have exactly one).
    #[must_use]
    pub fn tiles_used(&self) -> usize {
        self.cores + self.n_l2_banks() + self.maples
    }

    /// The fixed tile layout.
    ///
    /// Flat: cores first (row-major), then the L2 tile, then MAPLE
    /// tiles. Clustered: components are distributed cluster-major —
    /// cluster `c` gets an even share of the cores, L2 bank `c` (when
    /// `c < l2_banks`), and an even share of the MAPLEs, packed in that
    /// order onto the cluster's row-major local ports. With one cluster
    /// whose shape matches the flat mesh the two layouts coincide
    /// exactly (the byte-identity anchor of DESIGN.md §14).
    #[must_use]
    pub fn layout(&self) -> TileLayout {
        let nodes = usize::from(self.mesh_width) * usize::from(self.mesh_height);
        assert!(
            self.tiles_used() <= nodes,
            "{} tiles needed but the {}x{} mesh has {}",
            self.tiles_used(),
            self.mesh_width,
            self.mesh_height,
            nodes
        );
        let layout = match &self.cluster {
            Some(cluster) => self.clustered_layout(cluster),
            None => self.flat_layout(),
        };
        // Placements must not collide across components.
        for m in &layout.maple_tiles {
            assert!(
                !layout.l2_tiles.contains(m) && !layout.core_tiles.contains(m),
                "MAPLE tile {m} collides with another component"
            );
        }
        layout
    }

    fn flat_layout(&self) -> TileLayout {
        let coord = |idx: usize| {
            Coord::new(
                (idx % usize::from(self.mesh_width)) as u16,
                (idx / usize::from(self.mesh_width)) as u16,
            )
        };
        let default_tiles: Vec<Coord> = (0..self.maples)
            .map(|i| coord(self.cores + 1 + i))
            .collect();
        let maple_tiles = match &self.maple_tile_override {
            Some(placement) => {
                assert_eq!(
                    placement.len(),
                    self.maples,
                    "placement must name every MAPLE instance"
                );
                placement.iter().map(|&(x, y)| Coord::new(x, y)).collect()
            }
            None => default_tiles,
        };
        TileLayout {
            core_tiles: (0..self.cores).map(coord).collect(),
            l2_tiles: vec![coord(self.cores)],
            maple_tiles,
        }
    }

    fn clustered_layout(&self, cluster: &ClusterConfig) -> TileLayout {
        let topo = cluster.topology();
        let n = topo.clusters();
        let share = |count: usize, c: usize| count / n + usize::from(c < count % n);
        let mut core_tiles = Vec::with_capacity(self.cores);
        let mut l2_tiles = Vec::with_capacity(cluster.l2_banks);
        let mut maple_tiles = Vec::with_capacity(self.maples);
        for c in 0..n {
            let cores_here = share(self.cores, c);
            let banks_here = usize::from(c < cluster.l2_banks);
            let maples_here = share(self.maples, c);
            let used = cores_here + banks_here + maples_here;
            assert!(
                used <= topo.tiles_per_cluster(),
                "cluster {c} needs {used} tiles but holds {}",
                topo.tiles_per_cluster()
            );
            let mut port = 0;
            for _ in 0..cores_here {
                core_tiles.push(topo.tile_at(c, port));
                port += 1;
            }
            if banks_here == 1 {
                l2_tiles.push(topo.tile_at(c, port));
                port += 1;
            }
            for _ in 0..maples_here {
                maple_tiles.push(topo.tile_at(c, port));
                port += 1;
            }
        }
        TileLayout {
            core_tiles,
            l2_tiles,
            maple_tiles,
        }
    }

    /// Physical base address of MAPLE instance `i`'s MMIO page.
    #[must_use]
    pub fn maple_page(&self, i: usize) -> u64 {
        MAPLE_PA_BASE + (i as u64) * maple_mem::PAGE_SIZE
    }
}

/// Where each component sits in the mesh.
#[derive(Debug, Clone)]
pub struct TileLayout {
    /// One coordinate per core.
    pub core_tiles: Vec<Coord>,
    /// One tile per L2 bank + its memory-controller slice; flat
    /// configurations have exactly one.
    pub l2_tiles: Vec<Coord>,
    /// One coordinate per MAPLE instance.
    pub maple_tiles: Vec<Coord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_prototype_matches_table2() {
        let c = SocConfig::fpga_prototype();
        assert_eq!(c.cores, 2);
        assert_eq!(c.maples, 1);
        assert_eq!(c.cpu.l1.size_bytes, 8 * 1024);
        assert_eq!(c.cpu.l1.ways, 4);
        assert_eq!(c.cpu.l1.hit_latency, 2);
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 30);
        assert_eq!(c.dram.latency, 300);
        assert_eq!(c.maple.scratchpad_bytes, 1024);
        assert_eq!(c.maple.queues, 8);
        assert_eq!(c.maple.default_entries, 32);
    }

    #[test]
    fn layout_is_disjoint() {
        let c = SocConfig::fpga_prototype();
        let l = c.layout();
        assert_eq!(l.core_tiles.len(), 2);
        assert_eq!(l.maple_tiles.len(), 1);
        let mut all = l.core_tiles.clone();
        all.extend(&l.l2_tiles);
        all.extend(&l.maple_tiles);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len(), "tiles must not overlap");
    }

    #[test]
    fn with_cores_grows_mesh() {
        let c = SocConfig::fpga_prototype().with_cores(8);
        assert!(c.tiles_used() <= usize::from(c.mesh_width) * usize::from(c.mesh_height));
        let _ = c.layout();
    }

    #[test]
    fn queue_entries_respect_scratchpad() {
        let c = SocConfig::fpga_prototype().with_queue_entries(64);
        // 64 × 4 B = 256 B per queue → at most 4 queues in 1 KB.
        assert_eq!(c.maple.queues, 4);
        assert_eq!(c.maple.default_entries, 64);
    }

    #[test]
    fn one_cluster_layout_matches_flat() {
        // The degenerate hierarchy: one cluster shaped exactly like the
        // flat mesh places every component on the same tile, so the two
        // configurations simulate byte-identically.
        let flat = SocConfig::fpga_prototype().with_cores(4);
        let tiles = usize::from(flat.mesh_width) * usize::from(flat.mesh_height);
        let clustered = flat.clone().with_clusters(ClusterConfig::new(tiles, 1, 1));
        assert_eq!(clustered.mesh_width, flat.mesh_width);
        assert_eq!(clustered.mesh_height, flat.mesh_height);
        assert!(
            clustered.fabric_topology().is_none(),
            "1 cluster rides the flat mesh"
        );
        assert_eq!(clustered.n_l2_banks(), 1);
        let (fl, cl) = (flat.layout(), clustered.layout());
        assert_eq!(fl.core_tiles, cl.core_tiles);
        assert_eq!(fl.l2_tiles, cl.l2_tiles);
        assert_eq!(fl.maple_tiles, cl.maple_tiles);
    }

    #[test]
    fn clustered_layout_pools_components_per_cluster() {
        // 2×2 clusters of 2×2 tiles: 8 cores, 4 maples, 4 banks — every
        // cluster gets 2 cores, 1 bank, 1 maple on its own sub-grid.
        let mut cfg = SocConfig::fpga_prototype();
        cfg.cores = 8;
        cfg.maples = 4;
        let cfg = cfg.with_clusters(ClusterConfig::new(4, 2, 2));
        assert_eq!(cfg.mesh_width, 4);
        assert_eq!(cfg.mesh_height, 4);
        assert_eq!(cfg.n_l2_banks(), 4);
        let topo = cfg
            .fabric_topology()
            .expect("2x2 clusters use the hierarchy");
        let l = cfg.layout();
        assert_eq!(l.core_tiles.len(), 8);
        assert_eq!(l.l2_tiles.len(), 4);
        assert_eq!(l.maple_tiles.len(), 4);
        for c in 0..4 {
            let in_cluster = |t: &&Coord| topo.cluster_index_of(**t) == c;
            assert_eq!(l.core_tiles.iter().filter(in_cluster).count(), 2);
            assert_eq!(l.l2_tiles.iter().filter(in_cluster).count(), 1);
            assert_eq!(l.maple_tiles.iter().filter(in_cluster).count(), 1);
        }
        // Bank b lives in cluster b (the address-interleaving contract).
        for (b, t) in l.l2_tiles.iter().enumerate() {
            assert_eq!(topo.cluster_index_of(*t), b);
        }
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn clustering_rejects_tile_overrides() {
        let mut cfg = SocConfig::fpga_prototype();
        cfg.maple_tile_override = Some(vec![(1, 1)]);
        let _ = cfg.with_clusters(ClusterConfig::new(4, 1, 1));
    }

    #[test]
    #[should_panic(expected = "l2_banks")]
    fn clustering_rejects_excess_banks() {
        let _ =
            SocConfig::fpga_prototype().with_clusters(ClusterConfig::new(4, 1, 1).with_l2_banks(2));
    }

    #[test]
    fn cluster_shape_is_square_ish() {
        assert_eq!(ClusterConfig::new(4, 2, 2).cluster_shape(), (2, 2));
        assert_eq!(ClusterConfig::new(9, 1, 1).cluster_shape(), (3, 3));
        assert_eq!(ClusterConfig::new(5, 1, 1).cluster_shape(), (3, 2));
        assert_eq!(ClusterConfig::new(1, 1, 1).cluster_shape(), (1, 1));
    }

    #[test]
    fn maple_pages_are_distinct() {
        let c = SocConfig::fpga_prototype().with_maples(3);
        assert_ne!(c.maple_page(0), c.maple_page(1));
        assert_eq!(c.maple_page(2) - c.maple_page(1), maple_mem::PAGE_SIZE);
    }
}
