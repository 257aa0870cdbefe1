//! The assembled SoC: cores, MAPLE engines, shared L2 and DRAM on a 2-D
//! mesh, with OS services and the experiment-facing control surface.
//!
//! A [`System`] is built from a [`SocConfig`], loaded with per-core
//! programs, and run to completion. Everything the paper's evaluation
//! needs hangs off this type: heap allocation (eager or demand-paged),
//! MAPLE instance mapping, DeSC core pairing, DROPLET configuration, and
//! statistics extraction.

use std::collections::{HashMap, VecDeque};

use maple_baselines::droplet::{DropletPrefetcher, IndirectWatch};
use maple_core::Engine;
use maple_cpu::desc::DescQueues;
use maple_cpu::{Core, CoreState};
use maple_isa::{Program, Reg};
use maple_mem::l2::SharedL2;
use maple_mem::msg::{MemReq, MemResp};
use maple_mem::phys::{PAddr, PhysMem, PAGE_SIZE};
use maple_mem::WriteStage;
use maple_noc::{Coord, Fabric, MeshConfig};
use maple_sim::fault::{CoreHang, EngineHang, HangDiagnosis, UnserviceableFault, WatchdogConfig};
use maple_sim::link::Link;
use maple_sim::stats::Counter;
use maple_sim::worklist::Worklist;
use maple_sim::{Cycle, RunOutcome};
use maple_trace::{
    merge_rings, FaultSite, MetricsSnapshot, StallBreakdown, StallRow, TraceEvent, TraceRecord,
    Tracer,
};
use maple_vm::page_table::FrameAllocator;
use maple_vm::{VAddr, VirtPage};

use crate::config::{SocConfig, TileLayout, MAPLE_PA_BASE};
use crate::os::AddressSpace;
use crate::wake::WakeSet;

/// Messages carried by the NoC.
///
/// Flit counts are *not* duplicated here: the NoC serialization cost lives
/// solely in the (private) `OutMsg::flits` field and inside the mesh
/// packet, so a response's size has a single source of truth.
#[derive(Debug, Clone, Copy)]
pub enum NocPayload {
    /// A memory/MMIO request heading to the L2 tile or a MAPLE tile.
    Req(MemReq),
    /// A response heading back to a requester tile.
    Resp(MemResp),
}

#[derive(Debug)]
struct OutMsg {
    dst: Coord,
    flits: u8,
    payload: NocPayload,
}

/// The component a tile's fabric deliveries drain into. The derived
/// order is phase 1's drain order: cores, then L2 banks, then engines,
/// each ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sink {
    Core(usize),
    Bank(usize),
    Engine(usize),
}

/// A pending OS page-fault service. The faulting address is the one
/// recorded at dispatch: by service time an engine's fault may have
/// cleared on its own (a reset), and the OS still maps the page it was
/// asked for.
#[derive(Debug, Clone, Copy)]
enum FaultTarget {
    Core(usize, VAddr),
    Engine(usize, VAddr),
}

/// A hub decision made in phase 1 and applied at the top of phase 2, in
/// hub order, after the cycle's deliveries and before its ticks; it
/// wakes the components it targets. Deliveries wait for phase 2 too, so
/// a core's memory read in `on_mem_resp` follows phase 1's page mapping.
#[derive(Debug, Clone, Copy)]
enum Command {
    /// A core page-fault service completed (`ok` = page mapped).
    CoreFaultServiced { core: usize, ok: bool },
    /// An engine page-fault service completed.
    EngineFaultServiced { engine: usize, ok: bool },
    /// Chaos plane: the driver re-initializes the engine mid-run.
    EngineReset { engine: usize },
    /// TLB shootdown of one virtual page on every core and engine (chaos
    /// injection, or the driver unmapping a retired engine).
    Shootdown { vpn: VirtPage },
    /// The MMIO watchdog re-injected a core's transaction; the stall it
    /// resolves is recovery work and must be attributed as such.
    NoteFaultRetry { core: usize },
}

/// One core-issued MMIO transaction under watchdog observation.
#[derive(Debug, Clone, Copy)]
struct MmioWatch {
    req: MemReq,
    issued: Cycle,
    retries: u32,
}

/// Counters for everything the chaos plane injected and the recovery
/// machinery did about it (the driver/uncore side; per-site counters live
/// in the mesh, DRAM and engine stats).
#[derive(Debug, Clone, Default)]
pub struct ChaosStats {
    /// Scheduled mid-run engine `RESET`s delivered.
    pub resets_injected: Counter,
    /// Randomly-timed engine TLB shootdowns delivered.
    pub shootdowns_injected: Counter,
    /// Core-issued MMIO transactions that overran their watchdog.
    pub mmio_timeouts: Counter,
    /// MMIO transactions re-injected after a timeout.
    pub mmio_retries: Counter,
    /// Engines the driver retired (unmapped) after poisoning.
    pub engines_poisoned: Counter,
    /// Page faults that could not be serviced (outside any lazy region);
    /// the faulting component stays stalled instead of panicking the
    /// simulator.
    pub unserviceable_faults: Counter,
}

/// How the run loops spent their host work, summed over every run of a
/// [`System`]: deterministic counts, kept out of the metrics snapshot
/// (and so out of every digest and golden) because they describe the
/// simulator, not the simulated machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostWork {
    /// Cycles a run loop stepped: phase 2 ran for them.
    pub stepped: u64,
    /// Stepped cycles that also ran the hub phases: every stepped cycle
    /// except the hub-idle ones whose cores and engines emitted nothing
    /// (under the dense stepper, every stepped cycle).
    pub hub: u64,
    /// Cycles a run loop jumped over by advancing time to the horizon.
    pub skipped: u64,
    /// Core ticks in phase 2 (a sleeping core's cycles are skipped, not
    /// ticked).
    pub core_ticks: u64,
    /// Engine ticks in phase 2.
    pub engine_ticks: u64,
    /// L2 bank ticks in phase 3b.
    pub bank_ticks: u64,
}

/// Driver/uncore-level chaos state: scheduled events still to inject,
/// outstanding MMIO transactions under watchdog, and poison bookkeeping.
#[derive(Debug)]
struct ChaosState {
    /// Pending mid-run engine resets, sorted by cycle.
    resets: VecDeque<(u64, usize)>,
    /// Pending TLB shootdowns: `(cycle, raw random word)`, sorted.
    shootdowns: VecDeque<(u64, u64)>,
    /// Core-side MMIO watchdog policy.
    watchdog: WatchdogConfig,
    /// Outstanding MMIO transactions keyed by `(core, L1 txid)`.
    mmio_watch: HashMap<(usize, u64), MmioWatch>,
    /// Engines retired by the driver after poisoning.
    retired: Vec<bool>,
    /// User VA of each mapped engine page (recorded at `map_maple`),
    /// needed to unmap a poisoned instance.
    maple_vas: Vec<Option<VAddr>>,
    stats: ChaosStats,
}

impl ChaosState {
    /// Earliest cycle at or after `now` at which the chaos plane must run:
    /// the next scheduled reset or shootdown, or the earliest MMIO
    /// watchdog deadline. Schedules are sorted, so only heads matter; the
    /// watchdog deadline is a pure function of the watch entry, so a skip
    /// landing exactly on it reproduces the dense scan's decision.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = maple_sim::Horizon::IDLE;
        if let Some(&(at, _)) = self.resets.front() {
            h.at(Cycle(at.max(now.0)));
        }
        if let Some(&(at, _)) = self.shootdowns.front() {
            h.at(Cycle(at.max(now.0)));
        }
        for m in self.mmio_watch.values() {
            h.at(self.watchdog.deadline(m.issued, m.retries).max(now));
        }
        h.earliest()
    }
}

/// The assembled system.
pub struct System {
    cfg: SocConfig,
    layout: TileLayout,
    mem: PhysMem,
    frames: FrameAllocator,
    aspace: AddressSpace,
    /// The interconnect: one router per tile, or the two-level clustered
    /// fabric when the configuration asks for >1 cluster.
    mesh: Fabric<NocPayload>,
    cores: Vec<Core>,
    engines: Vec<Engine>,
    /// Address-interleaved L2 banks (`line % banks`); flat configurations
    /// hold exactly one, and every aggregate over one bank is the
    /// historical value unchanged.
    l2: Vec<SharedL2>,
    /// Which cores, engines and L2 banks tick each cycle (all three
    /// rebuilt at the start of every run, and flushed at its end so the
    /// cores' and engines' slept cycles are accounted before anything
    /// reads their statistics). A bank is due on its own `next_event` and
    /// no later than the next event of a request it accepts; banks keep
    /// no per-cycle counters, so there is nothing to account while one
    /// sleeps.
    core_wake: WakeSet,
    engine_wake: WakeSet,
    bank_wake: WakeSet,
    /// Loaded cores halted so far in the current run (only a tick halts
    /// a core).
    halted: usize,
    /// Core and engine deliveries phase 1 drained from the fabric, in
    /// drain order; phase 2 applies them before the ticks.
    deliveries: Vec<(Sink, NocPayload)>,
    /// Hub decisions phase 1 queued for phase 2, in hub order.
    commands: Vec<Command>,
    /// Plain stores the cores staged this cycle, applied in phase 3.
    stage: WriteStage,
    droplet: Option<DropletPrefetcher>,
    desc_queues: Vec<DescQueues>,
    desc_pair: Vec<Option<usize>>,
    /// Per-tile outbound path: uncore delay then injection (with retry on
    /// backpressure, order-preserving).
    out_uncore: Vec<Link<OutMsg>>,
    out_retry: Vec<VecDeque<OutMsg>>,
    /// `(due cycle, tile)` of every uncore send, in send order. The
    /// latency is one constant and sends happen in time order, so send
    /// order is due order: the front is the earliest undelivered send.
    egress_due: VecDeque<(Cycle, usize)>,
    /// Tiles holding a backpressured retry.
    egress: Worklist,
    /// Each tile's delivery sink, by tile index (`None`: unused tile).
    sinks: Vec<Option<Sink>>,
    /// Each tile's coordinate, by tile index.
    tile_coords: Vec<Coord>,
    /// Scratch buffers reused every cycle so the hub loops never allocate.
    egress_tiles: Vec<usize>,
    arrival_tiles: Vec<Coord>,
    arrivals: Vec<(Sink, Coord)>,
    fault_service: Link<FaultTarget>,
    faults_in_service: Vec<bool>,
    engine_fault_in_service: Vec<bool>,
    /// Per-engine, per-queue occupancy samples (taken every
    /// [`OCCUPANCY_SAMPLE_PERIOD`] cycles).
    occupancy: Vec<Vec<maple_sim::stats::Histogram>>,
    /// Live user VA of each mapped MAPLE page (hub copy, tracked whether
    /// or not the chaos plane is active) — the remap/unmap primitives of
    /// the serving driver's engine virtualization key off this.
    maple_user_vas: Vec<Option<VAddr>>,
    /// Fault-injection plane state; `None` keeps the run fault-free with
    /// zero timing perturbation.
    chaos: Option<ChaosState>,
    /// The first page fault the OS could not service with the fault plane
    /// off; it ends the run as hung.
    unserviceable: Option<UnserviceableFault>,
    /// Hub-owned trace ring (mesh, L2/DRAM and chaos events); disabled
    /// unless [`SocConfig::with_tracing`] was used.
    tracer: Tracer,
    /// Per-core trace rings (each core emits into its own ring, and the
    /// fixed ring order gives one canonical merge on read).
    core_rings: Vec<Tracer>,
    /// Per-engine trace rings.
    engine_rings: Vec<Tracer>,
    host_work: HostWork,
    now: Cycle,
}

/// Cycles between queue-occupancy samples.
pub const OCCUPANCY_SAMPLE_PERIOD: u64 = 64;

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("engines", &self.engines.len())
            .field("now", &self.now)
            .finish()
    }
}

impl System {
    /// Builds an idle system from a configuration.
    #[must_use]
    pub fn new(cfg: SocConfig) -> Self {
        let layout = cfg.layout();
        let mut mem = PhysMem::new();
        // Frames live above the first 16 MB (reserved) within 1 GB DRAM.
        let mut frames = FrameAllocator::new(PAddr(0x100_0000), (1 << 30) - 0x100_0000);
        let aspace = AddressSpace::new(&mut mem, &mut frames);
        // A 1×1 (or absent) cluster grid builds a flat fabric, one router
        // per tile with no crossbar layer — the degenerate hierarchy is
        // byte-identical to the historical topology by construction.
        let mut mesh = match cfg.fabric_topology() {
            Some(topo) => {
                let cluster = cfg.cluster.expect("topology implies a cluster config");
                Fabric::clustered(topo, cluster.xbar_latency)
            }
            None => Fabric::flat(MeshConfig::new(cfg.mesh_width, cfg.mesh_height)),
        };
        let mut maple_cfg = cfg.maple;
        maple_cfg.decode_latency += cfg.maple_extra_latency / 2;
        maple_cfg.respond_latency += cfg.maple_extra_latency - cfg.maple_extra_latency / 2;
        let mut engines: Vec<Engine> = (0..cfg.maples).map(|_| Engine::new(maple_cfg)).collect();
        let mut l2: Vec<SharedL2> = (0..cfg.n_l2_banks())
            .map(|_| SharedL2::new(cfg.l2, cfg.dram))
            .collect();
        let tracer = cfg.trace.map_or_else(Tracer::disabled, Tracer::enabled);
        let engine_rings: Vec<Tracer> = (0..cfg.maples)
            .map(|_| cfg.trace.map_or_else(Tracer::disabled, Tracer::enabled))
            .collect();
        if tracer.is_enabled() {
            mesh.set_tracer(tracer.clone());
            for bank in &mut l2 {
                bank.set_tracer(tracer.clone());
            }
            for (e, engine) in engines.iter_mut().enumerate() {
                engine.set_tracer(e, engine_rings[e].clone());
            }
        }
        let droplet = cfg.droplet.map(DropletPrefetcher::new);
        let nodes = usize::from(cfg.mesh_width) * usize::from(cfg.mesh_height);
        let mut sinks = vec![None; nodes];
        let tile_index =
            |c: &Coord| usize::from(c.y) * usize::from(cfg.mesh_width) + usize::from(c.x);
        for (i, c) in layout.core_tiles.iter().enumerate() {
            sinks[tile_index(c)] = Some(Sink::Core(i));
        }
        for (b, c) in layout.l2_tiles.iter().enumerate() {
            sinks[tile_index(c)] = Some(Sink::Bank(b));
        }
        for (e, c) in layout.maple_tiles.iter().enumerate() {
            sinks[tile_index(c)] = Some(Sink::Engine(e));
        }
        // Install the fault plane's per-site schedules and the driver-side
        // chaos state. All of this is skipped — and no RNG stream is ever
        // created or drawn — when `cfg.fault` is `None`.
        let chaos = cfg.fault.as_ref().map(|f| {
            mesh.set_fault_plane(f);
            // Bank 0 draws the historical DRAM stream; further banks get
            // independent streams, so single-bank chaos replay is
            // bit-for-bit the pre-hierarchy one.
            for (b, bank) in l2.iter_mut().enumerate() {
                bank.set_dram_fault(f.dram_bank_schedule(b));
            }
            for (e, engine) in engines.iter_mut().enumerate() {
                engine.set_watchdog(f.engine_watchdog);
                engine.set_ack_fault(f.ack_loss_schedule(e as u64));
            }
            let mut resets: Vec<(u64, usize)> = f.engine_resets.clone();
            resets.sort_unstable();
            ChaosState {
                resets: resets.into(),
                shootdowns: f.shootdown_events().into(),
                watchdog: f.mmio_watchdog,
                mmio_watch: HashMap::new(),
                retired: vec![false; cfg.maples],
                maple_vas: vec![None; cfg.maples],
                stats: ChaosStats::default(),
            }
        });
        System {
            layout,
            mem,
            frames,
            aspace,
            mesh,
            cores: Vec::new(),
            engines,
            core_wake: WakeSet::new(0, Cycle::ZERO, false),
            engine_wake: WakeSet::new(0, Cycle::ZERO, false),
            bank_wake: WakeSet::new(0, Cycle::ZERO, false),
            halted: 0,
            deliveries: Vec::new(),
            commands: Vec::new(),
            stage: WriteStage::default(),
            l2,
            droplet,
            desc_queues: Vec::new(),
            desc_pair: Vec::new(),
            out_uncore: (0..nodes).map(|_| Link::new(cfg.uncore_latency)).collect(),
            out_retry: (0..nodes).map(|_| VecDeque::new()).collect(),
            egress_due: VecDeque::new(),
            egress: Worklist::new(nodes),
            sinks,
            tile_coords: (0..cfg.mesh_height)
                .flat_map(|y| (0..cfg.mesh_width).map(move |x| Coord::new(x, y)))
                .collect(),
            egress_tiles: Vec::new(),
            arrival_tiles: Vec::new(),
            arrivals: Vec::new(),
            fault_service: Link::new(cfg.fault_latency),
            faults_in_service: Vec::new(),
            engine_fault_in_service: vec![false; cfg.maples],
            occupancy: (0..cfg.maples)
                .map(|_| vec![maple_sim::stats::Histogram::new(); maple_cfg.queues])
                .collect(),
            maple_user_vas: vec![None; cfg.maples],
            chaos,
            unserviceable: None,
            tracer,
            core_rings: Vec::new(),
            engine_rings,
            host_work: HostWork::default(),
            now: Cycle::ZERO,
            cfg,
        }
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    // --- host-side memory services ---------------------------------------

    /// Allocates zeroed, eagerly-mapped heap memory.
    pub fn alloc(&mut self, bytes: u64) -> VAddr {
        self.aspace.alloc(&mut self.mem, &mut self.frames, bytes)
    }

    /// Allocates demand-paged heap memory (first touches fault).
    pub fn alloc_lazy(&mut self, bytes: u64) -> VAddr {
        self.aspace.alloc_lazy(bytes)
    }

    fn host_paddr(&mut self, va: VAddr) -> PAddr {
        if let Some(pa) = self.aspace.translate(&self.mem, va) {
            return pa;
        }
        // Host-side touch of a lazy page maps it (like the kernel writing
        // into a fresh mmap).
        assert!(
            self.aspace
                .handle_fault(&mut self.mem, &mut self.frames, va),
            "host access to unmapped address {va}"
        );
        self.aspace.translate(&self.mem, va).expect("just mapped")
    }

    /// Host write of a 64-bit word.
    pub fn write_u64(&mut self, va: VAddr, value: u64) {
        let pa = self.host_paddr(va);
        self.mem.write_u64(pa, value);
    }

    /// Host write of a 32-bit word.
    pub fn write_u32(&mut self, va: VAddr, value: u32) {
        let pa = self.host_paddr(va);
        self.mem.write_u32(pa, value);
    }

    /// Host read of a 64-bit word.
    pub fn read_u64(&mut self, va: VAddr) -> u64 {
        let pa = self.host_paddr(va);
        self.mem.read_u64(pa)
    }

    /// Host read of a 32-bit word.
    pub fn read_u32(&mut self, va: VAddr) -> u32 {
        let pa = self.host_paddr(va);
        self.mem.read_u32(pa)
    }

    /// Host write of `bytes` starting at `va`: one translation (and lazy
    /// map on first touch) per virtual page, one copy per in-page chunk.
    fn write_bytes(&mut self, va: VAddr, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let at = va.offset(done as u64);
            let n = ((PAGE_SIZE - at.page_offset()) as usize).min(bytes.len() - done);
            let pa = self.host_paddr(at);
            self.mem.write_bytes(pa, &bytes[done..done + n]);
            done += n;
        }
    }

    /// Host read of `len` bytes starting at `va`, page by page like
    /// [`System::write_bytes`].
    fn read_bytes(&mut self, va: VAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let at = va.offset(out.len() as u64);
            let n = ((PAGE_SIZE - at.page_offset()) as usize).min(len - out.len());
            let pa = self.host_paddr(at);
            out.extend(self.mem.read_bytes(pa, n));
        }
        out
    }

    /// Host write of a `u32` slice starting at `va`.
    pub fn write_slice_u32(&mut self, va: VAddr, data: &[u32]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_bytes(va, &bytes);
    }

    /// Host read of `n` `u32`s starting at `va`.
    pub fn read_slice_u32(&mut self, va: VAddr, n: usize) -> Vec<u32> {
        self.read_bytes(va, n * 4)
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
            .collect()
    }

    // --- device and thread management ------------------------------------

    /// Maps MAPLE instance `i` into the process and programs its MMU;
    /// returns the user virtual address of its page (the handle every API
    /// operation uses).
    pub fn map_maple(&mut self, i: usize) -> VAddr {
        assert!(i < self.engines.len(), "no MAPLE instance {i}");
        let page = PAddr(self.cfg.maple_page(i));
        let va = self
            .aspace
            .map_device(&mut self.mem, &mut self.frames, page);
        self.engines[i].set_page_table(self.aspace.page_table());
        self.maple_user_vas[i] = Some(va);
        if let Some(chaos) = &mut self.chaos {
            chaos.maple_vas[i] = Some(va);
        }
        va
    }

    // --- engine virtualization (multi-tenant serving driver) --------------

    /// The live user VA of MAPLE instance `i`'s MMIO page, if mapped.
    #[must_use]
    pub fn maple_va(&self, i: usize) -> Option<VAddr> {
        self.maple_user_vas[i]
    }

    /// Moves MAPLE instance `i`'s MMIO page to a fresh user VA: the old
    /// mapping is destroyed, a new one is bump-allocated, and the
    /// matching shootdown is broadcast to every core and engine TLB so no
    /// stale translation can serve a post-remap request. This is the
    /// context-switch remap of the serving driver — the page the next
    /// tenant's program addresses is never the one the previous tenant
    /// held. Returns the new VA.
    ///
    /// Must be called between runs (the driver's context-switch point),
    /// not from inside a stepping loop.
    ///
    /// # Panics
    ///
    /// Panics if instance `i` was never mapped.
    pub fn remap_maple(&mut self, i: usize) -> VAddr {
        let old = self.maple_user_vas[i].expect("remap of an unmapped MAPLE instance");
        assert!(
            self.aspace.unmap(&mut self.mem, old),
            "stale maple VA record"
        );
        for c in &mut self.cores {
            c.tlb_shootdown(old.page());
        }
        for e in &mut self.engines {
            e.tlb_shootdown(old.page());
        }
        let page = PAddr(self.cfg.maple_page(i));
        let va = self
            .aspace
            .map_device(&mut self.mem, &mut self.frames, page);
        self.maple_user_vas[i] = Some(va);
        if let Some(chaos) = &mut self.chaos {
            chaos.maple_vas[i] = Some(va);
        }
        va
    }

    /// Administratively unmaps MAPLE instance `i` (the driver retiring an
    /// instance, e.g. after a mid-tenant engine failure), with the same
    /// shootdown broadcast as [`System::remap_maple`]. Returns whether a
    /// mapping existed. Subsequent requests must be served by a software
    /// path — the fallback ladder's concern, not this primitive's.
    pub fn unmap_maple(&mut self, i: usize) -> bool {
        let Some(old) = self.maple_user_vas[i].take() else {
            return false;
        };
        self.aspace.unmap(&mut self.mem, old);
        for c in &mut self.cores {
            c.tlb_shootdown(old.page());
        }
        for e in &mut self.engines {
            e.tlb_shootdown(old.page());
        }
        if let Some(chaos) = &mut self.chaos {
            chaos.maple_vas[i] = None;
        }
        true
    }

    /// Saves engine `i`'s tenant-visible architectural state (queues,
    /// TLB, in-flight fetches, pending operations) for a later
    /// [`System::restore_engine_context`]. The engine is not modified.
    #[must_use]
    pub fn save_engine_context(&self, i: usize) -> maple_core::EngineContext {
        self.engines[i].save_context()
    }

    /// Restores a context saved by [`System::save_engine_context`] onto
    /// engine `i`, completing a tenant context switch. Physical-engine
    /// state (statistics, transaction-ID allocator, replay cache) is
    /// deliberately not part of the context — see
    /// [`maple_core::EngineContext`].
    pub fn restore_engine_context(&mut self, i: usize, ctx: maple_core::EngineContext) {
        self.engines[i].restore_context(ctx);
    }

    /// Resets engine `i` to pristine tenant-visible state — the context
    /// switch onto a tenant that has no saved context yet.
    pub fn reset_engine(&mut self, i: usize) {
        self.engines[i].reset();
    }

    /// Flushes every engine's MMIO replay cache. A driver step at serving
    /// batch boundaries: reloaded cores restart their L1 transaction ids,
    /// so a stale completed entry keyed by `(tile, id)` would wrongly
    /// replay a previous request's response. Only valid at quiescence (no
    /// outstanding MMIO transactions) — which batch completion guarantees.
    pub fn flush_engine_replay_caches(&mut self) {
        for e in &mut self.engines {
            e.flush_replay_cache();
        }
    }

    /// Replaces the program on an already-loaded core, re-arming it for
    /// another run: fresh architectural state, same trace ring, current
    /// page table. The serving scheduler uses this to dispatch a new
    /// request onto a core whose previous request has halted.
    ///
    /// # Panics
    ///
    /// Panics if core `idx` was never loaded or is DeSC-paired (paired
    /// cores share queue state a reload would orphan).
    pub fn reload_core(&mut self, idx: usize, program: Program, args: &[(Reg, u64)]) {
        assert!(idx < self.cores.len(), "core {idx} was never loaded");
        assert!(
            self.desc_pair[idx].is_none(),
            "cannot reload a DeSC-paired core"
        );
        let mut core = Core::new(idx, self.cfg.cpu, program, self.aspace.page_table());
        core.set_tracer(self.core_rings[idx].clone());
        for &(r, v) in args {
            core.set_reg(r, v);
        }
        self.cores[idx] = core;
        self.faults_in_service[idx] = false;
    }

    /// Loads `program` onto the next free core; returns the core index.
    ///
    /// # Panics
    ///
    /// Panics when all configured cores are in use.
    pub fn load_program(&mut self, program: Program, args: &[(Reg, u64)]) -> usize {
        let idx = self.cores.len();
        assert!(
            idx < self.cfg.cores,
            "configuration has only {} cores",
            self.cfg.cores
        );
        let mut core = Core::new(idx, self.cfg.cpu, program, self.aspace.page_table());
        let ring = self
            .cfg
            .trace
            .map_or_else(Tracer::disabled, Tracer::enabled);
        core.set_tracer(ring.clone());
        self.core_rings.push(ring);
        for &(r, v) in args {
            core.set_reg(r, v);
        }
        self.cores.push(core);
        self.desc_pair.push(None);
        self.faults_in_service.push(false);
        idx
    }

    /// Connects two loaded cores with DeSC coupled queues (the DeSC
    /// baseline's core modification).
    pub fn pair_desc(&mut self, access: usize, execute: usize, queues: usize) {
        let k = self.desc_queues.len();
        self.desc_queues
            .push(DescQueues::new(queues, self.cfg.desc_queue_capacity));
        self.desc_pair[access] = Some(k);
        self.desc_pair[execute] = Some(k);
    }

    /// Programs the DROPLET prefetcher with an indirect pattern given in
    /// *virtual* addresses (translated here, as the driver would).
    ///
    /// # Panics
    ///
    /// Panics if DROPLET is not enabled in the configuration or the
    /// arrays are not physically contiguous (eager allocations are).
    pub fn droplet_watch(&mut self, b: VAddr, b_len: u64, b_elem: u8, a: VAddr, a_elem: u8) {
        if b_len == 0 {
            // Empty index array: nothing to watch (and no last byte to
            // check contiguity on).
            return;
        }
        let b_start = self.host_paddr(b);
        // Eager allocations are physically contiguous (bump allocator);
        // verify on the last page to catch misuse.
        let last = self.host_paddr(VAddr(b.0 + b_len.saturating_sub(1)));
        assert_eq!(
            last.0 - b_start.0,
            b_len - 1,
            "DROPLET watch requires physically contiguous index array"
        );
        let a_start = self.host_paddr(a);
        let d = self
            .droplet
            .as_mut()
            .expect("droplet not enabled in SocConfig");
        d.add_watch(IndirectWatch {
            b_start,
            b_end: PAddr(b_start.0 + b_len),
            b_elem,
            a_base: a_start,
            a_elem,
        });
    }

    // --- simulation -------------------------------------------------------

    /// Which L2 bank serves `addr`: line-address interleaving across the
    /// banks. The single-bank expression is kept literal (`0`, no modulo)
    /// so flat configurations compute exactly what they always did.
    fn bank_of(&self, addr: PAddr) -> usize {
        let n = self.l2.len();
        if n == 1 {
            0
        } else {
            ((addr.0 / maple_mem::LINE_SIZE) % n as u64) as usize
        }
    }

    fn route(&self, addr: PAddr) -> Coord {
        if addr.0 >= MAPLE_PA_BASE {
            let idx = ((addr.0 - MAPLE_PA_BASE) / PAGE_SIZE) as usize;
            self.layout.maple_tiles[idx.min(self.layout.maple_tiles.len() - 1)]
        } else {
            self.layout.l2_tiles[self.bank_of(addr)]
        }
    }

    fn tile_index(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.cfg.mesh_width) + usize::from(c.x)
    }

    fn queue_out(&mut self, from: Coord, msg: OutMsg) {
        let t = self.tile_index(from);
        self.out_uncore[t].send(self.now, msg);
        self.egress_due
            .push_back((self.now.plus(self.cfg.uncore_latency), t));
    }

    /// Queues an outbound memory/MMIO request from `tile`, routing by
    /// physical address and stamping the reply coordinate. When
    /// `watch_core` names the issuing core and the chaos plane is active,
    /// MAPLE-bound transactions go under MMIO watchdog observation (the
    /// plane may drop the request or its response; the engine's dedup
    /// cache makes re-sending the identical request safe).
    fn send_req(&mut self, tile: Coord, mut req: MemReq, watch_core: Option<usize>) {
        req.reply_to = tile;
        let dst = self.route(req.addr);
        let flits = req.flits();
        if let Some(core) = watch_core {
            if req.addr.0 >= MAPLE_PA_BASE {
                if let Some(chaos) = &mut self.chaos {
                    chaos.mmio_watch.insert(
                        (core, req.id),
                        MmioWatch {
                            req,
                            issued: self.now,
                            retries: 0,
                        },
                    );
                }
            }
        }
        self.queue_out(
            tile,
            OutMsg {
                dst,
                flits,
                payload: NocPayload::Req(req),
            },
        );
    }

    /// Queues an outbound response (engine ack/data or L2 fill) from `tile`.
    fn send_resp(&mut self, tile: Coord, out: maple_mem::l2::OutboundResp) {
        self.queue_out(
            tile,
            OutMsg {
                dst: out.dst,
                flits: out.flits,
                payload: NocPayload::Resp(out.resp),
            },
        );
    }

    fn is_maple_tile(&self, c: Coord) -> bool {
        matches!(self.sinks[self.tile_index(c)], Some(Sink::Engine(_)))
    }

    /// Retires a poisoned MAPLE instance: the driver unmaps its page and
    /// broadcasts the matching shootdown so no further operations reach
    /// it.
    fn retire_engine(&mut self, e: usize, mem: &mut PhysMem) {
        let Some(chaos) = &mut self.chaos else {
            return;
        };
        if chaos.retired[e] {
            return;
        }
        chaos.retired[e] = true;
        chaos.stats.engines_poisoned.inc();
        let va = chaos.maple_vas[e].take();
        if let Some(va) = va {
            self.aspace.unmap(mem, va);
            self.commands.push(Command::Shootdown { vpn: va.page() });
        }
    }

    /// Injects due scheduled faults and scans the core-MMIO watchdog,
    /// turning every injection into [`Command`]s for phase 2. No-op (no
    /// RNG draws, no scans) when the plane is off.
    fn chaos_stage(&mut self, now: Cycle, mem: &mut PhysMem) {
        if self.chaos.is_none() {
            return;
        }

        // Scheduled mid-run engine RESETs (the driver re-initialising an
        // instance under live traffic).
        loop {
            let chaos = self.chaos.as_mut().expect("checked above");
            match chaos.resets.front() {
                Some(&(at, e)) if at <= now.0 => {
                    chaos.resets.pop_front();
                    if e < self.engines.len() && !chaos.retired[e] {
                        chaos.stats.resets_injected.inc();
                        self.tracer.emit(now, || TraceEvent::FaultRecovered {
                            site: FaultSite::EngineReset,
                        });
                        self.commands.push(Command::EngineReset { engine: e });
                    }
                }
                _ => break,
            }
        }

        // Randomly-timed TLB shootdowns on heap pages (an OS unmap/remap
        // racing the engines) — broadcast to every core and engine.
        loop {
            let chaos = self.chaos.as_mut().expect("checked above");
            match chaos.shootdowns.front() {
                Some(&(at, raw)) if at <= now.0 => {
                    chaos.shootdowns.pop_front();
                    let (lo, hi) = self.aspace.heap_span();
                    let pages = (hi - lo) / PAGE_SIZE;
                    if pages == 0 {
                        continue;
                    }
                    let vpn: VirtPage = VAddr(lo + (raw % pages) * PAGE_SIZE).page();
                    self.chaos
                        .as_mut()
                        .expect("checked above")
                        .stats
                        .shootdowns_injected
                        .inc();
                    self.tracer.emit(now, || TraceEvent::FaultRecovered {
                        site: FaultSite::TlbShootdown,
                    });
                    self.commands.push(Command::Shootdown { vpn });
                }
                _ => break,
            }
        }

        // Engines whose own watchdog gave up: the driver retires them.
        // Only a tick poisons an engine, so the scan sees the flags as of
        // the previous cycle's ticks.
        for e in 0..self.engines.len() {
            if self.engines[e].is_poisoned() {
                self.retire_engine(e, mem);
            }
        }

        // Core-MMIO watchdog: re-inject overdue transactions; after the
        // retry budget, declare the target engine unreachable and retire
        // it. Sorted keys keep seed replay deterministic despite HashMap
        // iteration order.
        let chaos = self.chaos.as_mut().expect("checked above");
        if chaos.mmio_watch.is_empty() {
            return;
        }
        let w = chaos.watchdog;
        let mut overdue: Vec<(usize, u64)> = chaos
            .mmio_watch
            .iter()
            .filter(|(_, m)| now >= w.deadline(m.issued, m.retries))
            .map(|(&k, _)| k)
            .collect();
        overdue.sort_unstable();
        for key in overdue {
            let chaos = self.chaos.as_mut().expect("checked above");
            let Some(m) = chaos.mmio_watch.get_mut(&key) else {
                continue;
            };
            chaos.stats.mmio_timeouts.inc();
            if m.retries >= w.max_retries {
                let req = m.req;
                chaos.mmio_watch.remove(&key);
                let e = ((req.addr.0.saturating_sub(MAPLE_PA_BASE)) / PAGE_SIZE) as usize;
                if e < self.engines.len() {
                    self.retire_engine(e, mem);
                }
            } else {
                m.retries += 1;
                m.issued = now;
                let req = m.req;
                chaos.stats.mmio_retries.inc();
                self.tracer.emit(now, || TraceEvent::FaultRecovered {
                    site: FaultSite::MmioRetry,
                });
                // The stall this transaction resolves is now recovery
                // work; attribute it as such when it ends. The watch entry
                // was updated in place, so the retry is not re-watched.
                self.commands.push(Command::NoteFaultRetry { core: key.0 });
                let tile = self.layout.core_tiles[key.0];
                self.send_req(tile, req, None);
            }
        }
    }

    /// Phase 1 of one simulated cycle (hub-pre): drain mesh deliveries,
    /// complete due page-fault services, and inject chaos events.
    /// Component-bound effects are queued — deliveries and
    /// [`Command`]s — and applied, in hub order, at the start of phase 2.
    fn phase1(&mut self, now: Cycle, mem: &mut PhysMem) {
        // 1a. Deliver mesh arrivals: core/engine traffic is queued for
        //     phase 2; L2 traffic is accepted here. Only tiles holding
        //     deliveries are drained, in sink order (cores, then banks,
        //     then engines, each ascending) — the order of a full scan
        //     over every component tile.
        let mut tiles = std::mem::take(&mut self.arrival_tiles);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.mesh.delivered_tiles(&mut tiles);
        arrivals.clear();
        arrivals.extend(tiles.iter().filter_map(|&tile| {
            match self.sinks[self.tile_index(tile)]? {
                Sink::Core(i) if i >= self.cores.len() => None,
                sink => Some((sink, tile)),
            }
        }));
        arrivals.sort_unstable();
        for &(sink, tile) in &arrivals {
            while let Some(payload) = self.mesh.take_one_delivered(tile) {
                match (sink, payload) {
                    (Sink::Core(i), NocPayload::Resp(resp)) => {
                        if let Some(chaos) = &mut self.chaos {
                            chaos.mmio_watch.remove(&(i, resp.id));
                        }
                        self.deliveries.push((sink, payload));
                    }
                    (Sink::Core(_), NocPayload::Req(req)) => {
                        unreachable!("request delivered to core tile: {req:?}")
                    }
                    (Sink::Bank(b), NocPayload::Req(req)) => {
                        if let Some(d) = &mut self.droplet {
                            d.observe(now, &req);
                        }
                        self.l2[b].accept(now, req);
                        self.bank_wake.wake_by(b, || self.l2[b].next_event(now));
                    }
                    (Sink::Bank(_), NocPayload::Resp(_)) => {
                        unreachable!("response delivered to L2 tile")
                    }
                    (Sink::Engine(_), _) => self.deliveries.push((sink, payload)),
                }
            }
        }
        self.arrival_tiles = tiles;
        self.arrivals = arrivals;

        // 1b. Complete due fault services. The OS maps the page recorded
        //     at dispatch time; phase 2 resumes (or keeps stalling) the
        //     component when it applies the command. A fault outside any
        //     lazy region cannot be serviced and the component stays
        //     stalled: under chaos it is counted; without chaos the first
        //     one is recorded and ends the run as hung.
        while let Some(target) = self.fault_service.recv(now) {
            let (component, index, vaddr) = match target {
                FaultTarget::Core(i, vaddr) => ("core", i, vaddr),
                FaultTarget::Engine(e, vaddr) => ("MAPLE", e, vaddr),
            };
            let ok = self.aspace.handle_fault(mem, &mut self.frames, vaddr);
            if !ok {
                if let Some(chaos) = &mut self.chaos {
                    chaos.stats.unserviceable_faults.inc();
                } else {
                    self.unserviceable.get_or_insert(UnserviceableFault {
                        component,
                        index,
                        vaddr: vaddr.0,
                    });
                }
            }
            self.commands.push(match target {
                FaultTarget::Core(core, _) => Command::CoreFaultServiced { core, ok },
                FaultTarget::Engine(engine, _) => Command::EngineFaultServiced { engine, ok },
            });
        }

        // 1c. Inject scheduled chaos events and scan the MMIO watchdog.
        self.chaos_stage(now, mem);
    }

    /// Phase 2 of one simulated cycle, with physical memory read-only:
    /// phase 1's deliveries and commands, then the due cores and the due
    /// engines, each ticked in ascending order with its faults dispatched
    /// and its egress queued as it ticks (plain stores are staged, not
    /// written), then occupancy sampling. The order of everything the hub
    /// observes is the order of a loop over every component, which is
    /// what the dense reference runs.
    ///
    /// Returns whether the ticks left the hub anything to do: a request,
    /// a response, a fault dispatch, or a ticked engine that is poisoned
    /// (the chaos scan must see it next cycle).
    fn phase2(&mut self, now: Cycle, mem: &PhysMem) -> bool {
        // 2a. Apply deliveries in drain order.
        let mut deliveries = std::mem::take(&mut self.deliveries);
        for (sink, payload) in deliveries.drain(..) {
            match (sink, payload) {
                (Sink::Core(i), NocPayload::Resp(resp)) => {
                    self.core_wake.wake(i, now, |n| self.cores[i].skip(n));
                    self.cores[i].on_mem_resp(now, resp, mem);
                }
                (Sink::Engine(e), NocPayload::Req(req)) => {
                    self.engine_wake.wake(e, now, |n| self.engines[e].skip(n));
                    self.engines[e].accept(now, req);
                }
                (Sink::Engine(e), NocPayload::Resp(resp)) => {
                    self.engine_wake.wake(e, now, |n| self.engines[e].skip(n));
                    self.engines[e].on_mem_resp(now, resp, mem);
                }
                _ => unreachable!("phase 1 queues only core responses and engine traffic"),
            }
        }
        self.deliveries = deliveries;

        // 2b. Apply hub commands in hub execution order.
        let mut commands = std::mem::take(&mut self.commands);
        for cmd in commands.drain(..) {
            self.apply_command(now, cmd);
        }
        self.commands = commands;

        // 2c. Tick the due cores. A core faults or halts only in its own
        //     tick, so only ticked cores need checking.
        let mut busy = false;
        self.core_wake.collect(now);
        self.host_work.core_ticks += self.core_wake.due_now().len() as u64;
        for k in 0..self.core_wake.due_now().len() {
            let i = self.core_wake.due_now()[k];
            self.core_wake.wake(i, now, |n| self.cores[i].skip(n));
            let dq = match self.desc_pair[i] {
                Some(q) => Some(&mut self.desc_queues[q]),
                None => None,
            };
            let core = &mut self.cores[i];
            let was_halted = core.is_halted();
            core.tick(now, mem, &mut self.stage, dq);
            if core.is_halted() && !was_halted {
                self.halted += 1;
            }
            if core.state() == CoreState::Faulted && !self.faults_in_service[i] {
                self.faults_in_service[i] = true;
                let vaddr = core.fault().expect("Faulted implies a fault").vaddr;
                let target = FaultTarget::Core(i, vaddr);
                self.fault_service.send(now, target);
                busy = true;
            }
            let tile = self.layout.core_tiles[i];
            while let Some(req) = self.cores[i].pop_mem_request() {
                self.send_req(tile, req, Some(i));
                busy = true;
            }
            self.core_wake
                .settle(i, now, || self.cores[i].next_event(now.plus(1)));
        }

        // 2d. Tick the due engines; per engine, requests precede
        //     responses.
        self.engine_wake.collect(now);
        self.host_work.engine_ticks += self.engine_wake.due_now().len() as u64;
        for k in 0..self.engine_wake.due_now().len() {
            let e = self.engine_wake.due_now()[k];
            self.engine_wake.wake(e, now, |n| self.engines[e].skip(n));
            self.engines[e].tick(now, mem);
            if !self.engine_fault_in_service[e] {
                if let Some(fault) = self.engines[e].fault() {
                    self.engine_fault_in_service[e] = true;
                    let target = FaultTarget::Engine(e, fault.vaddr);
                    self.fault_service.send(now, target);
                    busy = true;
                }
            }
            let tile = self.layout.maple_tiles[e];
            while let Some(req) = self.engines[e].pop_mem_request() {
                self.send_req(tile, req, None);
                busy = true;
            }
            while let Some(out) = self.engines[e].pop_response(now) {
                self.send_resp(tile, out);
                busy = true;
            }
            busy |= self.engines[e].is_poisoned();
            self.engine_wake
                .settle(e, now, || self.engines[e].next_event(now.plus(1)));
        }

        // 2e. Occupancy sampling (hub-scheduled cycles; nothing after this
        //     point in the cycle touches engine data queues, and a
        //     sleeping engine's queues do not change).
        if now.0.is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
            for (e, hists) in self.occupancy.iter_mut().enumerate() {
                for (q, h) in hists.iter_mut().enumerate() {
                    h.record(self.engines[e].queue(q as u8).occupancy() as u64);
                }
            }
        }
        busy
    }

    /// Applies one hub [`Command`] at the top of phase 2, waking the
    /// components it targets.
    fn apply_command(&mut self, now: Cycle, cmd: Command) {
        match cmd {
            Command::CoreFaultServiced { core, ok } => {
                self.core_wake.wake(core, now, |n| self.cores[core].skip(n));
                if self.cores[core].state() == CoreState::Faulted {
                    if ok {
                        self.cores[core].resume_from_fault(now, 1);
                        self.faults_in_service[core] = false;
                    }
                    // !ok: the core stays Faulted and in service; the
                    // hang machinery reports it.
                } else {
                    self.faults_in_service[core] = false;
                }
            }
            Command::EngineFaultServiced { engine, ok } => {
                self.engine_wake
                    .wake(engine, now, |n| self.engines[engine].skip(n));
                if self.engines[engine].fault().is_some() {
                    if ok {
                        self.engines[engine].resolve_fault();
                        self.engine_fault_in_service[engine] = false;
                    }
                } else {
                    // The fault cleared on its own (reset / MMIO fault
                    // resume) while the OS was busy.
                    self.engine_fault_in_service[engine] = false;
                }
            }
            Command::EngineReset { engine } => {
                self.engine_wake
                    .wake(engine, now, |n| self.engines[engine].skip(n));
                self.engines[engine].reset();
            }
            Command::Shootdown { vpn } => {
                for i in 0..self.cores.len() {
                    self.core_wake.wake(i, now, |n| self.cores[i].skip(n));
                    self.cores[i].tlb_shootdown(vpn);
                }
                for e in 0..self.engines.len() {
                    self.engine_wake.wake(e, now, |n| self.engines[e].skip(n));
                    self.engines[e].tlb_shootdown(vpn);
                }
            }
            Command::NoteFaultRetry { core } => {
                self.core_wake.wake(core, now, |n| self.cores[core].skip(n));
                self.cores[core].note_fault_retry();
            }
        }
    }

    /// Phase 3 of one simulated cycle (hub-post): apply the cores' staged
    /// stores, tick the hub-owned L2/DROPLET/mesh and advance time. A
    /// `quiet` cycle is hub-idle and phase 2 left the hub nothing to do,
    /// so there is nothing to tick: only the stores, the fabric's
    /// round-robin rotation and time move.
    fn phase3(&mut self, now: Cycle, mem: &mut PhysMem, quiet: bool) {
        // 3a. Apply staged plain stores in core order — the same write
        //     order the tick loop produced, one cycle after acceptance,
        //     and before the L2 tick so volatile/AMO servicing sees them.
        self.stage.apply(mem);

        // 3b–3d. Tick the hub and the interconnect. An idle fabric's tick
        //     only rotates its arbitration pointers.
        self.host_work.stepped += 1;
        self.host_work.hub += u64::from(!quiet);
        if quiet {
            self.mesh.skip(1);
        } else {
            self.hub_post(now, mem);
        }
        self.now += 1;
    }

    /// Stages 3b–3d of phase 3: the hub's own half of the cycle.
    fn hub_post(&mut self, now: Cycle, mem: &mut PhysMem) {
        // 3b. Tick the due L2 banks and DROPLET, and collect L2 egress in
        //     bank order (one bank replays the historical sequence). Only
        //     a tick fills a bank's outbound queue, so only ticked banks
        //     have egress.
        self.bank_wake.collect(now);
        self.host_work.bank_ticks += self.bank_wake.due_now().len() as u64;
        for &b in self.bank_wake.due_now() {
            self.l2[b].tick(now, mem);
        }
        let banks = self.l2.len() as u64;
        if let Some(d) = &mut self.droplet {
            for req in d.tick(now, mem) {
                let b = if banks == 1 {
                    0
                } else {
                    ((req.addr.0 / maple_mem::LINE_SIZE) % banks) as usize
                };
                self.l2[b].accept(now, req);
                self.bank_wake
                    .wake_by(b, || self.l2[b].next_event(now.plus(1)));
            }
        }
        for k in 0..self.bank_wake.due_now().len() {
            let b = self.bank_wake.due_now()[k];
            let tile = self.layout.l2_tiles[b];
            while let Some(out) = self.l2[b].pop_outgoing() {
                self.send_resp(tile, out);
            }
            self.bank_wake
                .settle(b, now, || self.l2[b].next_event(now.plus(1)));
        }

        // 3c. Inject due messages, preserving per-tile order under
        //     backpressure.
        self.inject_outbound(now);

        // 3d. Advance the interconnect.
        self.mesh.tick(now);
    }

    /// Drains the per-tile uncore egress queues into the mesh, preserving
    /// per-tile order under backpressure. Only tiles with a message due
    /// or a backpressured retry are visited, in ascending tile order:
    /// under chaos, that is the order of the fault plane's RNG draws.
    fn inject_outbound(&mut self, now: Cycle) {
        while let Some(&(due, t)) = self.egress_due.front() {
            if due > now {
                break;
            }
            self.egress_due.pop_front();
            self.egress.insert(t);
        }
        let mut tiles = std::mem::take(&mut self.egress_tiles);
        self.egress.drain_sorted(&mut tiles);
        for &t in &tiles {
            let src = self.tile_coords[t];
            loop {
                let msg = if let Some(m) = self.out_retry[t].pop_front() {
                    m
                } else if let Some(m) = self.out_uncore[t].recv(now) {
                    m
                } else {
                    break;
                };
                // Fault-eligible traffic must be individually retryable
                // without changing architectural order:
                // - anything an engine sources (its fetches, responses,
                //   acks): fetch slots are pre-reserved and responses are
                //   replayable, so loss is recoverable;
                // - the memory path back into an engine (L2 → MAPLE
                //   fills): the engine watchdog re-issues by txid;
                // - core → engine *blocking* MMIO loads (consume/open):
                //   each core has at most one outstanding, so a retry
                //   cannot reorder.
                // Core → engine posted stores (produce) are excluded:
                // arrival order defines queue order, so dropping or
                // delaying one would silently reorder the stream. The
                // host memory path (core ↔ L2) is likewise excluded: a
                // write-through store has no ack to retry on.
                let unreliable = self.chaos.is_some()
                    && (self.is_maple_tile(src)
                        || (self.is_maple_tile(msg.dst)
                            && match &msg.payload {
                                NocPayload::Resp(_) => true,
                                NocPayload::Req(req) => {
                                    matches!(req.kind, maple_mem::msg::MemReqKind::ReadWord { .. })
                                }
                            }));
                let injected = if unreliable {
                    self.mesh
                        .inject_unreliable(now, src, msg.dst, msg.flits, msg.payload)
                } else {
                    self.mesh.inject(now, src, msg.dst, msg.flits, msg.payload)
                };
                match injected {
                    Ok(()) => {}
                    Err(back) => {
                        self.out_retry[t].push_front(OutMsg {
                            dst: msg.dst,
                            flits: msg.flits,
                            payload: back.0,
                        });
                        break;
                    }
                }
            }
            if !self.out_retry[t].is_empty() {
                self.egress.insert(t);
            }
        }
        self.egress_tiles = tiles;
    }

    /// Whether the run can make no further progress — an engine was
    /// retired (poisoned) under the fault plane, or a page fault could not
    /// be serviced: the early-exit condition of every run loop.
    fn stuck(&self) -> bool {
        self.unserviceable.is_some()
            || self
                .chaos
                .as_ref()
                .is_some_and(|c| c.retired.iter().any(|&r| r))
    }

    /// The hub's own next event: the earliest cycle at or after `now` at
    /// which phase 1 or the hub half of phase 3 could act, as a raw cycle
    /// (`u64::MAX`: none). Before it, a stepped cycle is *hub-idle*:
    /// phase 1 has nothing to deliver, complete or inject, and phase 3
    /// has nothing to tick unless the cores and engines emit something.
    /// Anything omitted here would let a stepper pass over an observable
    /// mutation and diverge from the dense reference:
    ///
    /// - the shared L2 and DRAM (staged requests, completions), through
    ///   the banks' due cycles, and DROPLET decode deadlines;
    /// - the fabric, pinned to `now` while any packet is in flight or
    ///   awaits its phase-1 drain;
    /// - the uncore egress due queue, and backpressured retries (`now`);
    /// - pending page-fault service completions;
    /// - the chaos plane: scheduled resets and shootdowns, MMIO watchdog
    ///   deadlines, and a poisoned-but-not-yet-retired engine, which the
    ///   next `chaos_stage` must observe.
    fn hub_due(&self) -> u64 {
        let now = self.now;
        if !self.mesh.is_quiescent() || !self.egress.as_slice().is_empty() {
            return now.0;
        }
        let raw = |event: Option<Cycle>| event.map_or(u64::MAX, |c| c.0);
        let mut due = self
            .bank_wake
            .horizon()
            .min(raw(self.droplet.as_ref().and_then(|d| d.next_event(now))))
            .min(raw(self.egress_due.front().map(|&(d, _)| d.max(now))))
            .min(raw(self.fault_service.next_deadline().map(|d| d.max(now))));
        if let Some(chaos) = &self.chaos {
            due = due.min(raw(chaos.next_event(now)));
            if self
                .engines
                .iter()
                .enumerate()
                .any(|(e, engine)| engine.is_poisoned() && !chaos.retired[e])
            {
                due = now.0;
            }
        }
        due
    }

    /// The next queue-occupancy sample cycle (`u64::MAX` with no
    /// engines). Phase 2 samples, so the sample bounds a skip — sampled
    /// cycles are identical to the dense reference — but does not make
    /// the hub run.
    fn next_sample(&self) -> u64 {
        if self.cfg.maples > 0 {
            self.now.0.next_multiple_of(OCCUPANCY_SAMPLE_PERIOD)
        } else {
            u64::MAX
        }
    }

    /// Earliest cycle at or after `now` at which *any* component could
    /// act: the event horizon, as a raw cycle (`u64::MAX`: no component
    /// will ever act again without external input — the system is wedged
    /// and only the cycle budget remains). The cores' and engines' wake
    /// sets settled their terms in phase 2; the hub's own due cycle and
    /// the next occupancy sample are folded on top.
    fn horizon(&self, hub_due: u64) -> u64 {
        self.core_wake
            .horizon()
            .min(self.engine_wake.horizon())
            .min(hub_due)
            .min(self.next_sample())
    }

    /// Advances time to `target` (clamped to `max_cycles`) when it lies
    /// ahead. Skipping moves time only, plus the fabric's arbitration
    /// pointers: sleeping components catch their accounting up when next
    /// touched.
    fn skip_to(&mut self, target: u64, max_cycles: u64) {
        let target = target.min(max_cycles);
        if target > self.now.0 {
            let gap = target - self.now.0;
            self.mesh.skip(gap);
            self.host_work.skipped += gap;
            self.now = Cycle(target);
        }
    }

    /// The run loop: both the skipping stepper (the default) and the
    /// dense reference are this function, differing only in whether
    /// components sleep until due and quiescent gaps are skipped, or
    /// every component ticks every cycle — so the two are bit-identical
    /// by shared code.
    ///
    /// The skipping stepper also keeps the hub's own due cycle
    /// ([`System::hub_due`], refreshed whenever the hub runs). A cycle
    /// before it is hub-idle: phase 1 does not run, and unless the cores
    /// and engines emit something, phase 3 only applies their stores and
    /// advances time.
    fn step_until(&mut self, max_cycles: u64, skipping: bool) -> RunOutcome {
        assert!(!self.cores.is_empty(), "load programs before running");
        let mut mem = std::mem::take(&mut self.mem);
        let dense = !skipping;
        self.core_wake = WakeSet::new(self.cores.len(), self.now, dense);
        self.engine_wake = WakeSet::new(self.engines.len(), self.now, dense);
        self.bank_wake = WakeSet::new(self.l2.len(), self.now, dense);
        self.halted = self.cores.iter().filter(|c| c.is_halted()).count();
        let mut hub_due = self.now.0;
        let finished = loop {
            if self.now.0 >= max_cycles {
                break None;
            }
            let now = self.now;
            let hub_idle = skipping && now.0 < hub_due;
            if !hub_idle {
                self.phase1(now, &mut mem);
            }
            let busy = self.phase2(now, &mem);
            let quiet = hub_idle && !busy;
            self.phase3(now, &mut mem, quiet);
            if self.halted == self.cores.len() {
                break Some(self.now);
            }
            // No further progress is possible: an engine was retired, or
            // a page fault could not be serviced.
            if self.stuck() {
                break None;
            }
            if skipping {
                if !quiet {
                    hub_due = self.hub_due();
                }
                self.skip_to(self.horizon(hub_due), max_cycles);
            }
        };
        self.mem = mem;
        // Account every slept cycle before anything reads the cores' and
        // engines' statistics (or diagnoses a hang).
        self.core_wake.flush(self.now, |i, n| self.cores[i].skip(n));
        self.engine_wake
            .flush(self.now, |e, n| self.engines[e].skip(n));
        match finished {
            Some(at) => RunOutcome::Finished(at),
            None => RunOutcome::Hung(Box::new(self.hang_diagnosis())),
        }
    }

    /// Runs until every loaded core halts or `max_cycles` elapse, skipping
    /// quiescent gaps: after each stepped cycle the run loop computes the
    /// event horizon (`min` of every component's `next_event`) and
    /// advances time straight to it; within stepped cycles, only the
    /// cores, engines and L2 banks that are due tick. Produces
    /// bit-identical cycle counts, statistics, traces and occupancy
    /// samples to the dense stepper — a component's untouched cycles are
    /// exactly those on which the dense loop would only have performed
    /// the accounting its `skip` applies in bulk.
    ///
    /// On expiry the outcome is [`RunOutcome::Hung`] carrying a
    /// structured [`HangDiagnosis`] (per-core stall reason, per-engine
    /// outstanding work) rather than a bare timeout. Under an active
    /// fault plane, a run whose engine was retired (poisoned) returns
    /// early with the same diagnosis instead of burning the full budget.
    ///
    /// When the configuration selects
    /// [`SocConfig::with_dense_stepper`](crate::config::SocConfig::with_dense_stepper),
    /// runs the dense reference stepper instead: one cycle at a time with
    /// no quiescence skipping, the differential oracle for the
    /// event-horizon scheduler.
    ///
    /// # Panics
    ///
    /// Panics if no program was loaded.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        self.step_until(max_cycles, !self.cfg.dense_stepper)
    }

    /// Snapshot of why the system is not making progress.
    #[must_use]
    pub fn hang_diagnosis(&self) -> HangDiagnosis {
        HangDiagnosis {
            at: self.now,
            cores: self
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| CoreHang {
                    core: i,
                    state: c.state_label(),
                    mmio_unacked: c.mmio_unacked(),
                })
                .collect(),
            engines: self
                .engines
                .iter()
                .enumerate()
                .map(|(e, eng)| EngineHang {
                    engine: e,
                    queue_occupancy: eng.queue_occupancies(),
                    outstanding_fetches: eng.inflight_fetches(),
                    pending_produces: eng.pending_produces(),
                    pending_consumes: eng.pending_consumes(),
                    poisoned: eng.is_poisoned()
                        || self.chaos.as_ref().is_some_and(|c| c.retired[e]),
                })
                .collect(),
            unserviceable: self.unserviceable,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// How the run loops have spent their host work so far: cycles
    /// stepped, stepped cycles that ran the hub phases, cycles skipped,
    /// and core, engine and L2 bank ticks. Deterministic, and not part of
    /// [`System::metrics_snapshot`].
    #[must_use]
    pub fn host_work(&self) -> HostWork {
        self.host_work
    }

    // --- inspection -------------------------------------------------------

    /// A loaded core.
    #[must_use]
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Number of loaded cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// A MAPLE engine.
    #[must_use]
    pub fn engine(&self, i: usize) -> &Engine {
        &self.engines[i]
    }

    /// Number of L2 banks (1 for flat configurations).
    #[must_use]
    pub fn l2_bank_count(&self) -> usize {
        self.l2.len()
    }

    /// The DROPLET prefetcher, when enabled.
    #[must_use]
    pub fn droplet(&self) -> Option<&DropletPrefetcher> {
        self.droplet.as_ref()
    }

    /// Mesh statistics.
    #[must_use]
    pub fn mesh_stats(&self) -> &maple_noc::MeshStats {
        self.mesh.stats()
    }

    /// Driver-side chaos counters, when the fault plane is active.
    #[must_use]
    pub fn chaos_stats(&self) -> Option<&ChaosStats> {
        self.chaos.as_ref().map(|c| &c.stats)
    }

    /// DRAM statistics aggregated across every bank's channel (includes
    /// fault-plane latency spikes). Over one bank this is the historical
    /// value unchanged.
    #[must_use]
    pub fn dram_stats(&self) -> maple_mem::dram::DramStats {
        let mut total = maple_mem::dram::DramStats::default();
        for bank in &self.l2 {
            let s = bank.dram_stats();
            total.requests.add(s.requests.get());
            total.spikes.add(s.spikes.get());
            total.latency.merge(&s.latency);
        }
        total
    }

    /// Whether engine `e` was retired by the driver after poisoning.
    #[must_use]
    pub fn engine_retired(&self, e: usize) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.retired[e])
    }

    /// Sampled occupancy distribution of engine `e`'s queue `q` (one
    /// sample every [`OCCUPANCY_SAMPLE_PERIOD`] cycles) — the Section 4.4
    /// runahead observable.
    #[must_use]
    pub fn queue_occupancy(&self, e: usize, q: u8) -> &maple_sim::stats::Histogram {
        &self.occupancy[e][usize::from(q)]
    }

    /// Total load instructions retired across cores (Figure 10's metric).
    #[must_use]
    pub fn total_loads(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().loads.get()).sum()
    }

    /// Mean load-to-use latency across cores (Figure 11's metric),
    /// weighted by load count.
    #[must_use]
    pub fn mean_load_latency(&self) -> f64 {
        let mut h = maple_sim::stats::Histogram::new();
        for c in &self.cores {
            h.merge(&c.l1_stats().load_latency);
        }
        h.mean()
    }

    // --- observability ----------------------------------------------------

    /// The hub-side observability tracer handle (disabled unless
    /// [`SocConfig::with_tracing`] was used). Mesh, L2/DRAM and chaos
    /// events emit here; core and engine events live in per-component
    /// rings — read the canonical combined stream through
    /// [`System::trace_records`].
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Canonical merge of every trace ring: cores ascending, engines
    /// ascending, hub last — a fixed order, so the merged stream is
    /// byte-identical across steppers. Returns the
    /// records plus the total overflow count.
    fn merged_trace(&self) -> (Vec<TraceRecord>, u64) {
        let mut rings: Vec<&Tracer> =
            Vec::with_capacity(self.core_rings.len() + self.engine_rings.len() + 1);
        rings.extend(&self.core_rings);
        rings.extend(&self.engine_rings);
        rings.push(&self.tracer);
        let capacity = self.cfg.trace.map_or(0, |t| t.capacity);
        merge_rings(&rings, capacity)
    }

    /// Snapshot of the captured trace, oldest first, merged canonically
    /// across the per-core, per-engine and hub rings. Empty when tracing
    /// is disabled; when the merge overflowed the configured capacity
    /// only the most recent events survive (see [`System::trace_dropped`]).
    #[must_use]
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.merged_trace().0
    }

    /// Events lost to ring overflow across every trace ring, including
    /// those the canonical merge had to shed to fit the configured
    /// capacity.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.merged_trace().1
    }

    /// Exports the captured trace in Chrome `trace_event` JSON to `path`
    /// (open in `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        maple_trace::chrome::write_chrome_trace(path, &self.trace_records())
    }

    /// Cycles core `i` has been live: issue to halt, or to now if still
    /// running.
    fn core_cycles(&self, i: usize) -> u64 {
        self.cores[i].stats().halted_at.map_or(self.now.0, |h| h.0)
    }

    /// Per-core stall attribution rows (blocking cycles split by
    /// attributed cause; `compute` is the remainder). Clustered fabrics
    /// append one aggregate row per cluster holding loaded cores, so
    /// stall attribution is readable at the hierarchy's own granularity.
    #[must_use]
    pub fn stall_rows(&self) -> Vec<StallRow> {
        let mut rows: Vec<StallRow> = (0..self.cores.len())
            .map(|i| StallRow {
                label: format!("core{i}"),
                core_cycles: self.core_cycles(i),
                breakdown: self.cores[i].stats().stall,
            })
            .collect();
        if let Some(topo) = self.cfg.fabric_topology() {
            let mut agg: Vec<(u64, StallBreakdown)> =
                vec![(0, StallBreakdown::default()); topo.clusters()];
            for i in 0..self.cores.len() {
                let c = topo.cluster_index_of(self.layout.core_tiles[i]);
                agg[c].0 += self.core_cycles(i);
                agg[c].1.merge(&self.cores[i].stats().stall);
            }
            for (c, (cycles, breakdown)) in agg.into_iter().enumerate() {
                if cycles > 0 {
                    rows.push(StallRow {
                        label: format!("cluster{c}"),
                        core_cycles: cycles,
                        breakdown,
                    });
                }
            }
        }
        rows
    }

    /// Aggregate stall attribution across every loaded core.
    #[must_use]
    pub fn stall_total(&self) -> (u64, StallBreakdown) {
        let mut total = StallBreakdown::default();
        let mut cycles = 0;
        for i in 0..self.cores.len() {
            total.merge(&self.cores[i].stats().stall);
            cycles += self.core_cycles(i);
        }
        (cycles, total)
    }

    /// One unified registry snapshot of every component's counters: the
    /// scattered per-component stats structs (`CpuStats`, `L1Stats`,
    /// `EngineStats`, `L2Stats`, `DramStats`, `MeshStats`, `ChaosStats`)
    /// rendered into named, typed metrics. Render with
    /// [`MetricsSnapshot::render_table`] or
    /// [`MetricsSnapshot::to_json`].
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        m.counter("sim/cycles", self.now.0);
        for (i, c) in self.cores.iter().enumerate() {
            let st = c.stats();
            let p = format!("core{i}");
            m.counter(format!("{p}/instructions"), st.instructions.get());
            m.counter(format!("{p}/loads"), st.loads.get());
            m.counter(format!("{p}/stores"), st.stores.get());
            m.counter(format!("{p}/atomics"), st.atomics.get());
            m.counter(format!("{p}/mem_stall_cycles"), st.mem_stall_cycles.get());
            m.counter(format!("{p}/ptw_stall_cycles"), st.ptw_stall_cycles.get());
            for (label, cycles) in st.stall.buckets() {
                m.counter(format!("{p}/stall/{label}"), cycles);
            }
            m.counter(
                format!("{p}/dispatch/interpreted_ticks"),
                st.interpreted_ticks.get(),
            );
            let l1 = c.l1_stats();
            m.counter(format!("{p}/l1/loads"), l1.loads.get());
            m.counter(format!("{p}/l1/load_hits"), l1.load_hits.get());
            m.histogram(format!("{p}/l1/load_latency"), &l1.load_latency);
        }
        for (e, eng) in self.engines.iter().enumerate() {
            let st = eng.stats();
            let p = format!("engine{e}");
            m.counter(format!("{p}/mem_fetches"), st.mem_fetches.get());
            m.counter(format!("{p}/llc_prefetches"), st.llc_prefetches.get());
            m.counter(format!("{p}/lima_completed"), st.lima_completed.get());
            m.counter(format!("{p}/produce_stalls"), st.produce_stalls.get());
            m.counter(format!("{p}/consume_stalls"), st.consume_stalls.get());
            m.counter(format!("{p}/faults"), st.faults.get());
            m.counter(format!("{p}/fetch_retries"), st.fetch_retries.get());
            m.counter(format!("{p}/acks_dropped"), st.acks_dropped.get());
            for (q, hist) in self.occupancy[e].iter().enumerate() {
                m.histogram(format!("{p}/queue{q}/occupancy"), hist);
            }
        }
        // Aggregate L2/DRAM counters over every bank: over one bank the
        // sums are the historical values byte-for-byte, so flat metrics
        // JSON is unchanged. Per-bank namespaces appear only when the
        // configuration is actually banked.
        let l2_sum = |f: fn(&maple_mem::l2::L2Stats) -> u64| {
            self.l2.iter().map(|b| f(b.stats())).sum::<u64>()
        };
        m.counter("l2/hits", l2_sum(|s| s.hits.get()));
        m.counter("l2/misses", l2_sum(|s| s.misses.get()));
        m.counter("l2/dram_fetches", l2_sum(|s| s.dram_fetches.get()));
        m.counter("l2/prefetch_fills", l2_sum(|s| s.prefetch_fills.get()));
        m.counter("l2/writes", l2_sum(|s| s.writes.get()));
        let dram = self.dram_stats();
        m.counter("dram/requests", dram.requests.get());
        m.counter("dram/spikes", dram.spikes.get());
        m.histogram("dram/latency", &dram.latency);
        if self.l2.len() > 1 {
            for (b, bank) in self.l2.iter().enumerate() {
                let s = bank.stats();
                let p = format!("l2/bank{b}");
                m.counter(format!("{p}/hits"), s.hits.get());
                m.counter(format!("{p}/misses"), s.misses.get());
                m.counter(format!("{p}/dram_fetches"), s.dram_fetches.get());
                m.counter(format!("{p}/prefetch_fills"), s.prefetch_fills.get());
                m.counter(format!("{p}/writes"), s.writes.get());
                let d = bank.dram_stats();
                m.counter(format!("dram/bank{b}/requests"), d.requests.get());
                m.counter(format!("dram/bank{b}/spikes"), d.spikes.get());
            }
        }
        let noc = self.mesh_stats();
        m.counter("noc/injected", noc.injected.get());
        m.counter("noc/delivered", noc.delivered.get());
        m.counter("noc/hops", noc.hops.get());
        m.counter("noc/dropped", noc.dropped.get());
        m.counter("noc/delayed", noc.delayed.get());
        m.histogram("noc/latency", &noc.latency);
        if let Some(global) = self.mesh.global_mesh_stats() {
            m.counter("noc/global/injected", global.injected.get());
            m.counter("noc/global/delivered", global.delivered.get());
            m.counter("noc/global/hops", global.hops.get());
            m.counter("noc/global/dropped", global.dropped.get());
            m.counter("noc/global/delayed", global.delayed.get());
            m.histogram("noc/global/latency", &global.latency);
        }
        if let Some(chaos) = self.chaos_stats() {
            m.counter("chaos/resets_injected", chaos.resets_injected.get());
            m.counter("chaos/shootdowns_injected", chaos.shootdowns_injected.get());
            m.counter("chaos/mmio_timeouts", chaos.mmio_timeouts.get());
            m.counter("chaos/mmio_retries", chaos.mmio_retries.get());
            m.counter("chaos/engines_poisoned", chaos.engines_poisoned.get());
            m.counter(
                "chaos/unserviceable_faults",
                chaos.unserviceable_faults.get(),
            );
        }
        if self.tracer.is_enabled() {
            let (records, dropped) = self.merged_trace();
            m.counter("trace/captured", records.len() as u64);
            m.counter("trace/dropped", dropped);
        }
        m
    }
}
