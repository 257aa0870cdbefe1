//! The MAPLE engine: microarchitecture of Figure 6 as a timing model.
//!
//! One engine instance owns:
//!
//! - a **Configuration pipeline** (non-blocking) for queue setup, LIMA
//!   programming, driver operations and performance-counter reads;
//! - a **Produce pipeline** that accepts `PRODUCE`/`PRODUCE_PTR`/`PREFETCH`
//!   stores, translates pointers through the engine MMU, reserves queue
//!   slots (the slot index is the memory transaction ID used to restore
//!   program order), and issues the memory fetches;
//! - a **Consume pipeline** that answers `CONSUME` loads, buffering them
//!   while the queue is empty (no polling);
//! - the **queue controller** with its scratchpad-resident circular FIFOs;
//! - the **LIMA unit** that fetches loops of indirect accesses `A[B[i]]`
//!   by streaming `B` in 64-byte chunks and feeding pointer-produces or LLC
//!   prefetches into the Produce path;
//! - a 16-entry TLB plus hardware page-table walker, with page-fault
//!   interrupts and shootdown support.
//!
//! The separate pipelines avoid deadlock: a full queue buffers only its own
//! produce operations; traffic to other queues keeps flowing.
//!
//! Host cost follows the work. Everything a tenant owns lives in one
//! state struct that a context switch clones and `RESET` replaces. Two
//! per-queue bit masks name the queues with a buffered produce or consume
//! head, so the stages, [`Engine::next_event`] and [`Engine::skip`] visit
//! only those. The decode and response paths have one fixed latency each,
//! so they are FIFO [`Link`]s. The MMIO replay (dedup) cache exists only
//! once the fault plane's hooks are installed: the SoC's chaos MMIO
//! watchdog is the only source of re-sent requests.

use std::collections::VecDeque;

use maple_mem::l2::OutboundResp;
use maple_mem::msg::{MemReq, MemReqKind, MemResp, ServedBy};
use maple_mem::phys::{PAddr, PhysMem, LINE_SIZE};
use maple_noc::Coord;
use maple_sim::fault::{FaultSchedule, WatchdogConfig};
use maple_sim::hash::FxHashMap;
use maple_sim::link::Link;
use maple_sim::stats::Counter;
use maple_sim::Cycle;
use maple_trace::{FaultSite, TraceEvent, Tracer};
use maple_vm::page_table::{PageFault, PageTable};
use maple_vm::tlb::Tlb;
use maple_vm::walker::walk_latency;
use maple_vm::{VAddr, VirtPage};

use crate::mmio::{
    decode_config_queue, decode_lima_go, decode_lima_range, decode_load, decode_store, LoadOp,
    StoreOp,
};
use crate::queue::{QueueController, Slot};

/// Engine configuration (RTL parameters fixed at tape-out).
#[derive(Debug, Clone, Copy)]
pub struct MapleConfig {
    /// Hardware queues per instance (paper: 8).
    pub queues: usize,
    /// Shared scratchpad capacity (paper: 1 KB).
    pub scratchpad_bytes: u64,
    /// Default entries per queue (paper: 32).
    pub default_entries: usize,
    /// Default entry size in bytes (paper: 4).
    pub default_entry_bytes: u8,
    /// NoC-decoder + dispatch latency for incoming operations.
    pub decode_latency: u64,
    /// Response-path latency (pipeline exit + NoC encoder).
    pub respond_latency: u64,
    /// Engine TLB entries (paper: 16).
    pub tlb_entries: usize,
    /// Latency of one PTW level (one L2 read).
    pub ptw_read_latency: u64,
    /// LIMA command queue depth.
    pub lima_cmd_depth: usize,
    /// Outstanding 64-byte `B` chunks LIMA keeps in flight.
    pub lima_chunks_inflight: usize,
    /// Indirect elements LIMA feeds into the Produce path per cycle.
    pub lima_rate: usize,
}

impl Default for MapleConfig {
    fn default() -> Self {
        MapleConfig {
            queues: 8,
            scratchpad_bytes: 1024,
            default_entries: 32,
            default_entry_bytes: 4,
            decode_latency: 2,
            respond_latency: 2,
            tlb_entries: 16,
            ptw_read_latency: 30,
            lima_cmd_depth: 4,
            lima_chunks_inflight: 4,
            lima_rate: 2,
        }
    }
}

/// A pending page fault raised by the engine MMU (the interrupt payload the
/// MAPLE driver reads back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFault {
    /// The virtual address that faulted.
    pub vaddr: VAddr,
    /// The architectural fault.
    pub fault: PageFault,
}

/// Engine performance counters (exposed through the debug/stat MMIO ops).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Memory fetches the engine issued (pointer produces + LIMA).
    pub mem_fetches: Counter,
    /// Speculative prefetches pushed into the LLC.
    pub llc_prefetches: Counter,
    /// Page faults raised.
    pub faults: Counter,
    /// LIMA commands completed.
    pub lima_completed: Counter,
    /// Produce operations buffered because their queue was full.
    pub produce_stalls: Counter,
    /// Consume operations buffered because their queue was empty.
    pub consume_stalls: Counter,
    /// Memory responses discarded because their transaction was dropped
    /// by a `RESET` while the reply crossed the NoC.
    pub stale_responses: Counter,
    /// Responses/acks lost at the source by the fault plane's MMIO
    /// ack-loss schedule.
    pub acks_dropped: Counter,
    /// Watchdog expiries on the engine's own memory fetches.
    pub fetch_timeouts: Counter,
    /// Memory fetches re-issued by the watchdog after a timeout.
    pub fetch_retries: Counter,
    /// Fetches abandoned after retries were exhausted (or that were not
    /// retryable, e.g. atomics); each one poisons the engine.
    pub poisoned_fetches: Counter,
    /// Completed responses replayed from the dedup cache when a core's
    /// watchdog re-sent an already-answered request.
    pub replayed_responses: Counter,
    /// Re-sent requests dropped because the original is still in flight.
    pub duplicate_requests: Counter,
    /// Requests rejected with an error response (e.g. a queue index
    /// outside the configured range).
    pub bad_requests: Counter,
}

#[derive(Debug, Clone, Copy)]
enum ProducePayload {
    /// Immediate data.
    Data(u64),
    /// A pointer to fetch (non-coherent DRAM path unless `coherent`).
    Ptr { va: VAddr, coherent: bool },
    /// Extension: a pointer to atomically update at the L2 serialization
    /// point; the old value is enqueued in program order.
    AmoPtr {
        va: VAddr,
        kind: maple_mem::phys::AmoKind,
    },
}

#[derive(Debug, Clone, Copy)]
struct PendingProduce {
    payload: ProducePayload,
    /// Where and how to acknowledge the store once accepted.
    ack_dst: Coord,
    ack_id: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingConsume {
    dst: Coord,
    id: u64,
    size: u8,
}

#[derive(Debug, Clone, Copy)]
enum FetchPurpose {
    /// A pointer-produce fetch destined for a queue slot.
    QueueFill { q: u8, slot: Slot },
    /// A LIMA chunk of the `B` array.
    LimaChunk { seq: u64 },
}

/// Book-keeping for one outstanding engine memory fetch: what the data is
/// for, plus everything the watchdog needs to re-issue it.
#[derive(Debug, Clone, Copy)]
struct InflightFetch {
    purpose: FetchPurpose,
    req: MemReq,
    issued: Cycle,
    retries: u32,
}

/// Completed-response dedup cache entries kept for replay.
const SEEN_CAP: usize = 1024;

/// Request dedup / response replay cache, keyed by (requester, txid):
/// `None` = the original request is still being processed, `Some` = the
/// response data, replayed when a core watchdog re-sends the request.
#[derive(Debug, Default)]
struct ReplayCache {
    seen: FxHashMap<(Coord, u64), Option<u64>>,
    /// FIFO eviction order of *completed* `seen` entries.
    order: VecDeque<(Coord, u64)>,
}

impl ReplayCache {
    /// Records a completed response, evicting the oldest beyond
    /// [`SEEN_CAP`]. A replayed response is already recorded.
    fn record(&mut self, key: (Coord, u64), data: u64) {
        let entry = self.seen.entry(key).or_insert(None);
        if entry.is_none() {
            *entry = Some(data);
            self.order.push_back(key);
            while self.order.len() > SEEN_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
        }
    }
}

/// Iterates the set bits of a per-queue mask, lowest queue first.
fn queues_in(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            q
        })
    })
}

#[derive(Debug, Clone, Copy)]
struct LimaCmd {
    a_base: VAddr,
    b_base: VAddr,
    lo: u32,
    hi: u32,
    speculative: bool,
    queue: u8,
    a_elem: u8,
    b_elem: u8,
}

#[derive(Debug, Clone, Copy)]
struct LimaChunkRec {
    seq: u64,
    /// Number of B elements in this chunk.
    count: u32,
    /// Physical base of the chunk (translation done at fetch time).
    paddr: PAddr,
    ready: bool,
}

#[derive(Debug, Clone)]
struct LimaActive {
    cmd: LimaCmd,
    /// Next B index to fetch (chunk-granular).
    next_fetch: u32,
    /// Chunks in flight or awaiting processing, in order.
    chunks: VecDeque<LimaChunkRec>,
    /// Index of the next element to process within the head chunk.
    head_pos: u32,
    next_chunk_seq: u64,
}

/// One tenant's architectural engine state, as listed on
/// [`EngineContext`]. `RESET` replaces it (keeping the MMU root); a
/// context switch saves and restores it whole.
#[derive(Debug, Clone)]
struct TenantState {
    queues: QueueController,
    tlb: Tlb,
    page_table: Option<PageTable>,
    walker_free_at: Cycle,
    fault: Option<EngineFault>,
    incoming: Link<MemReq>,
    produce_pending: Vec<VecDeque<PendingProduce>>,
    /// Bit `q` is set exactly while `produce_pending[q]` is non-empty,
    /// so the stages visit only queues with a buffered head.
    produce_mask: u8,
    /// Per-queue operand register for the atomic-produce extension.
    amo_operand: Vec<u64>,
    prefetch_pending: VecDeque<PendingProduce>,
    consume_pending: Vec<VecDeque<PendingConsume>>,
    /// Bit `q` is set exactly while `consume_pending[q]` is non-empty.
    consume_mask: u8,
    open_owner: Vec<Option<Coord>>,
    out_resp: Link<OutboundResp>,
    out_mem: VecDeque<MemReq>,
    inflight: FxHashMap<u64, InflightFetch>,
    lima_regs: (VAddr, VAddr, u32, u32), // staged A, B, lo, hi
    lima_cmds: VecDeque<LimaCmd>,
    lima_go_pending: VecDeque<(Coord, u64, LimaCmd)>,
    lima: Option<LimaActive>,
    /// Set when a fetch exhausted its retries; the driver must reset or
    /// retire this instance.
    poisoned: bool,
}

impl TenantState {
    fn new(cfg: &MapleConfig) -> Self {
        let queues = QueueController::new(
            cfg.queues,
            cfg.default_entries,
            cfg.default_entry_bytes,
            cfg.scratchpad_bytes,
        )
        .expect("default queue configuration must fit the scratchpad");
        TenantState {
            queues,
            tlb: Tlb::new(cfg.tlb_entries),
            page_table: None,
            walker_free_at: Cycle::ZERO,
            fault: None,
            incoming: Link::new(cfg.decode_latency),
            produce_pending: (0..cfg.queues).map(|_| VecDeque::new()).collect(),
            produce_mask: 0,
            amo_operand: vec![0; cfg.queues],
            prefetch_pending: VecDeque::new(),
            consume_pending: (0..cfg.queues).map(|_| VecDeque::new()).collect(),
            consume_mask: 0,
            open_owner: vec![None; cfg.queues],
            out_resp: Link::new(cfg.respond_latency),
            out_mem: VecDeque::new(),
            inflight: FxHashMap::default(),
            lima_regs: (VAddr(0), VAddr(0), 0, 0),
            lima_cmds: VecDeque::new(),
            lima_go_pending: VecDeque::new(),
            lima: None,
            poisoned: false,
        }
    }

    fn push_produce(&mut self, q: u8, payload: ProducePayload, ack_dst: Coord, ack_id: u64) {
        self.produce_pending[usize::from(q)].push_back(PendingProduce {
            payload,
            ack_dst,
            ack_id,
        });
        self.produce_mask |= 1 << q;
    }

    fn pop_produce(&mut self, qi: usize) {
        let pending = &mut self.produce_pending[qi];
        pending.pop_front();
        if pending.is_empty() {
            self.produce_mask &= !(1 << qi);
        }
    }

    fn push_consume(&mut self, q: u8, op: PendingConsume) {
        self.consume_pending[usize::from(q)].push_back(op);
        self.consume_mask |= 1 << q;
    }

    fn pop_consume(&mut self, qi: usize) {
        let pending = &mut self.consume_pending[qi];
        pending.pop_front();
        if pending.is_empty() {
            self.consume_mask &= !(1 << qi);
        }
    }

    /// Whether both masks name exactly the queues with buffered heads.
    fn masks_match(&self) -> bool {
        fn mask<T>(pending: &[VecDeque<T>]) -> u8 {
            pending
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_empty())
                .fold(0, |m, (q, _)| m | 1 << q)
        }
        mask(&self.produce_pending) == self.produce_mask
            && mask(&self.consume_pending) == self.consume_mask
    }

    fn pending_produces(&self) -> usize {
        self.produce_pending.iter().map(VecDeque::len).sum()
    }

    fn pending_consumes(&self) -> usize {
        self.consume_pending.iter().map(VecDeque::len).sum()
    }

    fn queue_occupancies(&self) -> Vec<usize> {
        (0..self.queues.count())
            .map(|q| self.queues.queue(q as u8).occupancy())
            .collect()
    }

    fn is_quiescent(&self) -> bool {
        self.incoming.is_empty()
            && self.inflight.is_empty()
            && self.out_mem.is_empty()
            && self.out_resp.is_empty()
            && self.lima.is_none()
            && self.lima_cmds.is_empty()
            && self.lima_go_pending.is_empty()
            && self.produce_mask == 0
            && self.prefetch_pending.is_empty()
            && self.consume_mask == 0
    }
}

/// A saved snapshot of one tenant's architectural engine state: everything
/// the virtualization driver must save and restore across a context switch
/// — the queue controller (occupancy, reservations, in-order slots), the
/// fetch unit (in-flight fetches, buffered produce/consume/prefetch heads),
/// the LIMA unit, queue ownership, and the MMU view (TLB contents,
/// page-table root, pending fault).
///
/// Physical-engine-resident state is deliberately **not** part of a
/// context: performance counters, the monotonic transaction-ID allocator,
/// the response-replay cache, watchdog/fault-plane hooks, and the tracer
/// all stay with the hardware instance (exactly the state [`Engine::reset`]
/// preserves), so transactions issued under one tenant can never alias
/// another tenant's after a switch.
#[derive(Debug, Clone)]
pub struct EngineContext(TenantState);

impl EngineContext {
    /// Outstanding memory fetches captured in this context.
    #[must_use]
    pub fn inflight_fetches(&self) -> usize {
        self.0.inflight.len()
    }

    /// Buffered produce operations captured across all queues.
    #[must_use]
    pub fn pending_produces(&self) -> usize {
        self.0.pending_produces()
    }

    /// Buffered consume operations captured across all queues.
    #[must_use]
    pub fn pending_consumes(&self) -> usize {
        self.0.pending_consumes()
    }

    /// Occupancy of every captured hardware queue.
    #[must_use]
    pub fn queue_occupancies(&self) -> Vec<usize> {
        self.0.queue_occupancies()
    }

    /// Whether the captured state holds no in-flight work at all — the
    /// cheap-switch case: restoring a quiescent context cannot be starved
    /// by responses that raced a switch-out.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.0.is_quiescent()
    }
}

/// The MAPLE engine. Wire it to a tile: deliver incoming MMIO requests with
/// [`Engine::accept`], memory responses with [`Engine::on_mem_resp`], call
/// [`Engine::tick`] each cycle, and drain [`Engine::pop_mem_request`] /
/// [`Engine::pop_response`] into the NoC.
#[derive(Debug)]
pub struct Engine {
    cfg: MapleConfig,
    /// The running tenant's architectural state.
    tenant: TenantState,
    next_txid: u64,
    stats: EngineStats,
    /// Request dedup / response replay cache, present only with the fault
    /// plane's hooks: only the chaos MMIO watchdog ever re-sends a
    /// request. Survives `RESET` (like `next_txid`) so pre-reset retries
    /// stay idempotent.
    replay: Option<ReplayCache>,
    /// Fetch watchdog; `None` (the default) never times out.
    watchdog: Option<WatchdogConfig>,
    /// MMIO ack-loss schedule from the fault plane.
    ack_fault: Option<FaultSchedule>,
    tracer: Tracer,
    /// Engine index used in trace events (set alongside the tracer).
    trace_id: usize,
}

impl Engine {
    /// Creates an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if the default queue shape exceeds the scratchpad budget.
    #[must_use]
    pub fn new(cfg: MapleConfig) -> Self {
        Engine {
            tenant: TenantState::new(&cfg),
            next_txid: 0,
            stats: EngineStats::default(),
            replay: None,
            watchdog: None,
            ack_fault: None,
            tracer: Tracer::disabled(),
            trace_id: 0,
            cfg,
        }
    }

    /// Installs an observability tracer and the engine index to label
    /// events with. Tracing never changes timing.
    pub fn set_tracer(&mut self, id: usize, tracer: Tracer) {
        self.trace_id = id;
        self.tracer = tracer;
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> MapleConfig {
        self.cfg
    }

    /// Programs the MMU root (driver path; also reachable via the
    /// `SET_PT_ROOT` MMIO store).
    pub fn set_page_table(&mut self, pt: PageTable) {
        self.tenant.page_table = Some(pt);
    }

    /// The pending fault, if the engine raised one (the interrupt line).
    #[must_use]
    pub fn fault(&self) -> Option<EngineFault> {
        self.tenant.fault
    }

    /// Driver: clear the fault after fixing the page tables; the stalled
    /// operation retries.
    pub fn resolve_fault(&mut self) {
        self.tenant.fault = None;
    }

    /// Invalidate the engine TLB entry for a page (Linux shootdown
    /// callback; also reachable via the `TLB_SHOOTDOWN` MMIO store).
    pub fn tlb_shootdown(&mut self, vpn: VirtPage) {
        self.tenant.tlb.shootdown(vpn);
    }

    /// Arms the per-fetch watchdog: an outstanding memory fetch past its
    /// (exponentially backed-off) deadline is re-issued, and poisoned
    /// after `max_retries` re-issues. Off by default. Like
    /// [`Engine::set_ack_fault`], it is a fault-plane hook and installs
    /// the MMIO replay cache.
    pub fn set_watchdog(&mut self, w: WatchdogConfig) {
        self.watchdog = Some(w);
        self.replay.get_or_insert_with(ReplayCache::default);
    }

    /// Installs the fault plane's MMIO ack-loss schedule: outbound
    /// responses/acks are dropped at the source with the scheduled rate.
    /// Also installs the MMIO replay cache, which makes the re-sends of
    /// lost acks idempotent.
    pub fn set_ack_fault(&mut self, f: FaultSchedule) {
        self.ack_fault = Some(f);
        self.replay.get_or_insert_with(ReplayCache::default);
    }

    /// Whether a fetch exhausted its watchdog retries. A poisoned engine
    /// keeps decoding but can no longer guarantee forward progress; the
    /// driver should retire it.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.tenant.poisoned
    }

    /// Outstanding memory fetches (no response yet).
    #[must_use]
    pub fn inflight_fetches(&self) -> usize {
        self.tenant.inflight.len()
    }

    /// Produce operations buffered across all queues.
    #[must_use]
    pub fn pending_produces(&self) -> usize {
        self.tenant.pending_produces()
    }

    /// Consume operations buffered across all queues.
    #[must_use]
    pub fn pending_consumes(&self) -> usize {
        self.tenant.pending_consumes()
    }

    /// Current occupancy of every hardware queue.
    #[must_use]
    pub fn queue_occupancies(&self) -> Vec<usize> {
        self.tenant.queue_occupancies()
    }

    /// Resets all engine state (the MMIO `RESET` / driver `INIT` path).
    ///
    /// The MMU root, statistics and transaction-ID counter survive:
    /// responses for dropped transactions may still be crossing the NoC
    /// and must never alias new ones. The response-replay cache and the
    /// fault-plane hooks survive for the same reason — a core retry of a
    /// pre-reset transaction must stay idempotent.
    pub fn reset(&mut self) {
        let root = self.tenant.page_table;
        self.tenant = TenantState::new(&self.cfg);
        self.tenant.page_table = root;
        if let Some(cache) = &mut self.replay {
            // In-progress entries guard operations the reset just dropped;
            // keeping them would make a core's retry of such an operation
            // a "duplicate" forever. Completed entries stay for replay.
            cache.seen.retain(|_, v| v.is_some());
        }
    }

    /// Captures the tenant-visible architectural state for a driver-level
    /// context switch. The engine itself is unchanged; pair with
    /// [`Engine::restore_context`] (for the incoming tenant) or
    /// [`Engine::reset`] (for a fresh one) to complete the switch.
    #[must_use]
    pub fn save_context(&self) -> EngineContext {
        EngineContext(self.tenant.clone())
    }

    /// Installs a previously saved tenant context, replacing the current
    /// architectural state bit for bit. Physical-engine state (counters,
    /// transaction-ID allocator, replay cache, watchdog/fault hooks,
    /// tracer) is untouched — see [`EngineContext`].
    ///
    /// # Panics
    ///
    /// Panics if the context was captured from an engine with a different
    /// queue count (contexts are not portable across RTL configurations).
    pub fn restore_context(&mut self, ctx: EngineContext) {
        assert_eq!(
            ctx.0.queues.count(),
            self.cfg.queues,
            "engine context restored onto an incompatible configuration"
        );
        self.tenant = ctx.0;
    }

    /// Drops every entry of the MMIO replay (dedup) cache, if the fault
    /// plane installed one.
    ///
    /// The cache makes in-run core-side retries idempotent; its keys are
    /// `(core tile, L1 transaction id)`, and a freshly (re)loaded core
    /// restarts its transaction ids from zero. The serving driver
    /// therefore flushes the cache at batch boundaries — quiescent points
    /// with no outstanding transactions, so no retry can ever need a
    /// dropped entry, while a stale entry would wrongly replay a previous
    /// request's response to a new core with a recycled id.
    pub fn flush_replay_cache(&mut self) {
        if let Some(cache) = &mut self.replay {
            *cache = ReplayCache::default();
        }
    }

    /// Engine statistics.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// TLB miss count (for `STAT_TLB_MISSES`).
    #[must_use]
    pub fn tlb_misses(&self) -> u64 {
        self.tenant.tlb.misses()
    }

    /// Direct read access to a queue (tests, occupancy sampling).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn queue(&self, q: u8) -> &crate::queue::FifoQueue {
        self.tenant.queues.queue(q)
    }

    /// Whether the engine holds no in-flight work at all.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.tenant.is_quiescent()
    }

    /// Accepts an MMIO request from the NoC (a core's load or store to this
    /// instance's page).
    pub fn accept(&mut self, now: Cycle, req: MemReq) {
        self.tenant.incoming.send(now, req);
    }

    /// Delivers a response to one of the engine's own memory fetches.
    ///
    /// Responses for unknown transactions — possible after a `RESET`
    /// dropped the in-flight state while replies were still crossing the
    /// NoC — are counted and discarded, as the RTL's decoder does.
    pub fn on_mem_resp(&mut self, now: Cycle, resp: MemResp, mem: &PhysMem) {
        let Some(f) = self.tenant.inflight.remove(&resp.id) else {
            self.stats.stale_responses.inc();
            return;
        };
        self.tracer.emit(now, || TraceEvent::EngineFetchFill {
            engine: self.trace_id,
            latency: now.since(f.issued),
        });
        match f.purpose {
            FetchPurpose::QueueFill { q, slot, .. } => {
                let _ = mem; // data travels in the response
                self.tenant.queues.queue_mut(q).fill(slot, resp.data);
            }
            FetchPurpose::LimaChunk { seq } => {
                if let Some(active) = &mut self.tenant.lima {
                    if let Some(c) = active.chunks.iter_mut().find(|c| c.seq == seq) {
                        c.ready = true;
                    }
                }
                // A reset may have dropped the active command; stale chunk
                // responses are ignored.
            }
        }
    }

    /// Pops the engine's next outbound memory request (`reply_to` is filled
    /// in by the host tile).
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.tenant.out_mem.pop_front()
    }

    /// Pops a response (ack or data) ready for a core.
    pub fn pop_response(&mut self, now: Cycle) -> Option<OutboundResp> {
        self.tenant.out_resp.recv(now)
    }

    fn fresh_txid(&mut self) -> u64 {
        let id = self.next_txid;
        self.next_txid += 1;
        id
    }

    fn respond(&mut self, now: Cycle, dst: Coord, id: u64, data: u64) {
        // Record the completed response for replay: a core watchdog may
        // re-send the request if this response is lost on the NoC.
        if let Some(cache) = &mut self.replay {
            cache.record((dst, id), data);
        }
        if let Some(f) = &mut self.ack_fault {
            if f.strike() {
                self.stats.acks_dropped.inc();
                self.tracer.emit(now, || TraceEvent::FaultInjected {
                    site: FaultSite::MmioAckDrop,
                });
                return;
            }
        }
        self.tenant.out_resp.send(
            now,
            OutboundResp {
                dst,
                resp: MemResp {
                    id,
                    data,
                    served_by: ServedBy::Device,
                },
                flits: MemResp::flits(false),
            },
        );
    }

    /// Engine-side translation. Returns the physical address, or `None`
    /// while the walker is busy or a fault is pending (the op retries).
    fn translate(&mut self, now: Cycle, mem: &PhysMem, va: VAddr) -> Option<PAddr> {
        if self.tenant.fault.is_some() {
            return None; // MMU stalled until the driver resolves the fault
        }
        if now < self.tenant.walker_free_at {
            // Walker busy: serve TLB hits without perturbing the hit/miss
            // counters (retries behind the walker are not new misses).
            return self
                .tenant
                .tlb
                .probe(va.page())
                .map(|e| e.frame.offset(va.page_offset()));
        }
        if let Some(e) = self.tenant.tlb.lookup(va.page()) {
            return Some(e.frame.offset(va.page_offset()));
        }
        let pt = self
            .tenant
            .page_table
            .expect("engine used before the driver programmed its MMU");
        self.tenant.walker_free_at = now.plus(walk_latency(self.cfg.ptw_read_latency));
        match pt.translate_checked(mem, va, false) {
            Ok(t) => {
                let frame = PAddr(t.paddr.0 & !(maple_mem::PAGE_SIZE - 1));
                self.tenant.tlb.insert(va.page(), frame, t.flags);
                // The result is architecturally available once the walk
                // completes; the op retries and hits the TLB then.
                None
            }
            Err(fault) => {
                self.stats.faults.inc();
                self.tenant.fault = Some(EngineFault { vaddr: va, fault });
                None
            }
        }
    }

    /// Advances the engine one cycle.
    pub fn tick(&mut self, now: Cycle, mem: &PhysMem) {
        self.watchdog_stage(now);
        self.dispatch_incoming(now);
        self.produce_stage(now, mem);
        self.prefetch_stage(now, mem);
        self.lima_stage(now, mem);
        self.consume_stage(now);
        debug_assert!(
            self.tenant.masks_match(),
            "a pending mask disagrees with its queues' buffered heads"
        );
    }

    fn dispatch_incoming(&mut self, now: Cycle) {
        while let Some(req) = self.tenant.incoming.recv(now) {
            // Dedup against retried requests: a core watchdog re-sends an
            // MMIO operation (same transaction ID) when its response is
            // lost. Completed operations replay the recorded response;
            // still-in-flight ones drop the duplicate. MMIO operations are
            // not idempotent (a retried CONSUME must not pop twice), so
            // this cache is what makes core-side retry safe.
            if let Some(cache) = &mut self.replay {
                let key = (req.reply_to, req.id);
                match cache.seen.get(&key).copied() {
                    Some(Some(data)) => {
                        self.stats.replayed_responses.inc();
                        self.respond(now, key.0, key.1, data);
                        continue;
                    }
                    Some(None) => {
                        self.stats.duplicate_requests.inc();
                        continue;
                    }
                    None => {
                        cache.seen.insert(key, None);
                    }
                }
            }
            let offset = req.addr.page_offset();
            match req.kind {
                MemReqKind::Write { data, ack, .. } => {
                    debug_assert!(ack, "MMIO stores are synchronous");
                    let Some((op, q)) = decode_store(offset) else {
                        self.respond(now, req.reply_to, req.id, u64::MAX);
                        continue;
                    };
                    self.handle_store(now, req.reply_to, req.id, op, q, data);
                }
                MemReqKind::ReadWord { size } => {
                    let Some((op, q)) = decode_load(offset) else {
                        self.respond(now, req.reply_to, req.id, u64::MAX);
                        continue;
                    };
                    self.handle_load(now, req.reply_to, req.id, op, q, size);
                }
                other => {
                    debug_assert!(false, "unexpected MMIO request kind {other:?}");
                }
            }
        }
    }

    fn handle_store(
        &mut self,
        now: Cycle,
        dst: Coord,
        id: u64,
        op: StoreOp,
        q: u8,
        data: u64,
    ) {
        if usize::from(q) >= self.cfg.queues {
            // Decoded queue index beyond the configured range: reject with
            // an error response instead of indexing out of bounds.
            self.stats.bad_requests.inc();
            self.respond(now, dst, id, u64::MAX);
            return;
        }
        match op {
            StoreOp::Produce => {
                self.tenant
                    .push_produce(q, ProducePayload::Data(data), dst, id);
            }
            StoreOp::ProducePtr | StoreOp::ProducePtrLlc => {
                let payload = ProducePayload::Ptr {
                    va: VAddr(data),
                    coherent: op == StoreOp::ProducePtrLlc,
                };
                self.tenant.push_produce(q, payload, dst, id);
            }
            StoreOp::Prefetch => {
                self.tenant.prefetch_pending.push_back(PendingProduce {
                    payload: ProducePayload::Ptr {
                        va: VAddr(data),
                        coherent: true,
                    },
                    ack_dst: dst,
                    ack_id: id,
                });
            }
            StoreOp::ConfigQueue => {
                let (entries, entry_bytes) = decode_config_queue(data);
                let ok = self
                    .tenant
                    .queues
                    .reconfigure(q, entries as usize, entry_bytes)
                    .is_ok();
                self.respond(now, dst, id, u64::from(ok));
            }
            StoreOp::LimaABase => {
                self.tenant.lima_regs.0 = VAddr(data);
                self.respond(now, dst, id, 0);
            }
            StoreOp::LimaBBase => {
                self.tenant.lima_regs.1 = VAddr(data);
                self.respond(now, dst, id, 0);
            }
            StoreOp::LimaRange => {
                let (lo, hi) = decode_lima_range(data);
                self.tenant.lima_regs.2 = lo;
                self.tenant.lima_regs.3 = hi;
                self.respond(now, dst, id, 0);
            }
            StoreOp::LimaGo => {
                let (speculative, b_elem, a_elem) = decode_lima_go(data);
                if !matches!(a_elem, 4 | 8) || !matches!(b_elem, 4 | 8) {
                    self.respond(now, dst, id, 0); // malformed: rejected
                    return;
                }
                let cmd = LimaCmd {
                    a_base: self.tenant.lima_regs.0,
                    b_base: self.tenant.lima_regs.1,
                    lo: self.tenant.lima_regs.2,
                    hi: self.tenant.lima_regs.3,
                    speculative,
                    queue: q,
                    a_elem,
                    b_elem,
                };
                if self.tenant.lima_cmds.len() < self.cfg.lima_cmd_depth {
                    self.tenant.lima_cmds.push_back(cmd);
                    self.respond(now, dst, id, 1);
                } else {
                    // Command queue full: buffer the launch and withhold
                    // the store ack (same no-overflow backpressure as the
                    // Produce pipeline).
                    self.tenant.lima_go_pending.push_back((dst, id, cmd));
                }
            }
            StoreOp::SetPtRoot => {
                self.tenant.page_table = Some(PageTable::from_root(PAddr(data)));
                self.respond(now, dst, id, 0);
            }
            StoreOp::TlbShootdown => {
                self.tenant.tlb.shootdown(VAddr(data).page());
                self.respond(now, dst, id, 0);
            }
            StoreOp::Reset => {
                self.reset();
                self.respond(now, dst, id, 0);
            }
            StoreOp::Close => {
                self.tenant.open_owner[usize::from(q)] = None;
                self.respond(now, dst, id, 0);
            }
            StoreOp::FaultResume => {
                self.tenant.fault = None;
                self.respond(now, dst, id, 0);
            }
            StoreOp::ProduceAmoAdd | StoreOp::ProduceAmoMin => {
                let kind = if op == StoreOp::ProduceAmoAdd {
                    maple_mem::phys::AmoKind::Add
                } else {
                    maple_mem::phys::AmoKind::MinU
                };
                let payload = ProducePayload::AmoPtr {
                    va: VAddr(data),
                    kind,
                };
                self.tenant.push_produce(q, payload, dst, id);
            }
            StoreOp::SetAmoOperand => {
                self.tenant.amo_operand[usize::from(q)] = data;
                self.respond(now, dst, id, 0);
            }
        }
    }

    fn handle_load(&mut self, now: Cycle, dst: Coord, id: u64, op: LoadOp, q: u8, size: u8) {
        if usize::from(q) >= self.cfg.queues {
            self.stats.bad_requests.inc();
            self.respond(now, dst, id, u64::MAX);
            return;
        }
        match op {
            LoadOp::Consume => {
                self.tenant
                    .push_consume(q, PendingConsume { dst, id, size });
            }
            LoadOp::Open => {
                let owner = &mut self.tenant.open_owner[usize::from(q)];
                let granted = match owner {
                    None => {
                        *owner = Some(dst);
                        true
                    }
                    Some(o) => *o == dst,
                };
                self.respond(now, dst, id, u64::from(granted));
            }
            LoadOp::StatProduced => {
                let v = self.tenant.queues.queue(q).produced.get();
                self.respond(now, dst, id, v);
            }
            LoadOp::StatConsumed => {
                let v = self.tenant.queues.queue(q).consumed.get();
                self.respond(now, dst, id, v);
            }
            LoadOp::StatOccupancy => {
                let v = self.tenant.queues.queue(q).occupancy() as u64;
                self.respond(now, dst, id, v);
            }
            LoadOp::StatMemFetches => {
                self.respond(now, dst, id, self.stats.mem_fetches.get());
            }
            LoadOp::StatTlbMisses => {
                self.respond(now, dst, id, self.tenant.tlb.misses());
            }
            LoadOp::FaultVa => {
                let va = self.tenant.fault.map_or(0, |f| f.vaddr.0);
                self.respond(now, dst, id, va);
            }
        }
    }

    /// Issues a non-coherent (or coherent) word fetch feeding queue `q`.
    fn issue_queue_fetch(&mut self, now: Cycle, q: u8, slot: Slot, paddr: PAddr, coherent: bool) {
        let size = self.tenant.queues.queue(q).entry_bytes();
        let id = self.fresh_txid();
        let req = MemReq {
            id,
            addr: paddr,
            kind: if coherent {
                MemReqKind::ReadWord { size }
            } else {
                MemReqKind::ReadWordDram { size }
            },
            reply_to: Coord::default(),
        };
        self.track_fetch(now, FetchPurpose::QueueFill { q, slot }, req);
    }

    /// Emits a queue-occupancy sample after a push or slot reservation.
    fn trace_queue_push(&self, now: Cycle, q: u8) {
        self.tracer.emit(now, || TraceEvent::QueuePush {
            engine: self.trace_id,
            queue: usize::from(q),
            occupancy: self.tenant.queues.queue(q).occupancy(),
        });
    }

    /// Records an outstanding fetch (for the watchdog) and issues it.
    fn track_fetch(&mut self, now: Cycle, purpose: FetchPurpose, req: MemReq) {
        self.tracer.emit(now, || TraceEvent::EngineFetchIssue {
            engine: self.trace_id,
            addr: req.addr.0,
        });
        self.tenant.inflight.insert(
            req.id,
            InflightFetch {
                purpose,
                req,
                issued: now,
                retries: 0,
            },
        );
        self.stats.mem_fetches.inc();
        self.tenant.out_mem.push_back(req);
    }

    /// Re-issues overdue fetches with exponential backoff; a fetch that
    /// exhausts its retries (or cannot be retried safely, e.g. an atomic
    /// that would double-apply) poisons the engine.
    fn watchdog_stage(&mut self, now: Cycle) {
        let Some(w) = self.watchdog else {
            return;
        };
        if self.tenant.inflight.is_empty() {
            return;
        }
        let mut overdue: Vec<u64> = self
            .tenant
            .inflight
            .iter()
            .filter(|(_, f)| now >= w.deadline(f.issued, f.retries))
            .map(|(&id, _)| id)
            .collect();
        if overdue.is_empty() {
            return;
        }
        // HashMap iteration order is nondeterministic; sorted ids keep
        // seed replay exact.
        overdue.sort_unstable();
        for id in overdue {
            self.stats.fetch_timeouts.inc();
            let Some(f) = self.tenant.inflight.get_mut(&id) else {
                continue;
            };
            let retryable = !matches!(f.req.kind, MemReqKind::Amo { .. });
            if !retryable || f.retries >= w.max_retries {
                self.tenant.inflight.remove(&id);
                self.stats.poisoned_fetches.inc();
                self.tenant.poisoned = true;
            } else {
                f.retries += 1;
                f.issued = now;
                let req = f.req;
                self.stats.fetch_retries.inc();
                self.tracer.emit(now, || TraceEvent::FaultRecovered {
                    site: FaultSite::FetchRetry,
                });
                self.tenant.out_mem.push_back(req);
            }
        }
    }

    fn produce_stage(&mut self, now: Cycle, mem: &PhysMem) {
        for qi in queues_in(self.tenant.produce_mask) {
            let head = self.tenant.produce_pending[qi][0];
            let q = qi as u8;
            if self.tenant.queues.queue(q).is_full() {
                self.stats.produce_stalls.inc();
                continue; // buffered; only this queue stalls
            }
            match head.payload {
                ProducePayload::Data(v) => {
                    self.tenant
                        .queues
                        .queue_mut(q)
                        .push(v)
                        .expect("checked not full");
                    self.trace_queue_push(now, q);
                    self.tenant.pop_produce(qi);
                    self.respond(now, head.ack_dst, head.ack_id, 0);
                }
                ProducePayload::Ptr { va, coherent } => {
                    let Some(paddr) = self.translate(now, mem, va) else {
                        continue; // walker busy or fault pending: retry
                    };
                    let slot = self
                        .tenant
                        .queues
                        .queue_mut(q)
                        .reserve()
                        .expect("checked not full");
                    self.trace_queue_push(now, q);
                    self.issue_queue_fetch(now, q, slot, paddr, coherent);
                    self.tenant.pop_produce(qi);
                    // Store acked as soon as the produce is accepted
                    // (paper step 4): the Access thread moves on while the
                    // fetch is in flight.
                    self.respond(now, head.ack_dst, head.ack_id, 0);
                }
                ProducePayload::AmoPtr { va, kind } => {
                    let Some(paddr) = self.translate(now, mem, va) else {
                        continue;
                    };
                    let slot = self
                        .tenant
                        .queues
                        .queue_mut(q)
                        .reserve()
                        .expect("checked not full");
                    self.trace_queue_push(now, q);
                    let size = self.tenant.queues.queue(q).entry_bytes();
                    let txid = self.fresh_txid();
                    let req = MemReq {
                        id: txid,
                        addr: paddr,
                        kind: MemReqKind::Amo {
                            kind,
                            size,
                            operand: self.tenant.amo_operand[qi],
                        },
                        reply_to: Coord::default(),
                    };
                    self.track_fetch(now, FetchPurpose::QueueFill { q, slot }, req);
                    self.tenant.pop_produce(qi);
                    self.respond(now, head.ack_dst, head.ack_id, 0);
                }
            }
        }
    }

    fn prefetch_stage(&mut self, now: Cycle, mem: &PhysMem) {
        let Some(head) = self.tenant.prefetch_pending.front().copied() else {
            return;
        };
        let ProducePayload::Ptr { va, .. } = head.payload else {
            unreachable!("prefetch ops always carry pointers");
        };
        // Speculative: a fault drops the prefetch instead of interrupting.
        if self.tenant.fault.is_some() {
            return;
        }
        // Mirror `translate`: while the walker is busy, serve TLB hits
        // through the non-mutating probe so retries queued behind the
        // walker do not count as fresh misses every cycle.
        let hit = if now < self.tenant.walker_free_at {
            self.tenant.tlb.probe(va.page())
        } else {
            self.tenant.tlb.lookup(va.page())
        };
        if let Some(e) = hit {
            let paddr = e.frame.offset(va.page_offset());
            self.stats.llc_prefetches.inc();
            let id = self.fresh_txid();
            self.tenant.out_mem.push_back(MemReq {
                id,
                addr: paddr,
                kind: MemReqKind::PrefetchLine,
                reply_to: Coord::default(),
            });
            self.tenant.prefetch_pending.pop_front();
            self.respond(now, head.ack_dst, head.ack_id, 0);
            return;
        }
        if now < self.tenant.walker_free_at {
            return;
        }
        let pt = self.tenant.page_table.expect("engine MMU unprogrammed");
        self.tenant.walker_free_at = now.plus(walk_latency(self.cfg.ptw_read_latency));
        match pt.translate_checked(mem, va, false) {
            Ok(t) => {
                let frame = PAddr(t.paddr.0 & !(maple_mem::PAGE_SIZE - 1));
                self.tenant.tlb.insert(va.page(), frame, t.flags);
            }
            Err(_) => {
                // Speculative prefetch to an unmapped page: drop silently.
                self.tenant.prefetch_pending.pop_front();
                self.respond(now, head.ack_dst, head.ack_id, 0);
            }
        }
    }

    fn lima_stage(&mut self, now: Cycle, mem: &PhysMem) {
        // Drain buffered launches as command-queue slots free up, acking
        // the stalled stores.
        while self.tenant.lima_cmds.len() < self.cfg.lima_cmd_depth {
            let Some((dst, id, cmd)) = self.tenant.lima_go_pending.pop_front() else {
                break;
            };
            self.tenant.lima_cmds.push_back(cmd);
            self.respond(now, dst, id, 1);
        }
        if self.tenant.lima.is_none() {
            if let Some(cmd) = self.tenant.lima_cmds.pop_front() {
                self.tenant.lima = Some(LimaActive {
                    next_fetch: cmd.lo,
                    chunks: VecDeque::new(),
                    head_pos: 0,
                    next_chunk_seq: 0,
                    cmd,
                });
            }
        }
        let Some(mut active) = self.tenant.lima.take() else {
            return;
        };

        // Fetch stage: stream B in 64-byte chunks.
        while active.next_fetch < active.cmd.hi
            && active.chunks.len() < self.cfg.lima_chunks_inflight
        {
            let elem = u64::from(active.cmd.b_elem);
            let va = active.cmd.b_base.offset(u64::from(active.next_fetch) * elem);
            let Some(paddr) = self.translate(now, mem, va) else {
                break; // walker busy or fault: resume later
            };
            // Elements until the end of this 64-byte line (and this page).
            let line_room = (LINE_SIZE - paddr.line_offset()) / elem;
            let count = u64::from(active.cmd.hi - active.next_fetch)
                .min(line_room)
                .max(1) as u32;
            let seq = active.next_chunk_seq;
            active.next_chunk_seq += 1;
            let id = self.fresh_txid();
            let req = MemReq {
                id,
                addr: paddr.line_base(),
                kind: MemReqKind::ReadLineDram,
                reply_to: Coord::default(),
            };
            self.track_fetch(now, FetchPurpose::LimaChunk { seq }, req);
            active.chunks.push_back(LimaChunkRec {
                seq,
                count,
                paddr,
                ready: false,
            });
            active.next_fetch += count;
        }

        // Process stage: walk ready head chunks, feeding indirect fetches.
        let mut budget = self.cfg.lima_rate;
        while budget > 0 {
            let Some(head) = active.chunks.front().copied() else {
                break;
            };
            if !head.ready {
                break;
            }
            if active.head_pos >= head.count {
                active.chunks.pop_front();
                active.head_pos = 0;
                continue;
            }
            let b_elem = u64::from(head_elem(&active));
            let b_paddr = head.paddr.offset(u64::from(active.head_pos) * b_elem);
            let b_value = mem.read_uint(b_paddr, active.cmd.b_elem);
            let target = active
                .cmd
                .a_base
                .offset(b_value.wrapping_mul(u64::from(active.cmd.a_elem)));
            if active.cmd.speculative {
                // Speculative: prefetch A[b] into the LLC.
                let Some(paddr) = self.translate(now, mem, target) else {
                    if self.tenant.fault.is_some() {
                        // LIMA prefetches are speculative: skip the element.
                        self.tenant.fault = None;
                        active.head_pos += 1;
                        continue;
                    }
                    break;
                };
                self.stats.llc_prefetches.inc();
                let id = self.fresh_txid();
                self.tenant.out_mem.push_back(MemReq {
                    id,
                    addr: paddr,
                    kind: MemReqKind::PrefetchLine,
                    reply_to: Coord::default(),
                });
                active.head_pos += 1;
            } else {
                // Non-speculative: pointer-produce into the target queue.
                let q = active.cmd.queue;
                if self.tenant.queues.queue(q).is_full() {
                    self.stats.produce_stalls.inc();
                    break;
                }
                let Some(paddr) = self.translate(now, mem, target) else {
                    break; // fault raised or walker busy: resume later
                };
                let slot = self
                    .tenant
                    .queues
                    .queue_mut(q)
                    .reserve()
                    .expect("checked not full");
                self.trace_queue_push(now, q);
                self.issue_queue_fetch(now, q, slot, paddr, false);
                active.head_pos += 1;
            }
            budget -= 1;
        }

        // Completed?
        if active.next_fetch >= active.cmd.hi && active.chunks.is_empty() {
            self.stats.lima_completed.inc();
        } else {
            self.tenant.lima = Some(active);
        }
    }

    fn consume_stage(&mut self, now: Cycle) {
        for qi in queues_in(self.tenant.consume_mask) {
            let head = self.tenant.consume_pending[qi][0];
            let q = qi as u8;
            let entry_bytes = self.tenant.queues.queue(q).entry_bytes();
            let n = (usize::from(head.size) / usize::from(entry_bytes)).max(1);
            if let Some(data) = self.tenant.queues.queue_mut(q).pop_packed(n) {
                self.tracer.emit(now, || TraceEvent::QueuePop {
                    engine: self.trace_id,
                    queue: qi,
                    occupancy: self.tenant.queues.queue(q).occupancy(),
                });
                self.tenant.pop_consume(qi);
                self.respond(now, head.dst, head.id, data);
            } else {
                self.stats.consume_stalls.inc();
                // Buffered (no polling) until data arrives.
            }
        }
    }

    /// Earliest cycle at or after `now` at which a translation attempt for
    /// `va` could do something observable: immediately on a TLB hit or when
    /// the walker is free (a walk start mutates the TLB and the walker);
    /// never while a fault blocks the MMU (the unblocking event — driver
    /// fault service or an MMIO `FAULT_RESUME` — is visible elsewhere).
    fn translate_event(&self, now: Cycle, va: VAddr) -> Option<Cycle> {
        if self.tenant.fault.is_some() {
            return None;
        }
        if now < self.tenant.walker_free_at {
            if self.tenant.tlb.probe(va.page()).is_some() {
                Some(now) // busy-walker probe hit: the op proceeds this cycle
            } else {
                Some(self.tenant.walker_free_at) // retries until then are pure no-ops
            }
        } else {
            Some(now)
        }
    }

    /// Earliest cycle at or after `now` at which ticking the engine could
    /// have an observable effect, for the event-horizon scheduler.
    ///
    /// Mirrors the pipeline stages of [`Engine::tick`] clause by clause.
    /// The contract is *conservatively early, never late*: a reported cycle
    /// where the dense loop would in fact do nothing only costs a wasted
    /// tick, while a missed earlier mutation would diverge from the dense
    /// reference. Heads that stall with per-cycle counter increments
    /// (produce against a full queue, consume against an empty one) are
    /// deliberately **not** events — [`Engine::skip`] accounts them in bulk.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = maple_sim::Horizon::IDLE;
        // Outbound traffic the host tile must drain.
        if !self.tenant.out_mem.is_empty() {
            h.at(now);
        }
        h.observe(self.tenant.out_resp.next_deadline().map(|d| d.max(now)));
        // Incoming MMIO operations finish decode at their deadline.
        h.observe(self.tenant.incoming.next_deadline().map(|d| d.max(now)));
        // Watchdog: the earliest fetch deadline (re-issue or poison).
        if let Some(w) = self.watchdog {
            for f in self.tenant.inflight.values() {
                h.at(w.deadline(f.issued, f.retries).max(now));
            }
        }
        // Produce pipeline: a head behind a free slot acts now (immediate
        // data) or when its translation can act. Full queues are stalls.
        for qi in queues_in(self.tenant.produce_mask) {
            let head = &self.tenant.produce_pending[qi][0];
            if self.tenant.queues.queue(qi as u8).is_full() {
                continue; // per-cycle produce_stalls: bulk-counted by skip()
            }
            match head.payload {
                ProducePayload::Data(_) => h.at(now),
                ProducePayload::Ptr { va, .. } | ProducePayload::AmoPtr { va, .. } => {
                    h.observe(self.translate_event(now, va));
                }
            }
        }
        // Prefetch pipeline head (fault-blocked heads sit silently).
        if let Some(head) = self.tenant.prefetch_pending.front() {
            if let ProducePayload::Ptr { va, .. } = head.payload {
                h.observe(self.translate_event(now, va));
            }
        }
        // LIMA: buffered launches drain when the command queue has room;
        // an idle unit activates a queued command the next tick.
        if !self.tenant.lima_go_pending.is_empty()
            && self.tenant.lima_cmds.len() < self.cfg.lima_cmd_depth
        {
            h.at(now);
        }
        if self.tenant.lima.is_none() && !self.tenant.lima_cmds.is_empty() {
            h.at(now);
        }
        if let Some(active) = &self.tenant.lima {
            // Fetch stage: room for another B chunk.
            if active.next_fetch < active.cmd.hi
                && active.chunks.len() < self.cfg.lima_chunks_inflight
            {
                let elem = u64::from(active.cmd.b_elem);
                let va = active.cmd.b_base.offset(u64::from(active.next_fetch) * elem);
                h.observe(self.translate_event(now, va));
            }
            // Process stage: a ready head chunk. The indirect target address
            // lives in memory (unavailable here), so report `now`
            // conservatively — except for the two cases the dense loop
            // provably sits idle on: a non-speculative produce against a
            // full queue (bulk-counted by skip()) or behind a pending fault.
            if let Some(chunk) = active.chunks.front() {
                if chunk.ready {
                    if active.head_pos >= chunk.count {
                        h.at(now); // the exhausted chunk retires this cycle
                    } else if active.cmd.speculative {
                        h.at(now); // prefetches even consume pending faults
                    } else if !self.tenant.queues.queue(active.cmd.queue).is_full()
                        && self.tenant.fault.is_none()
                    {
                        h.at(now);
                    }
                }
            }
        }
        // Consume pipeline: a head with enough packed data pops this cycle
        // (empty-queue heads are stalls, bulk-counted by skip()).
        for qi in queues_in(self.tenant.consume_mask) {
            let head = &self.tenant.consume_pending[qi][0];
            let q = self.tenant.queues.queue(qi as u8);
            let n = (usize::from(head.size) / usize::from(q.entry_bytes())).max(1);
            if q.ready_at_head() >= n {
                h.at(now);
            }
        }
        h.earliest()
    }

    /// Applies the per-cycle stall accounting the dense loop would have
    /// performed over `cycles` skipped quiescent cycles.
    ///
    /// Must mirror exactly the counter increments [`Engine::tick`] makes on
    /// a cycle where no head can progress: one `produce_stalls` per queue
    /// whose produce head faces a full queue, one more if LIMA's
    /// non-speculative produce head is blocked on a full queue, and one
    /// `consume_stalls` per queue whose consume head lacks packed data.
    pub fn skip(&mut self, cycles: u64) {
        for qi in queues_in(self.tenant.produce_mask) {
            if self.tenant.queues.queue(qi as u8).is_full() {
                self.stats.produce_stalls.add(cycles);
            }
        }
        if let Some(active) = &self.tenant.lima {
            if let Some(chunk) = active.chunks.front() {
                if chunk.ready
                    && active.head_pos < chunk.count
                    && !active.cmd.speculative
                    && self.tenant.queues.queue(active.cmd.queue).is_full()
                {
                    self.stats.produce_stalls.add(cycles);
                }
            }
        }
        for qi in queues_in(self.tenant.consume_mask) {
            let head = &self.tenant.consume_pending[qi][0];
            let q = self.tenant.queues.queue(qi as u8);
            let n = (usize::from(head.size) / usize::from(q.entry_bytes())).max(1);
            if q.ready_at_head() < n {
                self.stats.consume_stalls.add(cycles);
            }
        }
    }
}

fn head_elem(active: &LimaActive) -> u8 {
    active.cmd.b_elem
}
