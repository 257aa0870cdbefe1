//! The in-order, single-issue timing core.
//!
//! Models the evaluation platforms' slim cores (RISC-V Ariane on FPGA,
//! instruction window of 1 in simulation — Tables 2 and 3): one instruction
//! per cycle peak, **blocking loads** (the pipeline stalls until the L1
//! responds — this is the stall MAPLE exists to hide), a per-core 16-entry
//! TLB backed by a hardware page-table walker, and an owned write-through
//! L1. MMIO pages (MAPLE instances) are reached through ordinary loads and
//! stores, routed by the page flags the TLB returns.
//!
//! The core executes [`maple_isa::Program`]s over real data in
//! [`maple_mem::PhysMem`], so kernels compute actual results that tests
//! compare against host references.
//!
//! # The tick contract
//!
//! [`Core::tick`] advances the core by exactly one cycle and is the only
//! way core-private state changes. Each tick:
//!
//! 1. retires every memory response the L1 staged for this cycle (DeSC
//!    fills, MMIO store acks, the blocking response the pipeline waits
//!    on);
//! 2. returns early if the core is halted, faulted, blocked on memory,
//!    or simply not yet due (`now < next_ready`) — accruing the matching
//!    stall counter;
//! 3. otherwise **interprets** the instruction at `pc`: a single
//!    instruction executes (counted in [`CpuStats::interpreted_ticks`]);
//!    memory instructions translate through the TLB and issue into the
//!    owned L1, control flow resolves the next `pc`, and dynamic-latency
//!    outcomes (cache misses, queue backpressure, page faults) park the
//!    core in the matching [`CoreState`].
//!
//! The interpreter is the core's one dispatch path (DESIGN.md §12 records
//! why the compiled alternative was retired).
//!
//! # Observability
//!
//! Every stall is attributed: the core classifies each blocked cycle at
//! stall end using the [`ServedBy`] level of
//! the response (L1 / L2 / DRAM / MAPLE consume) into
//! [`CpuStats::stall`], and — when a [`maple_trace::Tracer`] is attached
//! via [`Core::set_tracer`] — emits begin/end stall spans and MMIO
//! transaction events into the trace. Tracing is pure observation: a
//! traced run is cycle-identical to an untraced one.

#![deny(missing_docs)]

pub mod desc;

use maple_isa::{AtomicOp, Inst, LdClass, Operand, Program, Reg, NUM_REGS};
use maple_mem::l1::{CoreOp, CoreReq, L1Cache, L1Config, L1Reject};
use maple_mem::msg::{MemReq, MemResp, ServedBy};
use maple_mem::phys::{AmoKind, PhysMem, WriteStage};
use maple_sim::hash::FxHashMap;
use maple_sim::stats::Counter;
use maple_sim::Cycle;
use maple_trace::{StallBreakdown, StallCause, TraceEvent, Tracer, WaitKind};
use maple_vm::page_table::{PageFault, PageTable, Translation};
use maple_vm::tlb::Tlb;
use maple_vm::walker::walk_latency;
use maple_vm::{VAddr, VirtPage};

use crate::desc::{DescQueues, SlotTicket};

/// Core timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// L1 data cache configuration.
    pub l1: L1Config,
    /// TLB entries (paper: 16, fully associative).
    pub tlb_entries: usize,
    /// Latency of one page-table-walk level (one L2 read).
    pub ptw_read_latency: u64,
    /// Extra cycles charged for a taken branch (short in-order pipeline).
    pub taken_branch_penalty: u64,
    /// Outstanding terminal loads the DeSC Supply structure tracks.
    pub desc_outstanding: usize,
    /// Access latency of the DeSC coupled queues.
    pub desc_queue_latency: u64,
    /// Outstanding unacknowledged MMIO stores the store buffer tracks
    /// (produce operations are synchronous at the *instruction* level —
    /// they retire on the device ack — but the pipeline runs ahead until
    /// this many acks are pending, exactly like ordinary stores in a
    /// store buffer).
    pub mmio_store_outstanding: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            l1: L1Config::default(),
            tlb_entries: 16,
            ptw_read_latency: 30,
            taken_branch_penalty: 1,
            desc_outstanding: 16,
            desc_queue_latency: 2,
            mmio_store_outstanding: 8,
        }
    }
}

/// What the core is doing this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing (or ready to execute) instructions.
    Running,
    /// Blocked on a memory response.
    WaitingMem,
    /// Stopped at a `Halt`.
    Halted,
    /// Stopped on a page fault awaiting the OS.
    Faulted,
}

/// Details of a pending page fault, for the OS handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInfo {
    /// The faulting virtual address.
    pub vaddr: VAddr,
    /// Whether the access was a write.
    pub write: bool,
    /// The architectural fault.
    pub fault: PageFault,
}

/// Performance counters (Figures 10 and 11 derive from these plus the L1's
/// latency histogram).
#[derive(Debug, Clone, Default)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: Counter,
    /// Load instructions retired (cacheable + volatile + MMIO consume).
    pub loads: Counter,
    /// Store instructions retired (including MMIO produce).
    pub stores: Counter,
    /// Atomic instructions retired.
    pub atomics: Counter,
    /// Software prefetches issued.
    pub prefetches: Counter,
    /// Cycles spent blocked on memory.
    pub mem_stall_cycles: Counter,
    /// Cycles spent blocked on page-table walks.
    pub ptw_stall_cycles: Counter,
    /// Responses for transactions the core no longer tracks (duplicate
    /// deliveries after an uncore-level MMIO retry); discarded.
    pub stale_responses: Counter,
    /// Cycles spent parked in [`CoreState::Faulted`] awaiting the OS
    /// page-fault handler (also attributed to
    /// [`StallBreakdown::fault_recovery`]).
    pub fault_stall_cycles: Counter,
    /// Memory-stall cycles attributed by cause once each blocking access
    /// completed (the serving level rides back on the response).
    pub stall: StallBreakdown,
    /// Ticks dispatched through the interpreter (one instruction each;
    /// includes retried issues that made no progress, e.g. an L1 reject).
    pub interpreted_ticks: Counter,
    /// The cycle `Halt` retired, if it has.
    pub halted_at: Option<Cycle>,
}

#[derive(Debug, Clone, Copy)]
enum Waiting {
    /// A blocking response: write `rd` (if any) then continue.
    Resp { id: u64, rd: Option<Reg> },
}

/// The in-order core, owning its L1 and TLB.
#[derive(Debug)]
pub struct Core {
    /// Stable identifier (tile index) for debugging.
    pub id: usize,
    cfg: CpuConfig,
    program: Program,
    pc: usize,
    regs: [u64; NUM_REGS],
    state: CoreState,
    waiting: Option<Waiting>,
    fault: Option<FaultInfo>,
    next_ready: Cycle,
    tlb: Tlb,
    page_table: PageTable,
    l1: L1Cache,
    next_req_id: u64,
    /// DeSC terminal loads in flight: L1 transaction → queue slot.
    desc_inflight: FxHashMap<u64, SlotTicket>,
    /// Unacknowledged MMIO stores tracked by the store buffer:
    /// transaction → (issue cycle, physical address), kept for the MMIO
    /// trace events.
    mmio_inflight: FxHashMap<u64, (Cycle, u64)>,
    /// Page of the MMIO store the last tick retried against a store
    /// buffer full of unacked MMIO stores. While set, the core waits for
    /// an ack instead of reporting a retry every cycle; see
    /// [`Core::next_event`] and [`Core::skip`].
    mmio_wait: Option<VirtPage>,
    stats: CpuStats,
    tracer: Tracer,
    /// Issue cycle of the access the core is blocked on.
    stall_begin: Cycle,
    /// What kind of access the core is blocked on.
    stall_wait: WaitKind,
    /// Physical address of the blocking access (for MMIO trace events).
    stall_addr: u64,
    /// Set by the uncore when its watchdog re-issued the transaction the
    /// core is waiting on; the whole stall is then attributed to fault
    /// recovery.
    fault_retry: bool,
}

impl Core {
    /// Creates a core that will run `program` under `page_table`.
    #[must_use]
    pub fn new(id: usize, cfg: CpuConfig, program: Program, page_table: PageTable) -> Self {
        Core {
            id,
            program,
            pc: 0,
            regs: [0; NUM_REGS],
            state: CoreState::Running,
            waiting: None,
            fault: None,
            next_ready: Cycle::ZERO,
            tlb: Tlb::new(cfg.tlb_entries),
            page_table,
            l1: L1Cache::new(cfg.l1),
            next_req_id: 0,
            desc_inflight: FxHashMap::default(),
            mmio_inflight: FxHashMap::default(),
            mmio_wait: None,
            stats: CpuStats::default(),
            tracer: Tracer::disabled(),
            stall_begin: Cycle::ZERO,
            stall_wait: WaitKind::Mem,
            stall_addr: 0,
            fault_retry: false,
            cfg,
        }
    }

    /// Installs an observability tracer (stall and MMIO events). Tracing
    /// never changes timing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Tells the core that the uncore's MMIO watchdog re-issued the
    /// transaction it is blocked on; the stall, when it ends, is
    /// attributed to fault recovery.
    pub fn note_fault_retry(&mut self) {
        if self.waiting.is_some() {
            self.fault_retry = true;
        }
    }

    /// Sets an argument register before the program starts.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if r.0 != 0 {
            self.regs[usize::from(r.0)] = value;
        }
    }

    /// Reads a register (for tests and result extraction).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[usize::from(r.0)]
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Whether the core has halted.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.state == CoreState::Halted
    }

    /// The pending page fault, if the core is faulted.
    #[must_use]
    pub fn fault(&self) -> Option<FaultInfo> {
        self.fault
    }

    /// Resumes after the OS has serviced a fault; the faulting instruction
    /// re-executes after `handler_latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the core is not faulted.
    pub fn resume_from_fault(&mut self, now: Cycle, handler_latency: u64) {
        assert_eq!(self.state, CoreState::Faulted, "core is not faulted");
        self.fault = None;
        self.state = CoreState::Running;
        self.next_ready = now.plus(handler_latency);
    }

    /// Performance counters.
    #[must_use]
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// The owned L1's statistics (hit rates, load-latency histogram).
    #[must_use]
    pub fn l1_stats(&self) -> &maple_mem::l1::L1Stats {
        self.l1.stats()
    }

    /// Pops the next outbound memory request (for NoC injection).
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.l1.pop_outgoing()
    }

    /// Delivers a memory response that arrived over the NoC.
    pub fn on_mem_resp(&mut self, now: Cycle, resp: MemResp, mem: &PhysMem) {
        self.l1.on_mem_resp(now, resp, mem);
    }

    /// Flushes the TLB entry for one page (OS shootdown).
    pub fn tlb_shootdown(&mut self, vpn: VirtPage) {
        self.tlb.shootdown(vpn);
    }

    /// The core's TLB: its hit/miss counters and LRU state are part of
    /// what steppers must reproduce bit for bit.
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// MMIO stores issued but not yet acknowledged (hang diagnostics).
    #[must_use]
    pub fn mmio_unacked(&self) -> usize {
        self.mmio_inflight.len()
    }

    /// The core's state as a static label (hang diagnostics).
    #[must_use]
    pub fn state_label(&self) -> &'static str {
        match self.state {
            CoreState::Running => "running",
            CoreState::WaitingMem => "waiting-mem",
            CoreState::Halted => "halted",
            CoreState::Faulted => "faulted",
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    fn va(&self, base: Reg, offset: i64) -> VAddr {
        VAddr(self.regs[usize::from(base.0)].wrapping_add(offset as u64))
    }

    fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[usize::from(r.0)],
            Operand::Imm(v) => v as u64,
        }
    }

    fn write_reg(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[usize::from(r.0)] = v;
        }
    }

    /// Outcome of an instruction-side translation attempt.
    fn translate(&mut self, now: Cycle, va: VAddr, write: bool) -> Translate {
        if let Some(entry) = self.tlb.lookup(va.page()) {
            let ok = if write {
                entry.flags.write
            } else {
                entry.flags.read
            };
            if !ok {
                return Translate::Fault(PageFault::Protection(va));
            }
            return Translate::Ok(Translation {
                paddr: entry.frame.offset(va.page_offset()),
                flags: entry.flags,
            });
        }
        // TLB miss: the hardware walker performs WALK_LEVELS reads. The
        // functional walk happens now; the latency is charged and the
        // instruction re-issues (hitting the TLB next time).
        Translate::PtwStarted(now.plus(walk_latency(self.cfg.ptw_read_latency)), write, va)
    }

    fn finish_walk(&mut self, mem: &PhysMem, va: VAddr, write: bool) -> Option<PageFault> {
        match self.page_table.translate_checked(mem, va, write) {
            Ok(t) => {
                self.tlb
                    .insert(va.page(), t.paddr.line_base_page(), t.flags);
                None
            }
            Err(f) => Some(f),
        }
    }

    fn raise_fault(&mut self, va: VAddr, write: bool, fault: PageFault) {
        self.state = CoreState::Faulted;
        self.fault = Some(FaultInfo {
            vaddr: va,
            write,
            fault,
        });
    }

    /// Advances the core one cycle.
    ///
    /// Memory is read-only during the tick; plain stores are staged into
    /// `stage` and applied by the hub in core order at the end of the
    /// cycle (see [`WriteStage`]), so another agent sees a store one
    /// cycle after it was accepted.
    ///
    /// `desc` supplies the coupled queues when this core is half of a DeSC
    /// pair; MAPLE and software configurations pass `None`.
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &PhysMem,
        stage: &mut WriteStage,
        mut desc: Option<&mut DescQueues>,
    ) {
        self.mmio_wait = None;
        // 1. Retire arrived memory responses.
        while let Some(resp) = self.l1.pop_core_resp(now) {
            if let Some(ticket) = self.desc_inflight.remove(&resp.id) {
                let q = desc
                    .as_deref_mut()
                    .expect("DeSC load completed without queues");
                q.fill(ticket, resp.data);
                continue;
            }
            if let Some((issued, addr)) = self.mmio_inflight.remove(&resp.id) {
                // MMIO store ack drains from the store buffer.
                self.tracer.emit(now, || TraceEvent::MmioComplete {
                    core: self.id,
                    addr,
                    write: true,
                    latency: now.since(issued),
                });
                continue;
            }
            match self.waiting {
                Some(Waiting::Resp { id, rd }) if id == resp.id => {
                    if let Some(rd) = rd {
                        self.write_reg(rd, resp.data);
                    }
                    self.waiting = None;
                    self.state = CoreState::Running;
                    self.next_ready = now.plus(1);
                    self.end_stall(now, resp.served_by);
                }
                // A response for a transaction the core no longer waits
                // on: possible when an uncore watchdog re-sent an MMIO
                // request and both the replayed and the original response
                // eventually arrived. Count and discard.
                _ => {
                    self.stats.stale_responses.inc();
                }
            }
        }

        match self.state {
            CoreState::Halted => return,
            CoreState::Faulted => {
                self.stats.fault_stall_cycles.inc();
                self.stats.stall.add(StallCause::FaultRecovery, 1);
                return;
            }
            CoreState::WaitingMem => {
                self.stats.mem_stall_cycles.inc();
                return;
            }
            CoreState::Running => {}
        }
        if now < self.next_ready {
            return;
        }

        let Some(&inst) = self.program.fetch(self.pc) else {
            // Running off the end behaves like Halt.
            self.state = CoreState::Halted;
            self.stats.halted_at = Some(now);
            return;
        };

        self.stats.interpreted_ticks.inc();
        match inst {
            Inst::Li { rd, imm } => {
                self.write_reg(rd, imm);
                self.retire(now, 1);
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                let a = self.regs[usize::from(rs1.0)];
                let b = self.operand(rs2);
                self.write_reg(rd, op.apply(a, b));
                self.retire(now, op.latency());
            }
            Inst::Nop => self.retire(now, 1),
            Inst::Halt => {
                self.state = CoreState::Halted;
                self.stats.halted_at = Some(now);
                self.stats.instructions.inc();
            }
            Inst::Jump { target } => {
                self.pc = target;
                self.stats.instructions.inc();
                self.next_ready = now.plus(1 + self.cfg.taken_branch_penalty);
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = self.regs[usize::from(rs1.0)];
                let b = self.operand(rs2);
                self.stats.instructions.inc();
                if cond.eval(a, b) {
                    self.pc = target;
                    self.next_ready = now.plus(1 + self.cfg.taken_branch_penalty);
                } else {
                    self.pc += 1;
                    self.next_ready = now.plus(1);
                }
            }
            Inst::Ld {
                rd,
                base,
                offset,
                size,
                class,
            } => {
                let va = self.va(base, offset);
                match self.translate(now, va, false) {
                    Translate::Ok(t) => {
                        let op = if t.flags.mmio {
                            CoreOp::MmioLoad { size }
                        } else {
                            match class {
                                LdClass::Normal => CoreOp::Load { size },
                                LdClass::Volatile => CoreOp::LoadVolatile { size },
                            }
                        };
                        let id = self.fresh_id();
                        match self.l1.access(now, CoreReq { id, addr: t.paddr, op }, mem, stage) {
                            Ok(()) => {
                                self.stats.loads.inc();
                                self.waiting = Some(Waiting::Resp { id, rd: Some(rd) });
                                self.state = CoreState::WaitingMem;
                                self.pc += 1;
                                self.stats.instructions.inc();
                                self.begin_stall(
                                    now,
                                    if t.flags.mmio {
                                        WaitKind::MmioLoad
                                    } else {
                                        WaitKind::Mem
                                    },
                                    t.paddr.0,
                                );
                            }
                            Err(L1Reject::MshrFull | L1Reject::StoreBufferFull) => {
                                self.next_ready = now.plus(1); // retry
                            }
                        }
                    }
                    Translate::PtwStarted(ready, write, va) => {
                        self.ptw_stall(now, mem, ready, va, write);
                    }
                    Translate::Fault(f) => self.raise_fault(va, false, f),
                }
            }
            Inst::St {
                rs,
                base,
                offset,
                size,
            } => {
                let va = self.va(base, offset);
                let data = self.regs[usize::from(rs.0)];
                match self.translate(now, va, true) {
                    Translate::Ok(t) => {
                        if t.flags.mmio
                            && self.mmio_inflight.len() >= self.cfg.mmio_store_outstanding
                        {
                            // Store buffer full of unacked MMIO stores —
                            // this is how MAPLE's queue-full backpressure
                            // reaches the pipeline. Each retried cycle is
                            // an MMIO-attributed stall. Only an ack (an L1
                            // response) or a hub command can change the
                            // outcome, so the core waits for one.
                            self.stats.stall.add(StallCause::Mmio, 1);
                            self.next_ready = now.plus(1);
                            self.mmio_wait = Some(va.page());
                            return;
                        }
                        let id = self.fresh_id();
                        let op = if t.flags.mmio {
                            CoreOp::MmioStore { size, data }
                        } else {
                            CoreOp::Store { size, data }
                        };
                        match self.l1.access(now, CoreReq { id, addr: t.paddr, op }, mem, stage) {
                            Ok(()) => {
                                self.stats.stores.inc();
                                self.stats.instructions.inc();
                                self.pc += 1;
                                if t.flags.mmio {
                                    // Retires architecturally on the device
                                    // ack (paper, produce step 4), but the
                                    // pipeline runs ahead from the store
                                    // buffer.
                                    self.mmio_inflight.insert(id, (now, t.paddr.0));
                                }
                                self.next_ready = now.plus(1);
                            }
                            Err(_) => self.next_ready = now.plus(1),
                        }
                    }
                    Translate::PtwStarted(ready, write, va) => {
                        self.ptw_stall(now, mem, ready, va, write);
                    }
                    Translate::Fault(f) => self.raise_fault(va, true, f),
                }
            }
            Inst::Amo {
                op,
                rd,
                base,
                offset,
                size,
                rs,
                rs2,
            } => {
                let va = self.va(base, offset);
                match self.translate(now, va, true) {
                    Translate::Ok(t) => {
                        let operand = self.regs[usize::from(rs.0)];
                        let kind = match op {
                            AtomicOp::Add => AmoKind::Add,
                            AtomicOp::Swap => AmoKind::Swap,
                            AtomicOp::Cas => AmoKind::Cas {
                                expected: self.regs[usize::from(rs2.0)],
                            },
                            AtomicOp::MinU => AmoKind::MinU,
                            AtomicOp::MaxU => AmoKind::MaxU,
                        };
                        let id = self.fresh_id();
                        let req = CoreReq {
                            id,
                            addr: t.paddr,
                            op: CoreOp::Amo {
                                kind,
                                size,
                                operand,
                            },
                        };
                        match self.l1.access(now, req, mem, stage) {
                            Ok(()) => {
                                self.stats.atomics.inc();
                                self.stats.instructions.inc();
                                self.waiting = Some(Waiting::Resp { id, rd: Some(rd) });
                                self.state = CoreState::WaitingMem;
                                self.pc += 1;
                                self.begin_stall(now, WaitKind::Mem, t.paddr.0);
                            }
                            Err(_) => self.next_ready = now.plus(1),
                        }
                    }
                    Translate::PtwStarted(ready, write, va) => {
                        self.ptw_stall(now, mem, ready, va, write);
                    }
                    Translate::Fault(f) => self.raise_fault(va, true, f),
                }
            }
            Inst::Prefetch { base, offset } => {
                let va = self.va(base, offset);
                match self.translate(now, va, false) {
                    Translate::Ok(t) => {
                        let id = self.fresh_id();
                        let req = CoreReq {
                            id,
                            addr: t.paddr,
                            op: CoreOp::Prefetch,
                        };
                        // Prefetches never block and never fault.
                        if self.l1.access(now, req, mem, stage).is_ok() {
                            self.stats.prefetches.inc();
                        }
                        self.retire(now, 1);
                    }
                    Translate::PtwStarted(ready, write, va) => {
                        self.ptw_stall(now, mem, ready, va, write);
                    }
                    Translate::Fault(_) => self.retire(now, 1), // dropped
                }
            }
            Inst::DescProduce { q, rs } => {
                let queues = desc.as_deref_mut().expect("DeSC op without queues");
                let v = self.regs[usize::from(rs.0)];
                if queues.produce(q, v).is_ok() {
                    self.stats.instructions.inc();
                    self.pc += 1;
                    self.next_ready = now.plus(self.cfg.desc_queue_latency);
                } else {
                    self.next_ready = now.plus(1); // full: retry
                }
            }
            Inst::DescConsume { rd, q } => {
                let queues = desc.as_deref_mut().expect("DeSC op without queues");
                if let Some(v) = queues.consume(q) {
                    self.write_reg(rd, v);
                    self.stats.instructions.inc();
                    self.stats.loads.inc();
                    self.pc += 1;
                    self.next_ready = now.plus(self.cfg.desc_queue_latency);
                } else {
                    self.next_ready = now.plus(1); // empty: retry
                }
            }
            Inst::DescTryConsume { rd, q } => {
                let queues = desc.as_deref_mut().expect("DeSC op without queues");
                let v = queues.consume(q).unwrap_or(u64::MAX);
                self.write_reg(rd, v);
                self.stats.instructions.inc();
                self.pc += 1;
                self.next_ready = now.plus(self.cfg.desc_queue_latency);
            }
            Inst::DescProduceLoad {
                q,
                base,
                offset,
                size,
            } => {
                if self.desc_inflight.len() >= self.cfg.desc_outstanding {
                    self.next_ready = now.plus(1);
                    return;
                }
                {
                    let queues = desc.as_deref_mut().expect("DeSC op without queues");
                    if queues.is_full(q) {
                        self.next_ready = now.plus(1);
                        return;
                    }
                }
                let va = self.va(base, offset);
                match self.translate(now, va, false) {
                    Translate::Ok(t) => {
                        let id = self.fresh_id();
                        let req = CoreReq {
                            id,
                            addr: t.paddr,
                            op: CoreOp::Load { size },
                        };
                        match self.l1.access(now, req, mem, stage) {
                            Ok(()) => {
                                let queues =
                                    desc.expect("DeSC op without queues");
                                let ticket =
                                    queues.reserve(q).expect("checked not full above");
                                self.desc_inflight.insert(id, ticket);
                                self.stats.loads.inc();
                                self.stats.instructions.inc();
                                self.pc += 1;
                                // Terminal load: does NOT block the pipeline.
                                self.next_ready = now.plus(1);
                            }
                            Err(_) => self.next_ready = now.plus(1),
                        }
                    }
                    Translate::PtwStarted(ready, write, va) => {
                        self.ptw_stall(now, mem, ready, va, write);
                    }
                    Translate::Fault(f) => self.raise_fault(va, false, f),
                }
            }
        }
    }

    /// Earliest cycle at or after `now` at which ticking this core could
    /// have an observable effect, for the event-horizon scheduler.
    ///
    /// A running core acts when `next_ready` arrives (immediately if it is
    /// already due); pending L1 traffic and staged responses carry their
    /// own deadlines. A core blocked in [`CoreState::WaitingMem`] or
    /// [`CoreState::Faulted`] reports no event of its own — the response
    /// or the OS fault service that unblocks it is tracked by another
    /// component's horizon — but accrues per-cycle stall counters, which
    /// [`Core::skip`] catches up in bulk over skipped gaps. So does a
    /// core whose MMIO store found the store buffer full of unacked MMIO
    /// stores: its retry can only succeed once an ack retires, and the
    /// ack arrives as an L1 response, which is an L1 term.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = maple_sim::Horizon::IDLE;
        h.observe(self.l1.next_event(now));
        if self.state == CoreState::Running && self.mmio_wait.is_none() {
            h.at(self.next_ready.max(now));
        }
        h.earliest()
    }

    /// Catches per-cycle accounting up across `cycles` cycles the core was
    /// not ticked, exactly as the dense loop would have accrued it one
    /// [`Core::tick`] at a time. The core's state cannot change inside
    /// such a gap — anything that would change it is an event, a delivery
    /// or a hub command, and each ends the gap — so the per-cycle
    /// increment is constant across it. A core waiting on a full MMIO
    /// store buffer would have retried its store every cycle: one
    /// interpreted tick, one MMIO stall cycle and one TLB hit each.
    pub fn skip(&mut self, cycles: u64) {
        match self.state {
            CoreState::WaitingMem => self.stats.mem_stall_cycles.add(cycles),
            CoreState::Faulted => {
                self.stats.fault_stall_cycles.add(cycles);
                self.stats.stall.add(StallCause::FaultRecovery, cycles);
            }
            CoreState::Running => {
                if let Some(page) = self.mmio_wait {
                    self.stats.interpreted_ticks.add(cycles);
                    self.stats.stall.add(StallCause::Mmio, cycles);
                    self.tlb.lookup_n(page, cycles);
                }
            }
            CoreState::Halted => {}
        }
    }

    /// Marks the start of a blocking memory stall (for attribution and
    /// tracing).
    fn begin_stall(&mut self, now: Cycle, waiting: WaitKind, addr: u64) {
        self.stall_begin = now;
        self.stall_wait = waiting;
        self.stall_addr = addr;
        self.tracer.emit(now, || TraceEvent::CoreStallBegin {
            core: self.id,
            waiting,
        });
    }

    /// Attributes a completed blocking stall now that the serving level is
    /// known, and emits the matching trace events.
    fn end_stall(&mut self, now: Cycle, served_by: ServedBy) {
        let latency = now.since(self.stall_begin);
        let cause = if self.fault_retry {
            StallCause::FaultRecovery
        } else {
            match (self.stall_wait, served_by) {
                (WaitKind::MmioLoad, _) => StallCause::ConsumeWait,
                (WaitKind::Mem, ServedBy::L1) => StallCause::L1Hit,
                (WaitKind::Mem, ServedBy::L2) => StallCause::L1Miss,
                (WaitKind::Mem, ServedBy::Dram) => StallCause::L2Miss,
                (WaitKind::Mem, ServedBy::DramDirect) => StallCause::Dram,
                // A plain load answered by a device should not happen,
                // but attribute it as MMIO rather than losing it.
                (WaitKind::Mem, ServedBy::Device) => StallCause::Mmio,
            }
        };
        self.fault_retry = false;
        self.stats.stall.add(cause, latency);
        self.tracer.emit(now, || TraceEvent::CoreStallEnd {
            core: self.id,
            cause,
        });
        if self.stall_wait == WaitKind::MmioLoad {
            self.tracer.emit(now, || TraceEvent::MmioComplete {
                core: self.id,
                addr: self.stall_addr,
                write: false,
                latency,
            });
        }
    }

    fn ptw_stall(&mut self, now: Cycle, mem: &PhysMem, ready: Cycle, va: VAddr, write: bool) {
        self.stats.ptw_stall_cycles.add(ready.since(now));
        if let Some(fault) = self.finish_walk(mem, va, write) {
            self.raise_fault(va, write, fault);
        } else {
            self.next_ready = ready; // re-issue; TLB now hits
        }
    }

    fn retire(&mut self, now: Cycle, latency: u64) {
        self.stats.instructions.inc();
        self.pc += 1;
        self.next_ready = now.plus(latency);
    }
}

enum Translate {
    Ok(Translation),
    PtwStarted(Cycle, bool, VAddr),
    Fault(PageFault),
}

/// Helper: the physical *frame base* for a translation's page (TLBs cache
/// page-granular mappings).
trait FrameBase {
    fn line_base_page(self) -> maple_mem::PAddr;
}

impl FrameBase for maple_mem::PAddr {
    fn line_base_page(self) -> maple_mem::PAddr {
        maple_mem::PAddr(self.0 & !(maple_mem::PAGE_SIZE - 1))
    }
}

#[cfg(test)]
mod tests;
