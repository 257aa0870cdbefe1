//! Spatial partitioning of one [`System`](crate::system::System) for
//! barrier-stepped parallel simulation.
//!
//! The tile mesh is split into contiguous spans of cores and engines —
//! the components that dominate per-cycle work — while the hub (mesh, L2,
//! DROPLET, uncore queues, fault service, chaos plane) stays on the
//! conducting thread. Each simulated cycle is three phases:
//!
//! 1. **hub-pre** ([`System`] side): mesh deliveries are collected into
//!    per-partition [`Inbox`]es (flits crossing the cut carry cycle
//!    stamps via [`BoundaryChannel`]), due page-fault services complete,
//!    and the chaos plane turns injections into [`Command`]s.
//! 2. **partition** ([`phase2`], parallel): each partition applies its
//!    inbox, ticks the cores and engines that are due (see
//!    [`WakeSet`]) against a read-only view of physical memory (stores
//!    are staged in a [`WriteStage`]), collects their egress and reports
//!    into its [`PartitionOut`].
//! 3. **hub-post**: the hub replays every partition's egress in global
//!    component order, applies staged stores, ticks L2/DROPLET/mesh and
//!    advances time.
//!
//! Nothing in phase 2 depends on *when* a partition runs relative to its
//! siblings — partitions share no mutable state and the hub alone orders
//! their outputs — so the result is bit-exact at any partition count and
//! any worker count. The single-threaded steppers run the exact same
//! three phases over one partition list, making the equivalence hold by
//! shared code rather than by parallel re-derivation.

use maple_core::Engine;
use maple_cpu::desc::DescQueues;
use maple_cpu::{Core, CoreState};
use maple_mem::msg::{MemReq, MemResp};
use maple_mem::{PhysMem, WriteStage};
use maple_noc::boundary::BoundaryChannel;
use maple_sim::stats::Histogram;
use maple_sim::Cycle;
use maple_vm::{VAddr, VirtPage};

use crate::system::OCCUPANCY_SAMPLE_PERIOD;
use crate::wake::WakeSet;

/// A flit crossing the cut toward an engine tile.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EngineMsg {
    /// An MMIO/memory request (core operation or L2 fill request path).
    Req(MemReq),
    /// A memory response (L2 fill completing an engine fetch).
    Resp(MemResp),
}

/// A hub decision applied inside the owning partition, in hub order,
/// before the cycle's ticks; it wakes the components it targets.
/// Component indices are partition-local.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Command {
    /// A core page-fault service completed (`ok` = page mapped).
    CoreFaultServiced {
        /// Local core index.
        core: usize,
        /// Whether the faulting page could be mapped.
        ok: bool,
    },
    /// An engine page-fault service completed.
    EngineFaultServiced {
        /// Local engine index.
        engine: usize,
        /// Whether the faulting page could be mapped.
        ok: bool,
    },
    /// Chaos plane: driver re-initializes the engine mid-run.
    EngineReset {
        /// Local engine index.
        engine: usize,
    },
    /// TLB shootdown of one virtual page on every local core and engine
    /// (chaos injection, or the driver unmapping a retired engine).
    Shootdown {
        /// The page being shot down.
        vpn: VirtPage,
    },
    /// The MMIO watchdog re-injected a core's transaction; the stall it
    /// resolves is recovery work and must be attributed as such.
    NoteFaultRetry {
        /// Local core index.
        core: usize,
    },
}

/// Everything the hub hands a partition for one cycle.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Responses crossing the cut toward local core tiles.
    pub core_resps: BoundaryChannel<(usize, MemResp)>,
    /// Requests/responses crossing the cut toward local engine tiles.
    pub engine_msgs: BoundaryChannel<(usize, EngineMsg)>,
    /// Hub decisions, in hub execution order.
    pub commands: Vec<Command>,
    /// Fast-path fence: the earliest future cycle at which the hub could
    /// inject a command into this partition (next scheduled chaos event
    /// or fault-service deadline). Core compute runs must not batch an
    /// instruction that would issue at or past it. Recomputed by the hub
    /// every phase 1; `None` when no boundary is pending (or the
    /// fast-path is off).
    pub fence: Option<Cycle>,
}

/// Everything a partition hands back to the hub after one cycle. Only
/// the components that ticked contribute, in ascending local order.
#[derive(Debug, Default)]
pub(crate) struct PartitionOut {
    /// Plain stores the cores staged, in tick order (cores ascending),
    /// which is global core order once the hub applies the partitions'
    /// stages in turn, before the L2 tick.
    pub stage: WriteStage,
    /// Outbound memory/MMIO requests per local core, in pop order.
    pub core_reqs: Vec<(usize, MemReq)>,
    /// Outbound fetch/prefetch requests per local engine, in pop order.
    pub engine_reqs: Vec<(usize, MemReq)>,
    /// Outbound engine responses (acks/data), in pop order.
    pub engine_resps: Vec<(usize, maple_mem::l2::OutboundResp)>,
    /// Cores that entered `Faulted` this cycle and need OS service, with
    /// the faulting address (the hub maps the page at service time).
    pub core_fault_dispatch: Vec<(usize, VAddr)>,
    /// Engines that raised a fault this cycle, with the faulting address.
    pub engine_fault_dispatch: Vec<(usize, VAddr)>,
    /// Local cores halted as of this cycle's end.
    pub halted: usize,
    /// Poisoned flag of each local engine that ticked, as of this
    /// cycle's end (the hub's chaos scan reads its mirror next cycle,
    /// preserving the one-cycle lag of the sequential stepper; only a
    /// tick changes the flag).
    pub poisoned: Vec<(usize, bool)>,
    /// Earliest future cycle any local component is due, as of this
    /// cycle's phase 2; `u64::MAX` in the dense reference, or when every
    /// local component waits for a delivery or a command.
    pub horizon: u64,
}

impl PartitionOut {
    /// Clears the per-cycle collections (capacity is preserved).
    fn reset(&mut self) {
        debug_assert!(self.stage.is_empty(), "hub must apply the stage every cycle");
        self.core_reqs.clear();
        self.engine_reqs.clear();
        self.engine_resps.clear();
        self.core_fault_dispatch.clear();
        self.engine_fault_dispatch.clear();
        self.halted = 0;
        self.poisoned.clear();
        self.horizon = u64::MAX;
    }

    /// Whether this cycle's ticks left the hub nothing to do: no request,
    /// response or fault dispatch, and no engine reporting itself
    /// poisoned (the chaos scan must see that on the next cycle).
    pub fn is_quiet(&self) -> bool {
        self.core_reqs.is_empty()
            && self.engine_reqs.is_empty()
            && self.engine_resps.is_empty()
            && self.core_fault_dispatch.is_empty()
            && self.engine_fault_dispatch.is_empty()
            && self.poisoned.iter().all(|&(_, poisoned)| !poisoned)
    }
}

/// One spatial partition: a contiguous span of cores and engines plus
/// the per-component state only they touch, including the wake sets that
/// decide which of them tick each cycle.
#[derive(Debug)]
pub(crate) struct Partition {
    pub cores: Vec<Core>,
    pub engines: Vec<Engine>,
    /// DeSC queue pairs whose two cores both live here (the planner
    /// never cuts a pair), with the global queue index they came from.
    pub desc_queues: Vec<DescQueues>,
    pub desc_global: Vec<usize>,
    /// Local core index -> local DeSC queue index.
    pub desc_pair: Vec<Option<usize>>,
    pub faults_in_service: Vec<bool>,
    pub engine_fault_in_service: Vec<bool>,
    /// Per-local-engine, per-queue occupancy histograms.
    pub occupancy: Vec<Vec<Histogram>>,
    pub core_wake: WakeSet,
    pub engine_wake: WakeSet,
    /// Local cores halted so far (only a tick halts a core).
    pub halted: usize,
    pub inbox: Inbox,
    pub out: PartitionOut,
}

impl Partition {
    /// Brings every local component's accounting up to `now` (the end of
    /// a run, before the components return to the hub).
    pub fn flush(&mut self, now: Cycle) {
        self.core_wake.flush(now, |i, n| self.cores[i].skip(n));
        self.engine_wake.flush(now, |e, n| self.engines[e].skip(n));
    }
}

/// The contiguous-span partition plan: which global core/engine indices
/// each partition owns.
#[derive(Debug, Clone)]
pub(crate) struct SplitPlan {
    /// `core_starts[p]..core_starts[p + 1]` are partition `p`'s cores.
    pub core_starts: Vec<usize>,
    /// `engine_starts[p]..engine_starts[p + 1]` are its engines.
    pub engine_starts: Vec<usize>,
}

impl SplitPlan {
    /// Plans `n` partitions over `cores` loaded cores and `engines`
    /// engines. Spans are balanced (`p * count / n` boundaries) except
    /// that a core boundary landing inside a DeSC pair is pushed right
    /// until the pair is whole: the coupled queues are a shared mutable
    /// structure, so both ends must tick on the same worker.
    pub fn plan(n: usize, cores: usize, engines: usize, desc_pair: &[Option<usize>]) -> SplitPlan {
        assert!(n > 0, "at least one partition is required");
        let mut core_starts = Vec::with_capacity(n + 1);
        core_starts.push(0);
        for p in 1..n {
            let mut b = (p * cores / n).max(*core_starts.last().expect("non-empty"));
            while b < cores && cuts_desc_pair(b, desc_pair) {
                b += 1;
            }
            core_starts.push(b);
        }
        core_starts.push(cores);
        let engine_starts: Vec<usize> = (0..=n).map(|p| p * engines / n).collect();
        SplitPlan {
            core_starts,
            engine_starts,
        }
    }

    /// Plans `n` partitions over a clustered fabric: every boundary is
    /// snapped right to the next *cluster* boundary (`core_cuts` /
    /// `engine_cuts` are the component indices at which the owning
    /// cluster changes, each list ending with the component count), so a
    /// cluster's crossbar traffic never straddles two workers and the
    /// per-cluster MAPLE pool stays with its cores. The DeSC-pair rule
    /// still applies after snapping (pairs are placed within one cluster
    /// by layout, so this is belt-and-braces, not a new constraint).
    ///
    /// Bit-exactness never depends on where boundaries land — partitions
    /// share no mutable state — so alignment is purely a locality choice;
    /// it is pinned by tests because the *plan* must still be
    /// deterministic.
    pub fn plan_clustered(
        n: usize,
        cores: usize,
        engines: usize,
        desc_pair: &[Option<usize>],
        core_cuts: &[usize],
        engine_cuts: &[usize],
    ) -> SplitPlan {
        assert!(n > 0, "at least one partition is required");
        let snap = |target: usize, cuts: &[usize], count: usize| {
            cuts.iter().copied().find(|&c| c >= target).unwrap_or(count)
        };
        let mut core_starts = Vec::with_capacity(n + 1);
        core_starts.push(0);
        for p in 1..n {
            let ideal = (p * cores / n).max(*core_starts.last().expect("non-empty"));
            let mut b = snap(ideal, core_cuts, cores);
            while b < cores && cuts_desc_pair(b, desc_pair) {
                b += 1;
            }
            core_starts.push(b);
        }
        core_starts.push(cores);
        let mut engine_starts = Vec::with_capacity(n + 1);
        engine_starts.push(0);
        for p in 1..n {
            let ideal = (p * engines / n).max(*engine_starts.last().expect("non-empty"));
            engine_starts.push(snap(ideal, engine_cuts, engines));
        }
        engine_starts.push(engines);
        SplitPlan {
            core_starts,
            engine_starts,
        }
    }

    /// Total loaded cores covered by the plan.
    pub fn total_cores(&self) -> usize {
        *self.core_starts.last().expect("non-empty")
    }

    /// Total engines covered by the plan.
    pub fn total_engines(&self) -> usize {
        *self.engine_starts.last().expect("non-empty")
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.core_starts.len() - 1
    }

    /// Maps a global core index to `(partition, local index)`.
    pub fn core_owner(&self, i: usize) -> (usize, usize) {
        let p = self.core_starts.partition_point(|&s| s <= i) - 1;
        (p, i - self.core_starts[p])
    }

    /// Maps a global engine index to `(partition, local index)`.
    pub fn engine_owner(&self, e: usize) -> (usize, usize) {
        let p = self.engine_starts.partition_point(|&s| s <= e) - 1;
        (p, e - self.engine_starts[p])
    }
}

/// Whether a boundary placed before global core `b` separates two cores
/// sharing a DeSC queue pair.
fn cuts_desc_pair(b: usize, desc_pair: &[Option<usize>]) -> bool {
    desc_pair[..b]
        .iter()
        .flatten()
        .any(|left| desc_pair[b..].iter().flatten().any(|right| right == left))
}

/// Phase 2 of one simulated cycle, run inside the owning worker with a
/// read-only view of physical memory: deliveries, hub commands, then the
/// due cores and the due engines, each ticked in ascending order with its
/// egress and faults collected as it ticks, occupancy sampling, report.
/// The order of everything the hub observes is the order of a loop over
/// every component, which is what the dense reference runs.
pub(crate) fn phase2(p: &mut Partition, now: Cycle, mem: &PhysMem) {
    p.out.reset();

    // 1. Apply cut-link deliveries in hub (mesh) order.
    for (i, resp) in p.inbox.core_resps.import_ready(now) {
        p.core_wake.wake(i, now, |n| p.cores[i].skip(n));
        p.cores[i].on_mem_resp(now, resp, mem);
    }
    for (e, msg) in p.inbox.engine_msgs.import_ready(now) {
        p.engine_wake.wake(e, now, |n| p.engines[e].skip(n));
        match msg {
            EngineMsg::Req(req) => p.engines[e].accept(now, req),
            EngineMsg::Resp(resp) => p.engines[e].on_mem_resp(now, resp, mem),
        }
    }

    // 2. Apply hub commands in hub execution order.
    for cmd in std::mem::take(&mut p.inbox.commands) {
        match cmd {
            Command::CoreFaultServiced { core, ok } => {
                p.core_wake.wake(core, now, |n| p.cores[core].skip(n));
                if p.cores[core].state() == CoreState::Faulted {
                    if ok {
                        p.cores[core].resume_from_fault(now, 1);
                        p.faults_in_service[core] = false;
                    }
                    // !ok: the core stays Faulted and in service; the
                    // hang machinery reports it.
                } else {
                    p.faults_in_service[core] = false;
                }
            }
            Command::EngineFaultServiced { engine, ok } => {
                p.engine_wake.wake(engine, now, |n| p.engines[engine].skip(n));
                if p.engines[engine].fault().is_some() {
                    if ok {
                        p.engines[engine].resolve_fault();
                        p.engine_fault_in_service[engine] = false;
                    }
                } else {
                    // The fault cleared on its own (reset / MMIO fault
                    // resume) while the OS was busy.
                    p.engine_fault_in_service[engine] = false;
                }
            }
            Command::EngineReset { engine } => {
                p.engine_wake.wake(engine, now, |n| p.engines[engine].skip(n));
                p.engines[engine].reset();
            }
            Command::Shootdown { vpn } => {
                for i in 0..p.cores.len() {
                    p.core_wake.wake(i, now, |n| p.cores[i].skip(n));
                    p.cores[i].tlb_shootdown(vpn);
                }
                for e in 0..p.engines.len() {
                    p.engine_wake.wake(e, now, |n| p.engines[e].skip(n));
                    p.engines[e].tlb_shootdown(vpn);
                }
            }
            Command::NoteFaultRetry { core } => {
                p.core_wake.wake(core, now, |n| p.cores[core].skip(n));
                p.cores[core].note_fault_retry();
            }
        }
    }

    // 3. Tick the due cores (plain stores staged, not written). A core
    //    faults or halts only in its own tick, so only ticked cores need
    //    checking.
    p.core_wake.collect(now);
    for k in 0..p.core_wake.due_now().len() {
        let i = p.core_wake.due_now()[k];
        p.core_wake.wake(i, now, |n| p.cores[i].skip(n));
        let dq = match p.desc_pair[i] {
            Some(q) => Some(&mut p.desc_queues[q]),
            None => None,
        };
        let core = &mut p.cores[i];
        let was_halted = core.is_halted();
        core.tick(now, mem, &mut p.out.stage, dq, p.inbox.fence);
        if core.is_halted() && !was_halted {
            p.halted += 1;
        }
        if core.state() == CoreState::Faulted && !p.faults_in_service[i] {
            p.faults_in_service[i] = true;
            let vaddr = core.fault().expect("Faulted implies a fault").vaddr;
            p.out.core_fault_dispatch.push((i, vaddr));
        }
        while let Some(req) = core.pop_mem_request() {
            p.out.core_reqs.push((i, req));
        }
        p.core_wake.settle(i, now, || core.next_event(now.plus(1)));
    }

    // 4. Tick the due engines; per engine, requests precede responses.
    p.engine_wake.collect(now);
    for k in 0..p.engine_wake.due_now().len() {
        let e = p.engine_wake.due_now()[k];
        p.engine_wake.wake(e, now, |n| p.engines[e].skip(n));
        let engine = &mut p.engines[e];
        engine.tick(now, mem);
        if !p.engine_fault_in_service[e] {
            if let Some(fault) = engine.fault() {
                p.engine_fault_in_service[e] = true;
                p.out.engine_fault_dispatch.push((e, fault.vaddr));
            }
        }
        while let Some(req) = engine.pop_mem_request() {
            p.out.engine_reqs.push((e, req));
        }
        while let Some(out) = engine.pop_response(now) {
            p.out.engine_resps.push((e, out));
        }
        p.out.poisoned.push((e, engine.is_poisoned()));
        p.engine_wake.settle(e, now, || engine.next_event(now.plus(1)));
    }

    // 5. Occupancy sampling (hub-scheduled cycles; nothing after this
    //    point in the cycle touches engine data queues, and a sleeping
    //    engine's queues do not change).
    if now.0.is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
        for (e, hists) in p.occupancy.iter_mut().enumerate() {
            for (q, h) in hists.iter_mut().enumerate() {
                h.record(p.engines[e].queue(q as u8).occupancy() as u64);
            }
        }
    }

    // 6. Report.
    p.out.halted = p.halted;
    p.out.horizon = p.core_wake.horizon().min(p.engine_wake.horizon());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_balances_contiguous_spans() {
        let plan = SplitPlan::plan(4, 8, 4, &[None; 8]);
        assert_eq!(plan.core_starts, vec![0, 2, 4, 6, 8]);
        assert_eq!(plan.engine_starts, vec![0, 1, 2, 3, 4]);
        assert_eq!(plan.core_owner(0), (0, 0));
        assert_eq!(plan.core_owner(5), (2, 1));
        assert_eq!(plan.engine_owner(3), (3, 0));
    }

    #[test]
    fn plan_never_cuts_a_desc_pair() {
        // Cores 1 and 2 share queue 0: the midpoint boundary (2) would
        // cut the pair, so it slides right to 3.
        let pairs = [None, Some(0), Some(0), None];
        let plan = SplitPlan::plan(2, 4, 2, &pairs);
        assert_eq!(plan.core_starts, vec![0, 3, 4]);
        let (pa, _) = plan.core_owner(1);
        let (pb, _) = plan.core_owner(2);
        assert_eq!(pa, pb, "paired cores share a partition");
    }

    #[test]
    fn plan_with_straddling_pair_degenerates_gracefully() {
        // A pair spanning cores 0 and 3 forces everything into one
        // partition; the other ends up empty rather than cutting it.
        let pairs = [Some(0), None, None, Some(0)];
        let plan = SplitPlan::plan(2, 4, 0, &pairs);
        assert_eq!(plan.core_starts, vec![0, 4, 4]);
        assert_eq!(plan.total_cores(), 4);
        assert_eq!(plan.partitions(), 2);
    }

    #[test]
    fn plan_yields_zero_engine_partitions_when_outnumbered() {
        // 4 partitions over 2 engines: partitions 0 and 2 have none.
        let plan = SplitPlan::plan(4, 4, 2, &[None; 4]);
        assert_eq!(plan.engine_starts, vec![0, 0, 1, 1, 2]);
        assert_eq!(plan.engine_owner(0), (1, 0));
        assert_eq!(plan.engine_owner(1), (3, 0));
    }

    #[test]
    fn clustered_plan_snaps_to_cluster_boundaries() {
        // 8 cores in clusters of 3/3/2 (cuts at 3, 6, 8): the balanced
        // midpoint (4) snaps right to the next cluster boundary (6).
        let plan = SplitPlan::plan_clustered(2, 8, 4, &[None; 8], &[3, 6, 8], &[2, 4]);
        assert_eq!(plan.core_starts, vec![0, 6, 8]);
        // Engine midpoint 2 is already a cut, so it stays.
        assert_eq!(plan.engine_starts, vec![0, 2, 4]);
    }

    #[test]
    fn clustered_plan_is_monotonic_with_sparse_cuts() {
        // One giant cluster: every interior boundary snaps to the end,
        // degenerating to a single working partition — never cutting the
        // cluster.
        let plan = SplitPlan::plan_clustered(4, 8, 0, &[None; 8], &[8], &[0]);
        assert_eq!(plan.core_starts, vec![0, 8, 8, 8, 8]);
        assert_eq!(plan.total_cores(), 8);
        assert_eq!(plan.partitions(), 4);
    }

    #[test]
    fn clustered_plan_still_respects_desc_pairs() {
        // Cores 2 and 3 share a queue; cluster cut at 3 would split
        // them, so the boundary slides right past the pair.
        let pairs = [None, None, Some(0), Some(0), None, None];
        let plan = SplitPlan::plan_clustered(2, 6, 0, &pairs, &[3, 6], &[0]);
        let (pa, _) = plan.core_owner(2);
        let (pb, _) = plan.core_owner(3);
        assert_eq!(pa, pb, "paired cores share a partition");
    }

    #[test]
    fn plan_handles_more_partitions_than_cores() {
        let plan = SplitPlan::plan(4, 2, 1, &[None; 2]);
        assert_eq!(plan.core_starts, vec![0, 0, 1, 1, 2]);
        assert_eq!(plan.total_cores(), 2);
        assert_eq!(plan.core_owner(0), (1, 0));
        assert_eq!(plan.core_owner(1), (3, 0));
    }
}
