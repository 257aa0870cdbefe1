//! The serving driver: tenant scheduler plus MAPLE engine
//! virtualization over one cycle-accurate [`System`].
//!
//! # Execution model
//!
//! The driver runs **batch rounds** against a single resident system —
//! the cycle-accurate model is never forked. Each round it (1) applies
//! any due administrative engine kill, (2) assigns every live engine to
//! one tenant with arrived requests (round-robin across rounds, one
//! tenant per engine per round — engine-tenant exclusivity is what makes
//! the isolation argument local), (3) context-switches engines whose
//! occupant changes, (4) reloads the engine's serving lanes with that
//! tenant's next requests, and (5) steps the whole SoC until every lane
//! halts. Cores on lanes without work simply stay halted; halted cores
//! cost no cycles under the event-horizon steppers.
//!
//! # Engine virtualization
//!
//! A context switch on engine `e` from tenant `a` to tenant `b` is the
//! driver-level sequence the paper's driver would perform:
//!
//! 1. **save** — [`System::save_engine_context`] captures `a`'s
//!    architectural engine state ([`maple_core::EngineContext`]);
//! 2. **remap** — [`System::remap_maple`] moves the engine's MMIO page
//!    to a fresh user VA, broadcasting a TLB shootdown for the old
//!    translation to every core and engine, so no stale mapping can
//!    reach `b`'s instance (property-tested in `maple-vm`);
//! 3. **restore** — `b`'s saved context is restored, or the engine is
//!    [`System::reset_engine`]-reset for a first-time occupant.
//!
//! Switches happen only at batch boundaries, when the SoC is quiescent
//! (all cores halted, no outstanding MMIO), so no in-flight transaction
//! can straddle two tenants. The MMIO replay (dedup) cache is flushed at
//! the same boundaries ([`System::flush_engine_replay_caches`]): lane
//! cores are reloaded per request and restart their L1 transaction ids,
//! so a stale completed entry could otherwise replay one tenant's value
//! into the next request. The switch is charged
//! [`CONTEXT_SWITCH_CYCLES`] on the serving clock.
//!
//! # Serving clock
//!
//! Latencies are measured on a **virtual clock**: the simulated cycle
//! counter plus (a) charged context-switch overhead and (b) idle
//! fast-forwards to the next arrival, so an idle server does not burn
//! simulated cycles waiting. Arrival schedules and the clock share the
//! cycle unit.
//!
//! # Degradation
//!
//! Requests are dispatched at the top of the harness fallback ladder
//! (maple-dec). A request whose output fails the byte-exact host check
//! — or whose batch hangs — is re-dispatched solo one rung down
//! (sw-dec, then do-all), and every descent is recorded as a
//! [`FaultReport`] tagged with the triggering tenant. Requests routed to
//! a killed engine's lanes start directly at sw-dec: the lanes outlive
//! the engine, so an engine failure costs latency, never correctness —
//! and never leaks state across tenants.

use std::collections::HashMap;
use std::collections::VecDeque;

use maple_baselines::swdec::SwQueueLayout;
use maple_core::EngineContext;
use maple_isa::builder::ProgramBuilder;
use maple_isa::Program;
use maple_sim::fault::FaultPlaneConfig;
use maple_sim::stats::Histogram;
use maple_sim::Cycle;
use maple_soc::config::SocConfig;
use maple_soc::system::System;
use maple_trace::{MetricsSnapshot, TraceConfig, TraceEvent};
use maple_vm::VAddr;
use maple_workloads::data::Csr;
use maple_workloads::harness::{alloc_u32, FaultReport, MAX_CYCLES};
use maple_workloads::slice::{
    doall_query, maple_access_query, maple_execute_query, swdec_access_query, swdec_execute_query,
    upload_tenant, TenantArrays,
};

use crate::request::{Request, TenantSpec};

/// Cycles charged to the serving clock per engine context switch,
/// modeling the driver's save/restore MMIO traffic, the page-table
/// remap, and the shootdown IPI round. The charge is architectural
/// bookkeeping (the simulated save/restore itself is instantaneous), so
/// it is a named constant rather than a measured quantity.
pub const CONTEXT_SWITCH_CYCLES: u64 = 400;

/// Configuration of one serving session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The tenants sharing the SoC.
    pub tenants: Vec<TenantSpec>,
    /// MAPLE instances on the mesh.
    pub maples: usize,
    /// Serving lanes (queue + Access/Execute core pair) per engine.
    pub lanes_per_engine: usize,
    /// Chaos plane installed for the whole session (recoverable
    /// schedules keep results byte-exact through the recovery
    /// machinery).
    pub chaos: Option<FaultPlaneConfig>,
    /// Administrative engine kill: at serving-clock time `.0`, engine
    /// `.1` is unmapped and stays dead — its lanes keep serving on the
    /// software rungs.
    pub kill_engine: Option<(u64, usize)>,
    /// Use the dense reference stepper instead of event-horizon
    /// skipping.
    pub dense: bool,
    /// Hierarchical fabric: group tiles into crossbar clusters with a
    /// banked L2 (`None` keeps the flat mesh).
    pub cluster: Option<maple_soc::ClusterConfig>,
    /// Observability tracing for the session.
    pub trace: Option<TraceConfig>,
}

impl ServeConfig {
    /// A small session for tests and CI gates: three tenants, two
    /// engines, two lanes each.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        ServeConfig {
            tenants: vec![
                TenantSpec::quick("alpha", seed ^ 0x11),
                TenantSpec::quick("beta", seed ^ 0x22),
                TenantSpec::quick("gamma", seed ^ 0x33),
            ],
            maples: 2,
            lanes_per_engine: 2,
            chaos: None,
            kill_engine: None,
            dense: false,
            cluster: None,
            trace: None,
        }
    }

    /// The benchmark session: four tenants with asymmetric load, a
    /// thousand-cycle arrival scale, enough requests for stable tail
    /// percentiles.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        let tenant = |name: &str, requests, mean_gap, s| TenantSpec {
            name: name.to_string(),
            rows: 96,
            cols: 16 * 1024,
            nnz_per_row: 6,
            requests,
            mean_gap,
            slice_rows: 16,
            seed: s,
        };
        ServeConfig {
            tenants: vec![
                tenant("alpha", 90, 1_200, seed ^ 0x11),
                tenant("beta", 90, 1_200, seed ^ 0x22),
                tenant("gamma", 60, 2_000, seed ^ 0x33),
                tenant("delta", 30, 4_000, seed ^ 0x44),
            ],
            maples: 2,
            lanes_per_engine: 2,
            chaos: None,
            kill_engine: None,
            dense: false,
            cluster: None,
            trace: None,
        }
    }

    /// Serving lanes in total.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.maples * self.lanes_per_engine
    }

    /// The SoC configuration the session runs on: two cores per lane
    /// (Access + Execute), one MAPLE instance per engine.
    #[must_use]
    pub fn soc_config(&self) -> SocConfig {
        let mut cfg = SocConfig::fpga_prototype()
            .with_cores(2 * self.lanes())
            .with_maples(self.maples);
        if let Some(shape) = self.cluster {
            cfg = cfg.with_clusters(shape);
        }
        if self.dense {
            cfg = cfg.with_dense_stepper();
        }
        if let Some(plane) = &self.chaos {
            cfg = cfg.with_fault_plane(plane.clone());
        }
        if let Some(trace) = self.trace {
            cfg = cfg.with_tracing(trace);
        }
        cfg
    }
}

/// Per-tenant latency and throughput digest.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Requests completed byte-exact.
    pub completed: u64,
    /// Requests that failed even the bottom ladder rung (should be
    /// zero; any value here also clears [`ServingSummary::verified`]).
    pub failed: u64,
    /// Median request latency in cycles.
    pub p50: u64,
    /// 99th-percentile request latency in cycles.
    pub p99: u64,
    /// Worst request latency in cycles.
    pub max: u64,
    /// Mean request latency in cycles.
    pub mean: f64,
    /// Requests per million serving-clock cycles over the tenant's
    /// active window (first arrival to last completion).
    pub throughput: f64,
}

/// Everything a serving session reports.
#[derive(Debug, Clone)]
pub struct ServingSummary {
    /// Per-tenant digests, in tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Overall median latency in cycles.
    pub p50: u64,
    /// Overall tail latency in cycles.
    pub p99: u64,
    /// Overall worst latency in cycles.
    pub max: u64,
    /// Requests offered across all tenants.
    pub total_requests: u64,
    /// Requests completed byte-exact.
    pub completed: u64,
    /// Serving-clock span of the session in cycles.
    pub elapsed: u64,
    /// Raw simulated cycles consumed (elapsed minus charges and idle
    /// fast-forwards).
    pub sim_cycles: u64,
    /// Engine context switches performed.
    pub context_switches: u64,
    /// Serving-clock cycles charged for context switches.
    pub switch_cycles: u64,
    /// MMIO page remaps performed (one per switch, plus unmaps from
    /// kills).
    pub remaps: u64,
    /// Engines administratively killed mid-session.
    pub engines_killed: u64,
    /// Requests that ran below the top ladder rung (dead-engine
    /// dispatches and descents).
    pub degraded_dispatches: u64,
    /// One report per ladder descent, tagged with the triggering
    /// tenant.
    pub descents: Vec<FaultReport>,
    /// Batch rounds executed.
    pub batches: u64,
    /// Whether every request completed byte-exact against the host
    /// reference.
    pub verified: bool,
}

impl ServingSummary {
    /// Max/min ratio of per-tenant throughput (1.0 is perfectly fair;
    /// 0.0 when fewer than one tenant completed anything).
    #[must_use]
    pub fn fairness(&self) -> f64 {
        let rates: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.completed > 0)
            .map(|t| t.throughput)
            .collect();
        let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().copied().fold(0.0f64, f64::max);
        if rates.is_empty() || lo <= 0.0 {
            0.0
        } else {
            hi / lo
        }
    }

    /// Ladder descents across the session.
    #[must_use]
    pub fn ladder_descents(&self) -> u64 {
        self.descents.len() as u64
    }
}

struct TenantState {
    csr: Csr,
    x: Vec<u32>,
    arrays: TenantArrays,
    pending: VecDeque<Request>,
    hist: Histogram,
    completed: u64,
    failed: u64,
    first_arrival: u64,
    last_completion: u64,
}

struct Lane {
    out: VAddr,
    ring: VAddr,
    layout: SwQueueLayout,
}

struct Dispatch {
    req: Request,
    lane: usize,
    engine: usize,
    rung: u64,
}

/// The serving session driver. Construct with [`ServeSim::new`], run
/// with [`ServeSim::run`], then read per-request outputs (for the
/// differential oracle) with [`ServeSim::outputs`] and merged metrics
/// with [`ServeSim::metrics`].
pub struct ServeSim {
    cfg: ServeConfig,
    sys: System,
    tenants: Vec<TenantState>,
    lanes: Vec<Lane>,
    contexts: HashMap<(usize, u64), EngineContext>,
    engine_tenant: Vec<Option<u64>>,
    engine_dead: Vec<bool>,
    kill_pending: Option<(u64, usize)>,
    rr: usize,
    vextra: u64,
    switches: u64,
    switch_cycles: u64,
    remaps: u64,
    engines_killed: u64,
    degraded_dispatches: u64,
    descents: Vec<FaultReport>,
    batches: u64,
    outputs: Vec<Vec<Option<Vec<u32>>>>,
    summary: Option<ServingSummary>,
}

fn halt_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.halt();
    b.build().expect("halt program builds")
}

impl ServeSim {
    /// Builds the resident system: uploads every tenant's dataset,
    /// allocates per-lane output and ring buffers, loads every core
    /// with a trivial halt program (so any lane can be reloaded per
    /// request), and maps every MAPLE instance.
    ///
    /// # Panics
    ///
    /// Panics when the config is degenerate (no tenants, no engines,
    /// no lanes) or asks for more lanes per engine than the engine has
    /// queues.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(!cfg.tenants.is_empty(), "at least one tenant is required");
        assert!(cfg.maples > 0, "at least one engine is required");
        assert!(cfg.lanes_per_engine > 0, "at least one lane is required");
        let mut sys = System::new(cfg.soc_config());
        assert!(
            cfg.lanes_per_engine <= sys.engine(0).config().queues,
            "one queue per lane is required"
        );
        let tenants: Vec<TenantState> = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let (csr, x) = spec.dataset();
                let arrays = upload_tenant(&mut sys, &csr, &x);
                let pending: VecDeque<Request> = spec.schedule(t as u64).into();
                let first_arrival = pending.front().map_or(0, |r| r.arrival);
                TenantState {
                    csr,
                    x,
                    arrays,
                    pending,
                    hist: Histogram::new(),
                    completed: 0,
                    failed: 0,
                    first_arrival,
                    last_completion: 0,
                }
            })
            .collect();
        let max_rows = cfg
            .tenants
            .iter()
            .map(|t| t.slice_rows.max(1))
            .max()
            .unwrap();
        let lanes: Vec<Lane> = (0..cfg.lanes())
            .map(|_| {
                let layout = SwQueueLayout::new(64);
                Lane {
                    out: alloc_u32(&mut sys, max_rows),
                    ring: sys.alloc(layout.bytes()),
                    layout,
                }
            })
            .collect();
        for _ in 0..2 * cfg.lanes() {
            sys.load_program(halt_program(), &[]);
        }
        for e in 0..cfg.maples {
            sys.map_maple(e);
        }
        let outputs = cfg.tenants.iter().map(|t| vec![None; t.requests]).collect();
        ServeSim {
            engine_tenant: vec![None; cfg.maples],
            engine_dead: vec![false; cfg.maples],
            kill_pending: cfg.kill_engine,
            cfg,
            sys,
            tenants,
            lanes,
            contexts: HashMap::new(),
            rr: 0,
            vextra: 0,
            switches: 0,
            switch_cycles: 0,
            remaps: 0,
            engines_killed: 0,
            degraded_dispatches: 0,
            descents: Vec::new(),
            batches: 0,
            outputs,
            summary: None,
        }
    }

    fn vnow(&self) -> u64 {
        self.sys.now().0 + self.vextra
    }

    /// Save the occupant, remap the MMIO page (with shootdown), restore
    /// or reset for the incoming tenant, and charge the switch.
    fn context_switch(&mut self, e: usize, t: u64) {
        let ts = self.vnow();
        if let Some(old) = self.engine_tenant[e] {
            let ctx = self.sys.save_engine_context(e);
            self.contexts.insert((e, old), ctx);
        }
        self.sys.remap_maple(e);
        self.remaps += 1;
        match self.contexts.remove(&(e, t)) {
            Some(ctx) => self.sys.restore_engine_context(e, ctx),
            None => self.sys.reset_engine(e),
        }
        self.engine_tenant[e] = Some(t);
        self.switches += 1;
        self.switch_cycles += CONTEXT_SWITCH_CYCLES;
        self.vextra += CONTEXT_SWITCH_CYCLES;
        self.sys
            .tracer()
            .emit(Cycle(ts), || TraceEvent::ServeSwitch {
                engine: e,
                tenant: t,
                cost: CONTEXT_SWITCH_CYCLES,
            });
    }

    /// Load one request onto a lane's core pair at the given ladder
    /// rung. The output buffer is zeroed first so a lane reused across
    /// requests can never satisfy the byte-exact check with a previous
    /// request's stale result.
    fn load_lane(&mut self, req: &Request, lane: usize, engine: usize, rung: u64) {
        let rows = req.query.rows();
        let lane_state = &self.lanes[lane];
        let out = lane_state.out;
        let ring = lane_state.ring;
        let layout = lane_state.layout;
        self.sys.write_slice_u32(out, &vec![0u32; rows.max(1)]);
        let arrays = self.tenants[req.tenant as usize].arrays;
        let (a_core, e_core) = (2 * lane, 2 * lane + 1);
        match rung {
            0 => {
                let q = (lane % self.cfg.lanes_per_engine) as u8;
                let va = self
                    .sys
                    .maple_va(engine)
                    .expect("dispatching on an unmapped engine");
                let (ap, ab) = maple_access_query(&req.query, &arrays, va, q);
                let (ep, eb) = maple_execute_query(&req.query, &arrays, out, va, q);
                self.sys.reload_core(a_core, ap, &ab);
                self.sys.reload_core(e_core, ep, &eb);
            }
            1 => {
                let (ap, ab) = swdec_access_query(&req.query, &arrays, ring, &layout);
                let (ep, eb) = swdec_execute_query(&req.query, &arrays, out, ring, &layout);
                // Reset the ring's head/tail words from the previous
                // request on this lane.
                self.sys
                    .write_slice_u32(ring, &vec![0u32; (layout.bytes() / 4) as usize]);
                self.sys.reload_core(a_core, ap, &ab);
                self.sys.reload_core(e_core, ep, &eb);
            }
            _ => {
                let (p, b) = doall_query(&req.query, &arrays, out, None);
                self.sys.reload_core(a_core, p, &b);
            }
        }
        let ts = self.vnow();
        self.sys
            .tracer()
            .emit(Cycle(ts), || TraceEvent::ServeDispatch {
                engine,
                tenant: req.tenant,
                rung: rung as u8,
            });
        if rung > 0 {
            self.degraded_dispatches += 1;
        }
    }

    /// Step the SoC until every lane halts, then flush the engines'
    /// MMIO replay caches (lane reloads restart L1 transaction ids; see
    /// the module docs). Returns whether the batch finished.
    fn step_batch(&mut self) -> bool {
        let finished = self.sys.run(MAX_CYCLES).is_finished();
        self.sys.flush_engine_replay_caches();
        self.batches += 1;
        finished
    }

    /// Read a completed dispatch's output and settle the request:
    /// byte-exact against the host reference records a completion;
    /// anything else descends the ladder solo until a rung verifies.
    fn settle(&mut self, d: &Dispatch, batch_ok: bool) {
        let rows = d.req.query.rows();
        let tid = d.req.tenant as usize;
        let expected = {
            let ts = &self.tenants[tid];
            d.req.query.reference(&ts.csr, &ts.x)
        };
        let mut got = self.sys.read_slice_u32(self.lanes[d.lane].out, rows);
        let mut ok = batch_ok && got == expected;
        let mut rung = d.rung;
        while !ok && rung < 2 {
            rung += 1;
            self.descents.push(FaultReport {
                ladder_rung: rung,
                tenant: Some(d.req.tenant),
                ..FaultReport::default()
            });
            self.load_lane(&d.req, d.lane, d.engine, rung);
            let solo_ok = self.step_batch();
            got = self.sys.read_slice_u32(self.lanes[d.lane].out, rows);
            ok = solo_ok && got == expected;
        }
        let completion = self.vnow();
        let ts = &mut self.tenants[tid];
        if ok {
            ts.hist.record(completion - d.req.arrival);
            ts.completed += 1;
            ts.last_completion = ts.last_completion.max(completion);
            // The oracle compares the bytes the simulation produced;
            // `ok` just proved they equal the host reference.
            self.outputs[tid][d.req.index] = Some(got);
        } else {
            ts.failed += 1;
        }
    }

    /// Runs the session to completion and returns its summary.
    pub fn run(&mut self) -> ServingSummary {
        let ntenants = self.tenants.len();
        loop {
            let vnow = self.vnow();
            if let Some((at, e)) = self.kill_pending {
                if vnow >= at {
                    self.kill_pending = None;
                    if e < self.cfg.maples && !self.engine_dead[e] {
                        // An occupant's future requests are forced down
                        // the ladder; record the degradation against it.
                        if let Some(t) = self.engine_tenant[e] {
                            self.descents.push(FaultReport {
                                ladder_rung: 1,
                                tenant: Some(t),
                                ..FaultReport::default()
                            });
                        }
                        self.sys.unmap_maple(e);
                        self.engine_dead[e] = true;
                        self.engine_tenant[e] = None;
                        self.engines_killed += 1;
                    }
                }
            }
            if self.tenants.iter().all(|t| t.pending.is_empty()) {
                break;
            }
            let arrived: Vec<usize> = (0..ntenants)
                .filter(|&t| {
                    self.tenants[t]
                        .pending
                        .front()
                        .is_some_and(|r| r.arrival <= vnow)
                })
                .collect();
            if arrived.is_empty() {
                // Open-loop idle: fast-forward the serving clock to the
                // next arrival instead of burning simulated cycles.
                let next = self
                    .tenants
                    .iter()
                    .filter_map(|t| t.pending.front().map(|r| r.arrival))
                    .min()
                    .expect("pending requests exist");
                self.vextra += next - vnow;
                continue;
            }
            // Assign each engine one tenant, rotating priority across
            // rounds so no tenant can be starved by an earlier index.
            let mut taken = vec![false; ntenants];
            let mut batch: Vec<Dispatch> = Vec::new();
            for e in 0..self.cfg.maples {
                let pick = (0..ntenants)
                    .map(|i| (self.rr + i) % ntenants)
                    .find(|&t| arrived.contains(&t) && !taken[t]);
                let Some(t) = pick else { break };
                taken[t] = true;
                self.rr = (t + 1) % ntenants;
                let rung = if self.engine_dead[e] {
                    1
                } else {
                    if self.engine_tenant[e] != Some(t as u64) {
                        self.context_switch(e, t as u64);
                    }
                    0
                };
                for q in 0..self.cfg.lanes_per_engine {
                    let due = self.tenants[t]
                        .pending
                        .front()
                        .is_some_and(|r| r.arrival <= vnow);
                    if !due {
                        break;
                    }
                    let req = self.tenants[t].pending.pop_front().expect("due request");
                    let lane = e * self.cfg.lanes_per_engine + q;
                    self.load_lane(&req, lane, e, rung);
                    batch.push(Dispatch {
                        req,
                        lane,
                        engine: e,
                        rung,
                    });
                }
            }
            let batch_ok = self.step_batch();
            for d in std::mem::take(&mut batch) {
                self.settle(&d, batch_ok);
            }
        }
        let summary = self.summarize();
        self.summary = Some(summary.clone());
        summary
    }

    fn summarize(&self) -> ServingSummary {
        // Bucketed percentiles report the bucket's upper bound, which
        // can overshoot the exact recorded maximum; clamp so the digest
        // always satisfies p50 <= p99 <= max.
        fn pct(h: &Histogram, p: f64) -> u64 {
            h.percentile(p).unwrap_or(0).min(h.max().unwrap_or(0))
        }
        let mut all = Histogram::new();
        let tenants: Vec<TenantSummary> = self
            .cfg
            .tenants
            .iter()
            .zip(&self.tenants)
            .map(|(spec, st)| {
                all.merge(&st.hist);
                let window = st.last_completion.saturating_sub(st.first_arrival);
                TenantSummary {
                    name: spec.name.clone(),
                    completed: st.completed,
                    failed: st.failed,
                    p50: pct(&st.hist, 50.0),
                    p99: pct(&st.hist, 99.0),
                    max: st.hist.max().unwrap_or(0),
                    mean: st.hist.mean(),
                    throughput: if window == 0 {
                        0.0
                    } else {
                        st.completed as f64 * 1.0e6 / window as f64
                    },
                }
            })
            .collect();
        let total_requests = self.cfg.tenants.iter().map(|t| t.requests as u64).sum();
        let completed = tenants.iter().map(|t| t.completed).sum();
        ServingSummary {
            p50: pct(&all, 50.0),
            p99: pct(&all, 99.0),
            max: all.max().unwrap_or(0),
            tenants,
            total_requests,
            completed,
            elapsed: self.vnow(),
            sim_cycles: self.sys.now().0,
            context_switches: self.switches,
            switch_cycles: self.switch_cycles,
            remaps: self.remaps,
            engines_killed: self.engines_killed,
            degraded_dispatches: self.degraded_dispatches,
            descents: self.descents.clone(),
            batches: self.batches,
            verified: completed == total_requests,
        }
    }

    /// Per-request outputs, indexed `[tenant][request index]` (`None`
    /// for requests that never completed). This is what the
    /// multi-tenant differential oracle byte-compares against solo
    /// runs.
    #[must_use]
    pub fn outputs(&self) -> &[Vec<Option<Vec<u32>>>] {
        &self.outputs
    }

    /// The underlying system, for trace export and inspection.
    #[must_use]
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// The system's unified metrics snapshot extended with the serving
    /// plane's own counters and latency histograms under `serve/…`.
    ///
    /// # Panics
    ///
    /// Panics when called before [`ServeSim::run`].
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = self
            .summary
            .as_ref()
            .expect("metrics() is available after run()");
        let mut m = self.sys.metrics_snapshot();
        m.counter("serve/requests", s.total_requests);
        m.counter("serve/completed", s.completed);
        m.counter("serve/batches", s.batches);
        m.counter("serve/context_switches", s.context_switches);
        m.counter("serve/switch_cycles", s.switch_cycles);
        m.counter("serve/remaps", s.remaps);
        m.counter("serve/engines_killed", s.engines_killed);
        m.counter("serve/degraded_dispatches", s.degraded_dispatches);
        m.counter("serve/ladder_descents", s.ladder_descents());
        m.counter("serve/elapsed_vcycles", s.elapsed);
        m.gauge("serve/fairness", s.fairness());
        for (spec, st) in self.cfg.tenants.iter().zip(&self.tenants) {
            m.counter(format!("serve/{}/completed", spec.name), st.completed);
            m.histogram(format!("serve/{}/latency", spec.name), &st.hist);
        }
        m
    }
}

/// Convenience one-shot: build, run, and return the driver with its
/// summary.
#[must_use]
pub fn serve(cfg: ServeConfig) -> (ServeSim, ServingSummary) {
    let mut sim = ServeSim::new(cfg);
    let summary = sim.run();
    (sim, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_session_completes_every_request() {
        let (_, s) = serve(ServeConfig::quick(1));
        assert!(s.verified, "all requests byte-exact");
        assert_eq!(s.completed, s.total_requests);
        assert_eq!(s.total_requests, 30);
        // Three tenants share two engines, so occupancy must rotate.
        assert!(s.context_switches > 2, "engines rotated between tenants");
        assert_eq!(s.remaps, s.context_switches, "one remap per switch");
        assert_eq!(s.switch_cycles, s.context_switches * CONTEXT_SWITCH_CYCLES);
        assert!(s.p50 > 0 && s.p99 >= s.p50 && s.max >= s.p99);
        assert!(s.fairness() >= 1.0);
        assert!(
            s.elapsed >= s.sim_cycles,
            "vclock includes charges and idles"
        );
    }

    #[test]
    fn single_tenant_single_engine_switches_once() {
        let mut cfg = ServeConfig::quick(5);
        cfg.tenants.truncate(1);
        cfg.maples = 1;
        let (_, s) = serve(cfg);
        assert!(s.verified);
        assert_eq!(s.context_switches, 1, "only the cold switch");
        assert!(s.descents.is_empty());
    }

    #[test]
    fn engine_kill_forces_ladder_descent_for_occupant() {
        let mut cfg = ServeConfig::quick(3);
        cfg.kill_engine = Some((1, 0)); // kill before the first batch
        let (_, s) = serve(cfg);
        assert!(s.verified, "kill costs latency, not correctness");
        assert_eq!(s.engines_killed, 1);
        assert!(s.degraded_dispatches > 0);
        // The surviving engine still context-switches.
        assert!(s.context_switches > 0);
    }

    #[test]
    fn descent_reports_carry_the_tenant_tag() {
        let mut cfg = ServeConfig::quick(9);
        cfg.kill_engine = Some((8_000, 1)); // mid-session, while occupied
        let (_, s) = serve(cfg);
        assert!(s.verified);
        assert_eq!(s.engines_killed, 1);
        for report in &s.descents {
            assert!(report.tenant.is_some(), "descent names its tenant");
            assert!(report.ladder_rung >= 1);
        }
    }

    #[test]
    fn serve_trace_shows_tenant_interleaving() {
        let mut cfg = ServeConfig::quick(2);
        cfg.trace = Some(TraceConfig::default());
        let (sim, s) = serve(cfg);
        let records = sim.system().trace_records();
        let switches = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ServeSwitch { .. }))
            .count() as u64;
        let dispatches = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ServeDispatch { .. }))
            .count() as u64;
        assert_eq!(switches, s.context_switches);
        assert_eq!(dispatches, s.total_requests + s.ladder_descents());
    }

    #[test]
    fn metrics_surface_the_serving_section() {
        let (sim, s) = serve(ServeConfig::quick(4));
        let m = sim.metrics();
        let get = |k: &str| m.get(k).expect(k);
        let _ = get("serve/requests");
        let _ = get("serve/context_switches");
        let _ = get("serve/alpha/latency");
        assert!(s.verified);
    }
}
