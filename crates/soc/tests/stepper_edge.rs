//! Scheduler edge cases for the event-horizon stepper: the skipping and
//! dense run loops must stay bit-exact on the paths where skipping is
//! most aggressive — a permanently-stalled system whose horizon is empty
//! (the run jumps straight to the cycle budget), a chaos event landing
//! exactly on a skipped-to cycle or racing in-flight MMIO, MMIO and fill
//! deliveries handed from phase 1 to phase 2 (and applied before a reset
//! landing on the same cycle), occupancy sampling across skipped gaps —
//! and on the sleep contract of the wake sets: a core waiting on a full
//! MMIO store buffer, a shootdown landing on a waiting core, and an
//! engine and an L2 bank that only a delivery wakes. Uncore egress held
//! behind a backpressured injection port and chaos MMIO retries queued
//! from phase 1 must replay exactly too, and a page fault the OS cannot
//! service ends the run as hung under both steppers. Hub-idle cycles —
//! stepped cycles on which the skipping stepper runs only the cores and
//! engines — must end exactly where the dense run says: at a fault
//! service, a halt, the budget, a chaos event or watchdog deadline, an
//! engine poisoning itself, a DeSC pair's first store, and an occupancy
//! sample.

use maple_isa::builder::ProgramBuilder;
use maple_sim::fault::{FaultPlaneConfig, UnserviceableFault};
use maple_sim::RunOutcome;
use maple_soc::compiler;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;

/// A program that consumes from queue 0, which nothing ever produces
/// into: the core parks in `WaitingMem` forever. With no fault plane
/// there is no watchdog, so the system is permanently stalled and the
/// event horizon is empty.
fn load_starved_consumer(sys: &mut System) {
    let maple_va = sys.map_maple(0);
    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let v = b.reg("v");
    let api = MapleApi::new(base);
    api.consume(&mut b, 0, v, 4);
    b.halt();
    sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
}

/// Runs `load` under `cfg` with the skipping stepper and with the dense
/// reference, asserts both agree on the outcome, the metrics JSON and
/// the trace records (empty unless `cfg` traces), and returns the
/// skipping run's outcome and system with what `load` returned.
fn assert_steppers_agree<T>(
    cfg: SocConfig,
    budget: u64,
    load: impl Fn(&mut System) -> T,
) -> (RunOutcome, System, T) {
    assert_steppers_agree_then(cfg, budget, load, |_, _| {})
}

/// [`assert_steppers_agree`], also running `check` on each finished
/// system, for state the metrics JSON does not carry (memory contents).
fn assert_steppers_agree_then<T>(
    cfg: SocConfig,
    budget: u64,
    load: impl Fn(&mut System) -> T,
    check: impl Fn(&mut System, &T),
) -> (RunOutcome, System, T) {
    let run = |cfg: SocConfig| {
        let mut sys = System::new(cfg);
        let loaded = load(&mut sys);
        let out = sys.run(budget);
        check(&mut sys, &loaded);
        (out, sys, loaded)
    };
    let (skip_out, skip_sys, loaded) = run(cfg.clone());
    let (dense_out, dense_sys, _) = run(cfg.with_dense_stepper());
    assert_eq!(skip_out, dense_out, "outcome diverged");
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "metrics diverged"
    );
    assert_eq!(
        skip_sys.trace_records(),
        dense_sys.trace_records(),
        "trace records diverged"
    );
    let dense_work = dense_sys.host_work();
    assert_eq!(
        dense_work.hub, dense_work.stepped,
        "dense runs the hub every cycle"
    );
    assert_eq!(dense_work.skipped, 0, "dense skips nothing");
    (skip_out, skip_sys, loaded)
}

#[test]
fn empty_horizon_hang_is_bit_exact_with_dense() {
    // The skipping loop sees no component with a future event and jumps
    // straight to the cycle budget; the dense loop grinds there one cycle
    // at a time. Outcome, hang diagnosis, and every metric must agree.
    const BUDGET: u64 = 200_000;
    let (out, _, ()) =
        assert_steppers_agree(SocConfig::fpga_prototype(), BUDGET, load_starved_consumer);
    assert!(
        matches!(out, RunOutcome::Hung(_)),
        "starved consumer must hang: {out:?}"
    );
    assert_eq!(out.cycle().0, BUDGET, "hang at budget expiry");
}

#[test]
fn chaos_reset_fires_exactly_at_skipped_to_cycle() {
    // Same starved consumer, but a fault plane schedules an engine RESET
    // at cycle 5000 — deep inside the quiescent gap. The skipping loop
    // must advance exactly TO the injection cycle (chaos events fire when
    // `at <= now`), deliver the reset, and then agree with dense on every
    // downstream effect (watchdog retries, poison, final diagnosis).
    let plane = FaultPlaneConfig::new(7).with_engine_reset_at(5_000, 0);
    let cfg = SocConfig::fpga_prototype().with_fault_plane(plane);
    let (_, sys, ()) = assert_steppers_agree(cfg, 2_000_000, load_starved_consumer);
    assert_eq!(
        sys.chaos_stats()
            .expect("plane installed")
            .resets_injected
            .get(),
        1,
        "the scheduled reset must fire even though cycle 5000 is inside a \
         quiescent gap"
    );
}

/// Loads the MAPLE-decoupled pair kernel over `n` elements: core 0
/// produces through engine 0, core 1 consumes and stores.
fn load_pair(sys: &mut System, n: usize, seed: u64) {
    let mut rng = maple_sim::rng::SimRng::seed(seed);
    let a: Vec<u32> = (0..1024).map(|_| rng.below(1000) as u32).collect();
    let b: Vec<u32> = (0..n).map(|_| rng.below(1024) as u32).collect();
    let c: Vec<u32> = (0..n).map(|_| rng.below(100) as u32).collect();
    let maple_va = sys.map_maple(0);
    let va_a = sys.alloc((a.len() * 4) as u64);
    let va_b = sys.alloc((b.len() * 4) as u64);
    let va_c = sys.alloc((c.len() * 4) as u64);
    let va_r = sys.alloc((b.len() * 4) as u64);
    sys.write_slice_u32(va_a, &a);
    sys.write_slice_u32(va_b, &b);
    sys.write_slice_u32(va_c, &c);
    let pair = compiler::gen_maple_pair(0);
    sys.load_program(
        pair.access,
        &[
            (pair.access_args.a, va_a.0),
            (pair.access_args.b, va_b.0),
            (pair.access_args.n, b.len() as u64),
            (pair.access_maple, maple_va.0),
        ],
    );
    sys.load_program(
        pair.execute,
        &[
            (pair.execute_args.c, va_c.0),
            (pair.execute_args.res, va_r.0),
            (pair.execute_args.n, b.len() as u64),
            (pair.execute_maple, maple_va.0),
        ],
    );
}

/// Runs the pair kernel and returns the outcome plus the finished system
/// (for occupancy/metrics inspection).
fn run_pair(cfg: SocConfig, n: usize, seed: u64) -> (RunOutcome, System) {
    let mut sys = System::new(cfg);
    load_pair(&mut sys, n, seed);
    let out = sys.run(5_000_000);
    (out, sys)
}

#[test]
fn mmio_and_fill_traffic_between_tiles_is_bit_exact() {
    // Core 0 produces into the engine's queue, core 1 consumes from it,
    // and the engine fills from L2: every MMIO produce/consume and every
    // fill reaches its tile as a delivery drained in phase 1 and applied
    // at the top of the same cycle's phase 2, so any off-by-one in that
    // handoff shifts the completion cycle.
    let (out, _, ()) = assert_steppers_agree(SocConfig::fpga_prototype(), 5_000_000, |sys| {
        load_pair(sys, 256, 23)
    });
    assert!(out.is_finished(), "{out:?}");
}

#[test]
fn chaos_reset_racing_another_cores_mmio_is_bit_exact() {
    // The scheduled RESET hits engine 0 while both cores of the pair
    // have MMIO traffic in flight against it: the hub decides the
    // injection in phase 1 and applies it as a command at the top of
    // phase 2, before the cores tick, and every downstream effect
    // (dropped queue state, watchdog retries, poison, diagnosis) must
    // replay exactly as in the dense run.
    let plane = FaultPlaneConfig::new(7).with_engine_reset_at(3_000, 0);
    let cfg = SocConfig::fpga_prototype().with_fault_plane(plane);
    let (_, sys, ()) = assert_steppers_agree(cfg, 2_000_000, |sys| load_pair(sys, 256, 23));
    let chaos = sys.chaos_stats().expect("plane installed");
    assert_eq!(
        chaos.resets_injected.get(),
        1,
        "the reset must fire mid-run"
    );
}

#[test]
fn fill_delivered_on_a_reset_cycle_reaches_the_engine_before_the_reset() {
    // Phase 2 applies the cycle's deliveries before its hub commands. A
    // fill reaching engine 0 on the cycle a scheduled RESET lands is
    // therefore consumed (and traced) by the engine that issued it, and
    // only then wiped with the rest of its state. Applying the reset
    // first would hand the fill to a fresh engine, which drops it as a
    // stale response without tracing it.
    let traced = || SocConfig::fpga_prototype().with_tracing(maple_trace::TraceConfig::default());
    let is_fill = |r: &maple_trace::TraceRecord| {
        matches!(r.event, maple_trace::TraceEvent::EngineFetchFill { .. })
    };
    let (_, clean) = run_pair(traced(), 64, 23);
    let fill_at = clean
        .trace_records()
        .into_iter()
        .find(is_fill)
        .expect("the engine fetches from L2")
        .ts;
    let plane = FaultPlaneConfig::new(7).with_engine_reset_at(fill_at.0, 0);
    let (_, sys, ()) = assert_steppers_agree(traced().with_fault_plane(plane), 2_000_000, |sys| {
        load_pair(sys, 64, 23)
    });
    let chaos = sys.chaos_stats().expect("plane installed");
    assert_eq!(chaos.resets_injected.get(), 1, "the reset fired");
    let up_to_reset = |sys: &System| -> Vec<_> {
        sys.trace_records()
            .into_iter()
            .filter(|r| r.ts <= fill_at && is_fill(r))
            .collect()
    };
    assert_eq!(
        up_to_reset(&sys),
        up_to_reset(&clean),
        "every fill up to and including the reset cycle reached the engine"
    );
}

#[test]
fn occupancy_samples_identical_under_skipping() {
    // Occupancy sampling is a scheduled event in the skipping loop (the
    // next multiple of OCCUPANCY_SAMPLE_PERIOD is a horizon term), so the
    // sampled cycles — and therefore the histograms — must be identical
    // to the dense loop's modulo check. The metrics snapshot carries the
    // per-queue occupancy histograms, so byte-identical JSON proves it.
    let (skip_out, skip_sys) = run_pair(SocConfig::fpga_prototype(), 256, 11);
    let (dense_out, dense_sys) =
        run_pair(SocConfig::fpga_prototype().with_dense_stepper(), 256, 11);
    assert!(skip_out.is_finished(), "{skip_out:?}");
    assert_eq!(skip_out, dense_out, "completion cycle diverged");
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "occupancy samples (or other metrics) diverged under skipping"
    );
}

/// Number of values the producer pushes: far more than queue 0 and the
/// 8-deep MMIO store buffer hold, so the producer spends most of the run
/// waiting for acks.
const FLOOD: u64 = 400;

/// Core 0 floods queue 0 with `FLOOD` produces; core 1 first walks
/// `lines` cold cache lines (each load a DRAM round trip, during which
/// the mesh goes quiet and the run skips), then consumes every value and
/// stores their sum. Returns the VA of the sum.
fn load_flood(sys: &mut System, lines: u64) -> maple_vm::VAddr {
    let maple_va = sys.map_maple(0);
    let cold = sys.alloc(lines * 64);
    let out = sys.alloc(8);

    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let i = b.reg("i");
    let api = MapleApi::new(base);
    b.li(i, 0);
    let top = b.here("produce");
    api.produce(&mut b, 0, i);
    b.addi(i, i, 1);
    b.blt(i, FLOOD as i64, top);
    b.halt();
    sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);

    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let ptr = b.reg("ptr");
    let res = b.reg("res");
    let j = b.reg("j");
    let v = b.reg("v");
    let t = b.reg("t");
    let sum = b.reg("sum");
    let api = MapleApi::new(base);
    b.li(j, 0);
    let walk = b.here("walk");
    b.ld(t, ptr, 0, 8);
    b.addi(ptr, ptr, 64);
    b.addi(j, j, 1);
    b.blt(j, lines as i64, walk);
    b.li(j, 0);
    let drain = b.here("drain");
    api.consume(&mut b, 0, v, 4);
    b.add(sum, sum, v);
    b.addi(j, j, 1);
    b.blt(j, FLOOD as i64, drain);
    b.st(sum, res, 0, 8);
    b.halt();
    sys.load_program(
        b.build().unwrap(),
        &[(base, maple_va.0), (ptr, cold.0), (res, out.0)],
    );
    out
}

/// Runs `load_flood` under `cfg` and the dense reference, and asserts
/// both agree on the outcome, the consumed sum, every metric and both
/// cores' TLB state (hit counts and LRU stamps, which the MMIO wait
/// accounts in bulk). Returns the skipping run's outcome, sum and system.
fn assert_flood_bit_exact(cfg: SocConfig, lines: u64) -> (RunOutcome, Option<u64>, System) {
    let run = |cfg: SocConfig| {
        let mut sys = System::new(cfg);
        let out = load_flood(&mut sys, lines);
        let outcome = sys.run(5_000_000);
        let sum = outcome.is_finished().then(|| sys.read_u64(out));
        (outcome, sum, sys)
    };
    let (skip_out, skip_sum, skip_sys) = run(cfg.clone());
    let (dense_out, dense_sum, dense_sys) = run(cfg.with_dense_stepper());
    assert_eq!(skip_out, dense_out, "outcome diverged");
    assert_eq!(skip_sum, dense_sum, "consumed sum diverged");
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "metrics diverged"
    );
    for c in 0..2 {
        assert_eq!(
            format!("{:?}", skip_sys.core(c).tlb()),
            format!("{:?}", dense_sys.core(c).tlb()),
            "core {c} TLB state diverged"
        );
    }
    (skip_out, skip_sum, skip_sys)
}

#[test]
fn mmio_wait_across_skipped_gaps_is_bit_exact() {
    // The producer fills the store buffer with unacked produces long
    // before the consumer drains anything: it sleeps until an ack
    // arrives, while the consumer's DRAM walk lets the run skip whole
    // gaps. Each slept cycle must still count one interpreted tick, one
    // MMIO stall cycle and one TLB hit, exactly as a retry would.
    let (out, sum, sys) = assert_flood_bit_exact(SocConfig::fpga_prototype(), 48);
    assert!(out.is_finished(), "{out:?}");
    assert_eq!(sum, Some((0..FLOOD).sum()), "every produced value consumed");
    let producer = sys.core(0).stats();
    assert!(
        producer.stall.mmio > 10_000,
        "the producer must spend the run waiting on acks: {:?}",
        producer.stall
    );
    assert!(
        producer.interpreted_ticks.get() > producer.instructions.get() + 10_000,
        "waiting cycles count as interpreted retries"
    );
}

#[test]
fn shootdowns_landing_on_a_waiting_core_are_bit_exact() {
    // TLB shootdowns wake every core and engine: a core waiting on a full
    // store buffer must catch up its retries (including the TLB hits on
    // its MMIO page) before the shootdown touches its TLB.
    let plane = FaultPlaneConfig::new(5).with_tlb_shootdowns(24, 30_000);
    let cfg = SocConfig::fpga_prototype().with_fault_plane(plane);
    let (_, _, sys) = assert_flood_bit_exact(cfg, 48);
    let chaos = sys.chaos_stats().expect("plane installed");
    assert!(chaos.shootdowns_injected.get() > 0, "shootdowns must land");
}

#[test]
fn engine_and_bank_woken_only_by_deliveries_are_bit_exact() {
    // One core on a 4-cluster fabric (four L2 banks, four engines) loads
    // from a line in each bank, idles through a compute loop, then
    // round-trips a value through engine 0. After the first cycle every
    // bank and engine has nothing due: each one that acts afterwards is
    // woken by a delivery alone, and the untouched ones sleep throughout.
    let load = |sys: &mut System| {
        let maple_va = sys.map_maple(0);
        let data = sys.alloc(4 * 64);
        let out = sys.alloc(8);
        sys.write_u64(data, 41);
        let mut b = ProgramBuilder::new();
        let base = b.reg("maple");
        let ptr = b.reg("ptr");
        let res = b.reg("res");
        let t = b.reg("t");
        let v = b.reg("v");
        let i = b.reg("i");
        let api = MapleApi::new(base);
        for line in 0..4 {
            b.ld(t, ptr, line * 64, 8);
        }
        b.ld(t, ptr, 0, 8);
        b.li(i, 0);
        let idle = b.here("idle");
        b.addi(i, i, 1);
        b.blt(i, 500, idle);
        b.addi(t, t, 1);
        api.produce(&mut b, 0, t);
        api.consume(&mut b, 0, v, 4);
        b.st(v, res, 0, 8);
        b.halt();
        sys.load_program(
            b.build().unwrap(),
            &[(base, maple_va.0), (ptr, data.0), (res, out.0)],
        );
        out
    };
    let cfg = SocConfig::fpga_prototype()
        .with_maples(4)
        .with_clusters(maple_soc::ClusterConfig::new(16, 2, 2));
    let (out, sys, _) = assert_steppers_agree_then(cfg, 1_000_000, load, |sys, &res| {
        assert_eq!(sys.read_u64(res), 42, "the value made the round trip");
    });
    assert!(out.is_finished(), "{out:?}");
    assert_eq!(sys.l2_bank_count(), 4);
}

#[test]
fn backpressured_egress_and_phase1_mmio_retries_are_bit_exact() {
    // The fault plane delays a fifth of the fault-eligible packets (the
    // engine's traffic) by 60 cycles. A delayed packet at the head of the engine tile's
    // injection queue blocks everything behind it, so the engine's fetch
    // burst fills the queue and later sends wait in the uncore egress as
    // backpressured retries. Dropped consume requests time out, and the
    // MMIO watchdog re-queues them from phase 1. DRAM round trips leave
    // the mesh quiet, so the skipping run jumps gaps in between, with
    // sends still waiting out their uncore latency.
    let plane = || {
        FaultPlaneConfig::new(3)
            .with_noc_delay(0.2, 60)
            .with_noc_drop(0.05)
    };
    let (skip_out, skip_sys) = run_pair(
        SocConfig::fpga_prototype().with_fault_plane(plane()),
        512,
        5,
    );
    let (dense_out, dense_sys) = run_pair(
        SocConfig::fpga_prototype()
            .with_fault_plane(plane())
            .with_dense_stepper(),
        512,
        5,
    );
    assert_eq!(skip_out, dense_out, "outcome diverged");
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "metrics diverged"
    );
    let chaos = skip_sys.chaos_stats().expect("plane installed");
    assert!(
        chaos.mmio_retries.get() > 0,
        "the watchdog must re-queue MMIO"
    );
    assert!(
        skip_sys.mesh_stats().delayed.get() > 0,
        "packets must be held"
    );
}

#[test]
fn unserviceable_fault_without_chaos_ends_hung_under_both_steppers() {
    // A load 64 pages past a one-page lazy region faults at an address
    // no lazy region covers. With the fault plane off, the run ends hung
    // rather than panicking, and the diagnosis names the faulted core,
    // identically under both steppers.
    const BUDGET: u64 = 1_000_000;
    let (out, _, vaddr) = assert_steppers_agree(SocConfig::fpga_prototype(), BUDGET, |sys| {
        let lazy = sys.alloc_lazy(4096);
        let mut b = ProgramBuilder::new();
        let ptr = b.reg("ptr");
        let t = b.reg("t");
        b.ld(t, ptr, 64 * 4096, 8);
        b.halt();
        sys.load_program(b.build().unwrap(), &[(ptr, lazy.0)]);
        lazy.0 + 64 * 4096
    });
    let d = out
        .diagnosis()
        .expect("an unserviceable fault ends the run hung");
    assert!(d.at.0 < BUDGET, "the run ends at the fault, not the budget");
    assert_eq!(
        d.unserviceable,
        Some(UnserviceableFault {
            component: "core",
            index: 0,
            vaddr,
        })
    );
    assert_eq!(d.cores[0].state, "faulted");
    assert!(
        d.to_string().contains(&format!(
            "core 0 faulted outside any lazy region at va:{vaddr:#x}"
        )),
        "{d}"
    );
}

/// A core that counts to `iters` in a loop of `body` `addi`s, the
/// counter's `addi` and a branch, touching no memory; `iters = 0`
/// loops forever.
fn load_compute_loop(sys: &mut System, iters: i64, body: usize) {
    let mut b = ProgramBuilder::new();
    let i = b.reg("i");
    let x = b.reg("x");
    b.li(i, 0);
    let top = b.here("loop");
    for _ in 0..body {
        b.addi(x, x, 1);
    }
    b.addi(i, i, 1);
    if iters > 0 {
        b.blt(i, iters, top);
    } else {
        b.jump(top);
    }
    b.halt();
    sys.load_program(b.build().unwrap(), &[]);
}

#[test]
fn fault_services_ending_hub_idle_windows_are_bit_exact() {
    // Core 0 loads from three demand-paged pages, one after another;
    // each fault is dispatched in a phase 3 and serviced 1,200 cycles
    // later. Core 1 computes throughout, so the cycles between a
    // dispatch and its service are hub-idle, and each service must
    // still land on the dense run's cycle.
    let cfg = SocConfig::fpga_prototype();
    let (out, sys, ()) = assert_steppers_agree(cfg, 1_000_000, |sys| {
        let lazy = sys.alloc_lazy(3 * 4096);
        let mut b = ProgramBuilder::new();
        let ptr = b.reg("ptr");
        let t = b.reg("t");
        for page in 0..3 {
            b.ld(t, ptr, page * 4096, 8);
        }
        b.halt();
        sys.load_program(b.build().unwrap(), &[(ptr, lazy.0)]);
        load_compute_loop(sys, 2_000, 12);
    });
    assert!(out.is_finished(), "{out:?}");
    assert!(
        out.cycle().0 > 3 * 1_200,
        "the loads wait out three fault services"
    );
    let work = sys.host_work();
    assert!(
        work.hub < work.stepped,
        "hub-idle cycles occurred: {work:?}"
    );
}

#[test]
fn cores_halting_on_hub_idle_cycles_finish_on_the_dense_cycle() {
    // Two compute-only cores halt while the uncore is idle: the run must
    // finish on the cycle the dense loop finishes on.
    let (out, sys, ()) = assert_steppers_agree(SocConfig::fpga_prototype(), 1_000_000, |sys| {
        load_compute_loop(sys, 300, 3);
        load_compute_loop(sys, 700, 5);
    });
    assert!(out.is_finished(), "{out:?}");
    let work = sys.host_work();
    assert!(
        work.hub * 10 < work.stepped,
        "almost every stepped cycle is hub-idle: {work:?}"
    );
}

#[test]
fn budget_expiring_inside_a_hub_idle_window_is_bit_exact() {
    // A core that computes forever: the budget runs out in the middle of
    // a hub-idle window, and the hang diagnosis must be the dense one.
    const BUDGET: u64 = 10_007;
    let (out, _, ()) = assert_steppers_agree(SocConfig::fpga_prototype(), BUDGET, |sys| {
        load_compute_loop(sys, 0, 4)
    });
    let d = out.diagnosis().expect("the budget ends the run hung");
    assert_eq!(d.at.0, BUDGET, "the run stops at the budget");
}

#[test]
fn chaos_reset_and_watchdog_deadline_inside_hub_idle_windows_are_bit_exact() {
    // Core 0 waits on a consume nothing produces, under an MMIO watchdog;
    // core 1 computes, so the stretches between watchdog deadlines and
    // the scheduled engine RESET are hub-idle. Each event must still
    // fire on its own cycle, traced identically to the dense run.
    let plane = || FaultPlaneConfig {
        engine_watchdog: maple_sim::fault::WatchdogConfig::default(),
        mmio_watchdog: maple_sim::fault::WatchdogConfig {
            timeout: 2_500,
            max_retries: 2,
        },
        ..FaultPlaneConfig::new(9).with_engine_reset_at(5_003, 0)
    };
    let cfg = SocConfig::fpga_prototype()
        .with_fault_plane(plane())
        .with_tracing(maple_trace::TraceConfig::default());
    let (_, sys, ()) = assert_steppers_agree(cfg, 200_000, |sys| {
        load_starved_consumer(sys);
        load_compute_loop(sys, 3_000, 6);
    });
    let chaos = sys.chaos_stats().expect("plane installed");
    assert_eq!(chaos.resets_injected.get(), 1, "the reset fired");
    assert!(chaos.mmio_timeouts.get() > 0, "watchdog deadlines fired");
    assert!(!sys.trace_records().is_empty(), "the run was traced");
}

#[test]
fn desc_pair_trading_before_its_first_store_is_bit_exact() {
    // A DeSC pair hands 3,000 values through a coupled queue; nothing
    // leaves either tile until the execute core stores the sum, so the
    // whole trade runs on hub-idle cycles.
    const N: i64 = 3_000;
    let (out, mut sys, res) =
        assert_steppers_agree(SocConfig::fpga_prototype(), 1_000_000, |sys| {
            let res = sys.alloc(8);
            let mut b = ProgramBuilder::new();
            let i = b.reg("i");
            b.li(i, 0);
            let top = b.here("supply");
            b.desc_produce(0, i);
            b.addi(i, i, 1);
            b.blt(i, N, top);
            b.halt();
            let access = sys.load_program(b.build().unwrap(), &[]);
            let mut b = ProgramBuilder::new();
            let j = b.reg("j");
            let v = b.reg("v");
            let sum = b.reg("sum");
            let out = b.reg("out");
            b.li(j, 0);
            let top = b.here("compute");
            b.desc_consume(v, 0);
            b.add(sum, sum, v);
            b.addi(j, j, 1);
            b.blt(j, N, top);
            b.st(sum, out, 0, 8);
            b.halt();
            let execute = sys.load_program(b.build().unwrap(), &[(out, res.0)]);
            sys.pair_desc(access, execute, 1);
            res
        });
    assert!(out.is_finished(), "{out:?}");
    assert_eq!(sys.read_u64(res), (0..N as u64).sum());
}

#[test]
fn occupancy_samples_inside_hub_idle_windows_are_bit_exact() {
    // Core 0 fills engine queue 0, computes for a while and then drains
    // it: every occupancy sample during the compute loop falls inside a
    // hub-idle window, where phase 2 samples on its own.
    const K: i64 = 6;
    let (out, sys, ()) = assert_steppers_agree(SocConfig::fpga_prototype(), 1_000_000, |sys| {
        let maple_va = sys.map_maple(0);
        let mut b = ProgramBuilder::new();
        let base = b.reg("maple");
        let i = b.reg("i");
        let x = b.reg("x");
        let v = b.reg("v");
        let api = MapleApi::new(base);
        b.li(i, 0);
        let fill = b.here("fill");
        api.produce(&mut b, 0, i);
        b.addi(i, i, 1);
        b.blt(i, K, fill);
        b.li(i, 0);
        let idle = b.here("idle");
        b.addi(x, x, 1);
        b.addi(i, i, 1);
        b.blt(i, 2_000, idle);
        b.li(i, 0);
        let drain = b.here("drain");
        api.consume(&mut b, 0, v, 4);
        b.addi(i, i, 1);
        b.blt(i, K, drain);
        b.halt();
        sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
    });
    assert!(out.is_finished(), "{out:?}");
    let occupancy = sys.queue_occupancy(0, 0);
    assert!(occupancy.count() > 50, "sampled throughout the run");
    assert_eq!(
        occupancy.max(),
        Some(K as u64),
        "sampled while the queue was full"
    );
}

#[test]
fn host_work_counts_hub_cycles_exactly() {
    // A compute-bound core runs the hub on one stepped cycle, the first.
    // A core storing to 64 lines back to back keeps a packet in the mesh
    // or a send in the uncore on every cycle it is stepped, so the hub
    // runs on all of them but one: the page-table walk's L1 hit before
    // the first store leaves. Under the dense stepper the hub runs on
    // every cycle and nothing is skipped. The tick counters follow: the
    // skipping run ticks the idle engine and banks only on the first
    // cycle (and the banks while the stores drain); the dense run ticks
    // every core, engine and bank on every cycle.
    use maple_soc::HostWork;
    let run = |cfg: SocConfig, load: &dyn Fn(&mut System)| {
        let mut sys = System::new(cfg);
        load(&mut sys);
        assert!(sys.run(1_000_000).is_finished());
        sys.host_work()
    };
    let compute = |sys: &mut System| load_compute_loop(sys, 1_000, 6);
    let stream = |sys: &mut System| {
        let lines = sys.alloc(64 * 64);
        let mut b = ProgramBuilder::new();
        let ptr = b.reg("ptr");
        let t = b.reg("t");
        for line in 0..64 {
            b.st(t, ptr, line * 64, 8);
        }
        b.halt();
        sys.load_program(b.build().unwrap(), &[(ptr, lines.0)]);
    };
    let skipping = SocConfig::fpga_prototype();
    let dense = SocConfig::fpga_prototype().with_dense_stepper();
    let work = |stepped, hub, skipped, (core_ticks, engine_ticks, bank_ticks)| HostWork {
        stepped,
        hub,
        skipped,
        core_ticks,
        engine_ticks,
        bank_ticks,
    };
    assert_eq!(
        run(skipping.clone(), &compute),
        work(8_017, 1, 984, (8_002, 1, 1))
    );
    assert_eq!(
        run(dense.clone(), &compute),
        work(9_001, 9_001, 0, (9_001, 9_001, 9_001))
    );
    assert_eq!(run(skipping, &stream), work(67, 66, 88, (66, 1, 14)));
    assert_eq!(run(dense, &stream), work(155, 155, 0, (155, 155, 155)));
}

#[test]
fn engine_poisoned_on_a_hub_idle_cycle_is_retired_on_the_dense_cycle() {
    // Every engine fetch is dropped, so the engine's watchdog gives up
    // and poisons it on a tick that emits nothing, while the hub has no
    // event due. Phase 2 must still report that tick as busy: the chaos
    // scan has to run on the next cycle, as under the dense stepper, or
    // the skipping run retires the engine (and ends) one cycle late.
    let plane = FaultPlaneConfig::new(3).with_noc_drop(1.0);
    let cfg = SocConfig::fpga_prototype().with_fault_plane(plane);
    let (out, sys, ()) = assert_steppers_agree(cfg, 2_000_000, |sys| load_pair(sys, 16, 5));
    assert!(matches!(out, RunOutcome::Hung(_)), "{out:?}");
    let chaos = sys.chaos_stats().expect("plane installed");
    assert_eq!(
        chaos.engines_poisoned.get(),
        1,
        "the engine must be retired"
    );
}
