//! Shared machinery for running a kernel variant on the simulated SoC and
//! extracting the statistics every figure reports.

use maple_soc::config::SocConfig;
use maple_soc::system::System;
use maple_trace::StallBreakdown;
use maple_vm::VAddr;

/// The latency-tolerance technique under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain do-all parallelism across `threads` cores (the Figure 8/12
    /// baseline; with one thread, the Figure 9 "no prefetching" baseline).
    Doall,
    /// Software-only decoupling through shared-memory ring buffers
    /// (1 Access + 1 Execute thread per pair).
    SwDecoupled,
    /// Decoupling through MAPLE queues (`PRODUCE_PTR`/`CONSUME`).
    MapleDecoupled,
    /// DeSC: coupled architectural queues with terminal loads (requires
    /// the ISA extension and core pairing).
    Desc,
    /// Software prefetching with the given iteration distance.
    SwPrefetch {
        /// Prefetch distance in loop iterations.
        dist: u32,
    },
    /// MAPLE's LIMA operation (non-speculative into queues, or
    /// speculative into the LLC where the kernel's IMA is a
    /// read-modify-write).
    MapleLima,
    /// Do-all with the DROPLET memory-side prefetcher enabled.
    Droplet,
}

impl Variant {
    /// Short label for result tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::Doall => "doall",
            Variant::SwDecoupled => "sw-dec",
            Variant::MapleDecoupled => "maple-dec",
            Variant::Desc => "desc",
            Variant::SwPrefetch { .. } => "sw-pref",
            Variant::MapleLima => "maple-lima",
            Variant::Droplet => "droplet",
        }
    }
}

/// Fault-plane observability rolled into every run's stats: everything
/// the chaos plane injected and everything the recovery machinery did
/// about it. All-zero when no fault plane is installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// NoC packets dropped by the plane.
    pub noc_dropped: u64,
    /// NoC packets given extra delay by the plane.
    pub noc_delayed: u64,
    /// DRAM accesses hit by a latency spike.
    pub dram_spikes: u64,
    /// Engine responses/acks dropped at the source.
    pub acks_dropped: u64,
    /// Engine memory fetches that overran their watchdog.
    pub fetch_timeouts: u64,
    /// Engine memory fetches re-issued after a timeout.
    pub fetch_retries: u64,
    /// Engine fetches abandoned after retry exhaustion (poison).
    pub poisoned_fetches: u64,
    /// Completed MMIO operations replayed from the dedup cache.
    pub replayed_responses: u64,
    /// Core-issued MMIO transactions that overran their watchdog.
    pub mmio_timeouts: u64,
    /// Core-issued MMIO transactions re-injected after a timeout.
    pub mmio_retries: u64,
    /// Scheduled mid-run engine RESETs delivered.
    pub resets_injected: u64,
    /// Randomly-timed TLB shootdowns delivered.
    pub shootdowns_injected: u64,
    /// Engines the driver retired after poisoning.
    pub engines_poisoned: u64,
    /// Which rung of [`fallback_ladder`] this run executed at: 0 is the
    /// requested variant, each degradation adds one. Stamped by
    /// [`run_with_fallback`]/[`continue_fallback`] — the one source of
    /// truth for "which attempt was this", so reports never have to
    /// reverse-engineer it from variant labels.
    pub ladder_rung: u64,
    /// Tenant whose request this run served, when dispatched by the
    /// multi-tenant serving scheduler (`None` for batch runs). A ladder
    /// descent's report therefore names the tenant that triggered it.
    pub tenant: Option<u64>,
}

impl FaultReport {
    /// Total faults the plane injected into this run.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.noc_dropped
            + self.noc_delayed
            + self.dram_spikes
            + self.acks_dropped
            + self.resets_injected
            + self.shootdowns_injected
    }

    /// Total recovery actions taken (retries and replays).
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.fetch_retries + self.mmio_retries + self.replayed_responses
    }
}

/// Per-core diagnostic detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreDetail {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles blocked on memory responses.
    pub mem_stall_cycles: u64,
    /// Load instructions retired.
    pub loads: u64,
}

/// Measured outcome of one kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Total cycles to completion.
    pub cycles: u64,
    /// Load instructions retired across all cores (Figure 10).
    pub loads: u64,
    /// Mean load-to-use latency in cycles (Figure 11).
    pub mean_load_latency: f64,
    /// Whether the simulated result matched the host reference.
    pub verified: bool,
    /// Per-core breakdown (diagnostics).
    pub cores: Vec<CoreDetail>,
    /// Engine-0 counters (diagnostics): memory fetches, produce stalls,
    /// consume stalls, TLB misses.
    pub engine: (u64, u64, u64, u64),
    /// Mean sampled occupancy of engine 0's queue 0 — the Section 4.4
    /// runahead observable.
    pub queue0_occupancy_mean: f64,
    /// Total entries enqueued across every engine queue (push + fill).
    pub queues_produced: u64,
    /// Total entries dequeued across every engine queue.
    pub queues_consumed: u64,
    /// Whether every engine queue was empty when the run finished.
    pub queues_drained: bool,
    /// Mesh packets injected.
    pub noc_injected: u64,
    /// Mesh packets delivered.
    pub noc_delivered: u64,
    /// Whether the run ended in a structured hang diagnosis (watchdog
    /// exhaustion / engine retirement) instead of finishing.
    pub hung: bool,
    /// Fault-plane and recovery counters (all zero without a plane).
    pub faults: FaultReport,
    /// Total core cycles (sum of each core's issue-to-halt span) backing
    /// the stall attribution.
    pub core_cycles: u64,
    /// Aggregate stall attribution across every core: blocking cycles
    /// split by cause, with compute as the remainder (see
    /// `maple-trace`).
    pub stall: StallBreakdown,
}

impl RunStats {
    /// Speedup of this run relative to `baseline`.
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunStats) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }
}

/// Builds the system configuration for a variant/thread-count pair.
#[must_use]
pub fn config_for(variant: Variant, threads: usize) -> SocConfig {
    let mut cfg = SocConfig::fpga_prototype().with_cores(threads.max(2));
    if matches!(variant, Variant::Droplet) {
        cfg = cfg.with_droplet(maple_baselines::droplet::DropletConfig::default());
    }
    cfg
}

/// Rejects a MAPLE-decoupled run of `threads` threads that needs `need`
/// hardware queues when the MAPLE instances its loader maps provide only
/// `have`, so a caller can refuse it before the loader's MMIO encoding
/// panics.
///
/// # Errors
///
/// Returns the rule, prefixed with `kernel` and the variant label, when
/// `need` exceeds `have`.
pub fn check_maple_queues(
    kernel: &str,
    variant: Variant,
    threads: usize,
    need: usize,
    have: usize,
) -> Result<(), String> {
    if need <= have {
        return Ok(());
    }
    Err(format!(
        "{kernel} {}: {threads} threads need {need} MAPLE queues, but the configuration provides {have}",
        variant.label()
    ))
}

/// Uploads a `u32` slice into freshly allocated device memory.
pub fn upload_u32(sys: &mut System, data: &[u32]) -> VAddr {
    let va = sys.alloc((data.len().max(1) * 4) as u64);
    sys.write_slice_u32(va, data);
    va
}

/// Allocates zeroed device memory for `words` u32 values.
pub fn alloc_u32(sys: &mut System, words: usize) -> VAddr {
    sys.alloc((words.max(1) * 4) as u64)
}

/// Finishes a run: checks completion, downloads `out_words` from
/// `out_va`, compares with `expected`, and packages the stats.
pub fn finish(
    sys: &mut System,
    outcome: maple_sim::RunOutcome,
    out_va: VAddr,
    expected: &[u32],
) -> RunStats {
    let finished = outcome.is_finished();
    let got = sys.read_slice_u32(out_va, expected.len());
    let cores = (0..sys.core_count())
        .map(|i| {
            let s = sys.core(i).stats();
            CoreDetail {
                instructions: s.instructions.get(),
                mem_stall_cycles: s.mem_stall_cycles.get(),
                loads: s.loads.get(),
            }
        })
        .collect();
    let e = sys.engine(0).stats();
    // Conservation counters over every engine queue: what went in, what
    // came out, and whether anything was stranded at the end of the run.
    let mut queues_produced = 0u64;
    let mut queues_consumed = 0u64;
    let mut queues_drained = true;
    for ei in 0..sys.config().maples {
        let engine = sys.engine(ei);
        for q in 0..engine.config().queues as u8 {
            let queue = engine.queue(q);
            queues_produced += queue.produced.get();
            queues_consumed += queue.consumed.get();
            queues_drained &= queue.is_empty();
        }
    }
    let mesh = sys.mesh_stats();
    let mut faults = FaultReport {
        noc_dropped: mesh.dropped.get(),
        noc_delayed: mesh.delayed.get(),
        dram_spikes: sys.dram_stats().spikes.get(),
        ..FaultReport::default()
    };
    for ei in 0..sys.config().maples {
        let es = sys.engine(ei).stats();
        faults.acks_dropped += es.acks_dropped.get();
        faults.fetch_timeouts += es.fetch_timeouts.get();
        faults.fetch_retries += es.fetch_retries.get();
        faults.poisoned_fetches += es.poisoned_fetches.get();
        faults.replayed_responses += es.replayed_responses.get();
    }
    if let Some(c) = sys.chaos_stats() {
        faults.mmio_timeouts = c.mmio_timeouts.get();
        faults.mmio_retries = c.mmio_retries.get();
        faults.resets_injected = c.resets_injected.get();
        faults.shootdowns_injected = c.shootdowns_injected.get();
        faults.engines_poisoned = c.engines_poisoned.get();
    }
    let (core_cycles, stall) = sys.stall_total();
    RunStats {
        cycles: outcome.cycle().0,
        loads: sys.total_loads(),
        mean_load_latency: sys.mean_load_latency(),
        verified: finished && got == expected,
        cores,
        engine: (
            e.mem_fetches.get(),
            e.produce_stalls.get(),
            e.consume_stalls.get(),
            sys.engine(0).tlb_misses(),
        ),
        queue0_occupancy_mean: sys.queue_occupancy(0, 0).mean(),
        queues_produced,
        queues_consumed,
        queues_drained,
        noc_injected: mesh.injected.get(),
        noc_delivered: mesh.delivered.get(),
        hung: outcome.diagnosis().is_some(),
        faults,
        core_cycles,
        stall,
    }
}

/// The graceful-degradation ladder for a requested variant: the variant
/// itself, then software decoupling, then plain do-all. Software
/// variants never touch a MAPLE engine, so a run that failed because an
/// instance was poisoned/retired still completes bit-exact on them.
#[must_use]
pub fn fallback_ladder(requested: Variant) -> Vec<Variant> {
    let mut ladder = vec![requested];
    if !matches!(requested, Variant::SwDecoupled | Variant::Doall) {
        ladder.push(Variant::SwDecoupled);
    }
    if requested != Variant::Doall {
        ladder.push(Variant::Doall);
    }
    ladder
}

/// The result of [`run_with_fallback`]: every attempt in ladder order
/// (the last one is the run whose output stands).
#[derive(Debug)]
pub struct FallbackOutcome {
    /// The variant the caller originally asked for.
    pub requested: Variant,
    /// `(variant, stats)` for each attempt, in execution order.
    pub attempts: Vec<(Variant, RunStats)>,
}

impl FallbackOutcome {
    /// The variant whose output stands (last attempted).
    #[must_use]
    pub fn final_variant(&self) -> Variant {
        self.attempts.last().expect("at least one attempt").0
    }

    /// Stats of the run whose output stands.
    #[must_use]
    pub fn final_stats(&self) -> &RunStats {
        &self.attempts.last().expect("at least one attempt").1
    }

    /// Whether the harness had to degrade away from the requested
    /// variant.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1
    }

    /// Whether the standing output matched the host reference.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.final_stats().verified
    }
}

/// Runs `requested` and, when the run hangs or produces unverified
/// output (poisoned engine, lost state after a mid-run reset, …), walks
/// down [`fallback_ladder`] on a fresh system per attempt until a
/// variant verifies. This is the driver-level graceful degradation: a
/// failing MAPLE instance costs performance, never correctness.
///
/// Every attempt's stats are stamped with the ladder rung it executed at
/// ([`FaultReport::ladder_rung`]).
pub fn run_with_fallback(
    requested: Variant,
    threads: usize,
    mut run: impl FnMut(Variant, usize) -> RunStats,
) -> FallbackOutcome {
    continue_fallback(requested, threads, None, &mut run)
}

/// The tail of [`run_with_fallback`] with the first rung's result
/// optionally precomputed — callers that evaluate the requested variant
/// in parallel (e.g. the chaos oracle running it alongside the
/// fault-free baseline) hand that result in as `first` and the ladder
/// continues from rung 1 only if it did not verify.
pub fn continue_fallback(
    requested: Variant,
    threads: usize,
    first: Option<RunStats>,
    run: &mut impl FnMut(Variant, usize) -> RunStats,
) -> FallbackOutcome {
    let mut first = first;
    let mut attempts = Vec::new();
    for (rung, variant) in fallback_ladder(requested).into_iter().enumerate() {
        let mut stats = match (rung, first.take()) {
            (0, Some(precomputed)) => precomputed,
            _ => run(variant, threads),
        };
        stats.faults.ladder_rung = rung as u64;
        let verified = stats.verified;
        attempts.push((variant, stats));
        if verified {
            break;
        }
    }
    FallbackOutcome {
        requested,
        attempts,
    }
}

/// Splits `n` items into `threads` contiguous chunks; returns `(lo, hi)`
/// per thread.
#[must_use]
pub fn partition(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(threads.max(1));
    (0..threads)
        .map(|t| {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            (lo, hi)
        })
        .collect()
}

/// Cycle budget for kernel runs (generous; runs that exceed it are
/// reported unverified rather than hanging the harness).
pub const MAX_CYCLES: u64 = 600_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything() {
        for n in [0usize, 1, 7, 64, 1000] {
            for t in [1usize, 2, 3, 4, 8] {
                let parts = partition(n, t);
                assert_eq!(parts.len(), t);
                let total: usize = parts.iter().map(|(lo, hi)| hi - lo).sum();
                assert_eq!(total, n, "n={n} t={t}");
                // Contiguous and ordered.
                let mut prev = 0;
                for (lo, hi) in parts {
                    assert!(lo <= hi);
                    assert_eq!(lo, prev.min(n));
                    prev = hi;
                }
            }
        }
    }

    #[test]
    fn speedup_computation() {
        let base = RunStats {
            cycles: 1000,
            loads: 0,
            mean_load_latency: 0.0,
            verified: true,
            cores: Vec::new(),
            engine: (0, 0, 0, 0),
            queue0_occupancy_mean: 0.0,
            queues_produced: 0,
            queues_consumed: 0,
            queues_drained: true,
            noc_injected: 0,
            noc_delivered: 0,
            hung: false,
            faults: FaultReport::default(),
            core_cycles: 0,
            stall: Default::default(),
        };
        let fast = RunStats {
            cycles: 500,
            ..base.clone()
        };
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ladder_ends_in_doall_without_duplicates() {
        for requested in [
            Variant::MapleDecoupled,
            Variant::MapleLima,
            Variant::SwDecoupled,
            Variant::Doall,
            Variant::Desc,
        ] {
            let ladder = fallback_ladder(requested);
            assert_eq!(ladder[0], requested);
            assert_eq!(*ladder.last().unwrap(), Variant::Doall);
            let mut dedup = ladder.clone();
            dedup.dedup();
            assert_eq!(dedup, ladder, "no duplicate rungs");
        }
    }

    #[test]
    fn fallback_stops_at_first_verified_variant() {
        let stats = |verified| RunStats {
            cycles: 100,
            loads: 0,
            mean_load_latency: 0.0,
            verified,
            cores: Vec::new(),
            engine: (0, 0, 0, 0),
            queue0_occupancy_mean: 0.0,
            queues_produced: 0,
            queues_consumed: 0,
            queues_drained: true,
            noc_injected: 0,
            noc_delivered: 0,
            hung: !verified,
            faults: FaultReport::default(),
            core_cycles: 0,
            stall: Default::default(),
        };
        // Requested variant succeeds: no degradation.
        let direct = run_with_fallback(Variant::MapleDecoupled, 2, |_, _| stats(true));
        assert!(!direct.degraded() && direct.verified());
        assert_eq!(direct.final_variant(), Variant::MapleDecoupled);
        assert_eq!(direct.final_stats().faults.ladder_rung, 0);
        // Requested variant fails once: degrade exactly one rung.
        let mut calls = 0;
        let degraded = run_with_fallback(Variant::MapleDecoupled, 2, |v, _| {
            calls += 1;
            stats(v != Variant::MapleDecoupled)
        });
        assert!(degraded.degraded() && degraded.verified());
        assert_eq!(degraded.final_variant(), Variant::SwDecoupled);
        assert_eq!(degraded.final_stats().faults.ladder_rung, 1);
        assert_eq!(calls, 2);
        // Nothing verifies: every rung is attempted and recorded, each
        // stamped with its position on the ladder.
        let hopeless = run_with_fallback(Variant::MapleDecoupled, 2, |_, _| stats(false));
        assert!(!hopeless.verified());
        assert_eq!(hopeless.attempts.len(), 3);
        assert_eq!(hopeless.final_variant(), Variant::Doall);
        for (rung, (_, s)) in hopeless.attempts.iter().enumerate() {
            assert_eq!(s.faults.ladder_rung, rung as u64);
        }
    }

    #[test]
    fn continue_fallback_consumes_a_precomputed_first_attempt() {
        let stats = |verified| RunStats {
            cycles: 77,
            loads: 0,
            mean_load_latency: 0.0,
            verified,
            cores: Vec::new(),
            engine: (0, 0, 0, 0),
            queue0_occupancy_mean: 0.0,
            queues_produced: 0,
            queues_consumed: 0,
            queues_drained: true,
            noc_injected: 0,
            noc_delivered: 0,
            hung: false,
            faults: FaultReport::default(),
            core_cycles: 0,
            stall: Default::default(),
        };
        // A verifying precomputed first attempt: `run` is never called.
        let out = continue_fallback(
            Variant::MapleDecoupled,
            2,
            Some(stats(true)),
            &mut |_, _| panic!("rung 0 was precomputed"),
        );
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.final_stats().faults.ladder_rung, 0);
        // A failing first attempt: the ladder continues at rung 1.
        let mut ran = Vec::new();
        let out = continue_fallback(
            Variant::MapleDecoupled,
            2,
            Some(stats(false)),
            &mut |v, _| {
                ran.push(v);
                stats(true)
            },
        );
        assert_eq!(ran, vec![Variant::SwDecoupled]);
        assert_eq!(out.attempts.len(), 2);
        assert_eq!(out.final_stats().faults.ladder_rung, 1);
    }

    #[test]
    fn variant_labels_unique() {
        let labels = [
            Variant::Doall.label(),
            Variant::SwDecoupled.label(),
            Variant::MapleDecoupled.label(),
            Variant::Desc.label(),
            Variant::SwPrefetch { dist: 8 }.label(),
            Variant::MapleLima.label(),
            Variant::Droplet.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
