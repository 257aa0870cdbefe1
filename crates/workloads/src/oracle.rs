//! Differential oracle over the kernel zoo: every latency-tolerance
//! variant must compute bit-identical results to the scalar host
//! reference, and every run must satisfy hardware conservation laws the
//! paper establishes with RTL formal verification — here checked at the
//! model level on randomized instances.
//!
//! The oracle is kernel-agnostic: callers hand it a closure that runs one
//! `(variant, threads)` pair on a fixed problem instance (see
//! `tests/diff_oracle.rs` for the randomized drivers).

use crate::harness::{continue_fallback, FallbackOutcome, RunStats, Variant};
use maple_sim::fault::FaultPlaneConfig;
use maple_sim::par::{jobs_from_env, par_map};

/// The variant/thread-count grid the oracle exercises on every instance.
pub const ORACLE_VARIANTS: [(Variant, usize); 5] = [
    (Variant::Doall, 2),
    (Variant::SwDecoupled, 2),
    (Variant::MapleDecoupled, 2),
    (Variant::Desc, 2),
    (Variant::Droplet, 2),
];

/// Lenient sanity bound: no variant may take more than this many times
/// the do-all cycles on the same instance (decoupling has per-run setup
/// overhead, so tiny instances legitimately run slower than do-all — but
/// never by orders of magnitude).
pub const MAX_SLOWDOWN: u64 = 8;

/// Fixed cycle allowance added on top of [`MAX_SLOWDOWN`], covering
/// instance-independent startup cost (queue configuration, pairing,
/// engine mapping) that dominates on near-empty instances.
pub const SLOWDOWN_SLACK: u64 = 500_000;

/// Per-run invariants: the result matched the host reference and the
/// hardware conservation laws held.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_run(label: &str, s: &RunStats) -> Result<(), String> {
    if !s.verified {
        return Err(format!("{label}: result diverged from host reference (or run did not finish in {} cycles)", s.cycles));
    }
    // Queue conservation: every entry that went into an engine queue must
    // have come out — a drained queue with produced != consumed means an
    // enqueue was lost or a dequeue was duplicated.
    if s.queues_drained && s.queues_produced != s.queues_consumed {
        return Err(format!(
            "{label}: queue conservation violated: produced {} != consumed {} with all queues drained",
            s.queues_produced, s.queues_consumed
        ));
    }
    if !s.queues_drained {
        return Err(format!(
            "{label}: engine queues not drained at end of run ({} produced, {} consumed)",
            s.queues_produced, s.queues_consumed
        ));
    }
    // NoC flit accounting: the mesh cannot deliver packets it never saw.
    if s.noc_delivered > s.noc_injected {
        return Err(format!(
            "{label}: NoC delivered {} packets but only {} were injected",
            s.noc_delivered, s.noc_injected
        ));
    }
    Ok(())
}

/// Cross-variant invariant: `other` may be slower than do-all on the same
/// instance, but only within [`MAX_SLOWDOWN`] (plus fixed slack).
///
/// # Errors
///
/// Returns a description of the violation.
pub fn check_cross(doall: &RunStats, label: &str, other: &RunStats) -> Result<(), String> {
    let bound = doall
        .cycles
        .saturating_mul(MAX_SLOWDOWN)
        .saturating_add(SLOWDOWN_SLACK);
    if other.cycles > bound {
        return Err(format!(
            "{label}: {} cycles exceeds sanity bound {} ({}x do-all's {} cycles + slack)",
            other.cycles, bound, MAX_SLOWDOWN, doall.cycles
        ));
    }
    Ok(())
}

/// Runs the full variant grid on one instance and checks every per-run
/// and cross-variant invariant.
///
/// The grid cells are independent simulations, so they run as one
/// [`par_map`] (worker count from `MAPLE_JOBS`); it returns stats in
/// grid order, so the check sequence — and therefore which violation is
/// reported first — is identical at every worker count.
///
/// # Errors
///
/// Returns the kernel name, the offending variant and the violated
/// invariant.
pub fn differential_check(
    kernel: &str,
    run: impl Fn(Variant, usize) -> RunStats + Sync,
) -> Result<(), String> {
    debug_assert!(matches!(ORACLE_VARIANTS[0].0, Variant::Doall));
    let grid = par_map(jobs_from_env(), &ORACLE_VARIANTS, |&(variant, threads)| {
        run(variant, threads)
    })
    .map_err(|(i, e)| format!("{kernel}/{}: {e}", ORACLE_VARIANTS[i].0.label()))?;
    let doall = &grid[0];
    check_run(&format!("{kernel}/{}", ORACLE_VARIANTS[0].0.label()), doall)?;
    for (&(variant, _), stats) in ORACLE_VARIANTS[1..].iter().zip(&grid[1..]) {
        let label = format!("{kernel}/{}", variant.label());
        check_run(&label, stats)?;
        check_cross(doall, &label, stats)?;
    }
    Ok(())
}

// --- chaos oracle ----------------------------------------------------------

/// A named fault schedule for the chaos grid.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Stable name for reporting and seed-replay command lines.
    pub name: &'static str,
    /// The fault plane to install for the MAPLE attempt.
    pub plane: FaultPlaneConfig,
    /// Whether the schedule is deliberately unrecoverable: the MAPLE
    /// attempt MUST fail structurally (hang diagnosis / poisoned engine)
    /// and the harness MUST degrade to a software variant.
    pub must_degrade: bool,
}

/// Extra cycle slack allowed for chaos runs on top of
/// [`MAX_SLOWDOWN`] × do-all: every watchdog timeout stalls the victim
/// for up to `timeout << retries` cycles, which has nothing to do with
/// instance size.
pub const CHAOS_SLOWDOWN_SLACK: u64 = 4_000_000;

/// The named fault schedules of the chaos grid, derived deterministically
/// from `seed` (same seed → bit-identical fault timing, replayable from
/// the failure report).
#[must_use]
pub fn chaos_schedules(seed: u64) -> Vec<ChaosSchedule> {
    vec![
        ChaosSchedule {
            name: "lossy-noc",
            plane: FaultPlaneConfig::new(seed ^ 0x01)
                .with_noc_drop(0.02)
                .with_noc_delay(0.02, 200),
            must_degrade: false,
        },
        ChaosSchedule {
            name: "dram-storm",
            plane: FaultPlaneConfig::new(seed ^ 0x02)
                .with_dram_spikes(0.05, 400)
                .with_tlb_shootdowns(2, 40_000),
            must_degrade: false,
        },
        ChaosSchedule {
            name: "reset-midrun",
            plane: FaultPlaneConfig::new(seed ^ 0x03)
                .with_engine_reset_at(5_000, 0)
                .with_mmio_ack_loss(0.02),
            must_degrade: false,
        },
        ChaosSchedule {
            name: "ack-blackout",
            plane: FaultPlaneConfig::new(seed ^ 0x04).with_mmio_ack_loss(1.0),
            must_degrade: true,
        },
    ]
}

/// Runs one kernel under one fault schedule through the graceful-
/// degradation ladder and checks the chaos invariants: the standing
/// result is bit-exact (directly or via a recorded degradation), every
/// injected fault and recovery action is visible in counters, failure is
/// structural (diagnosis/poison, never a silent wrong answer), and the
/// slowdown is bounded.
///
/// `run(variant, threads, plane)` must execute one run on a FRESH system,
/// installing `plane` when given (the chaos plane is only handed to the
/// originally requested variant; degraded software attempts run clean,
/// as the driver has already retired the faulty instance).
///
/// # Errors
///
/// Returns the kernel name, schedule and the violated invariant.
pub fn chaos_check(
    kernel: &str,
    schedule: &ChaosSchedule,
    run: impl Fn(Variant, usize, Option<&FaultPlaneConfig>) -> RunStats + Sync,
) -> Result<(), String> {
    let label = format!("{kernel}/{}", schedule.name);
    // The clean do-all baseline and the faulted MAPLE attempt are
    // independent runs on fresh systems: map them in parallel, then walk
    // the rest of the degradation ladder serially (each further rung
    // depends on the previous one failing).
    let first_two = [
        ("doall-baseline", Variant::Doall, None),
        ("maple", Variant::MapleDecoupled, Some(&schedule.plane)),
    ];
    let mut pair = par_map(jobs_from_env(), &first_two, |&(_, v, plane)| {
        run(v, 2, plane)
    })
    .map_err(|(i, e)| format!("{label}/{}: {e}", first_two[i].0))?;
    let maple_first = pair.pop().expect("two runs");
    let doall = pair.pop().expect("two runs");
    check_run(&format!("{label}/doall-baseline"), &doall)?;

    // Degraded software attempts run clean: the driver has already
    // retired the faulty instance.
    let outcome: FallbackOutcome = continue_fallback(
        Variant::MapleDecoupled,
        2,
        Some(maple_first),
        &mut |v, t| run(v, t, None),
    );

    // Invariant 1: no silent wrong answers — the standing output is
    // bit-exact, whether the MAPLE run recovered or the harness degraded.
    if !outcome.verified() {
        return Err(format!(
            "{label}: no variant produced a verified result (attempts: {:?})",
            outcome
                .attempts
                .iter()
                .map(|(v, s)| (v.label(), s.verified, s.hung))
                .collect::<Vec<_>>()
        ));
    }
    let (_, maple) = &outcome.attempts[0];

    // Invariant 2: the schedule actually struck, and every strike is
    // visible in counters.
    if maple.faults.injected() == 0 {
        return Err(format!(
            "{label}: fault schedule never struck ({:?})",
            maple.faults
        ));
    }

    // Invariant 3: failure is never silent. A MAPLE attempt that did not
    // verify must leave evidence: a structured hang diagnosis, a
    // poisoned engine, or injected-fault counters explaining the
    // divergence (e.g. a mid-run reset that lost queue state). Combined
    // with invariant 1, wrong data can never stand.
    if !maple.verified
        && !maple.hung
        && maple.faults.engines_poisoned == 0
        && maple.faults.resets_injected == 0
    {
        return Err(format!(
            "{label}: MAPLE attempt failed without a diagnosis, poison or reset to explain it \
             ({:?})",
            maple.faults
        ));
    }

    // Invariant 4: deliberately unrecoverable schedules degrade.
    if schedule.must_degrade {
        if maple.verified {
            return Err(format!(
                "{label}: schedule is unrecoverable by construction but the MAPLE run verified"
            ));
        }
        if !maple.hung || maple.faults.engines_poisoned == 0 {
            return Err(format!(
                "{label}: unrecoverable schedule must end in a hang diagnosis with a poisoned \
                 engine (hung={}, poisoned={})",
                maple.hung, maple.faults.engines_poisoned
            ));
        }
        if !outcome.degraded() {
            return Err(format!("{label}: harness did not degrade"));
        }
    }

    // Invariant 5: a recovered (non-degraded) run also satisfies the
    // conservation laws, and its slowdown over do-all is bounded.
    let fin = outcome.final_stats();
    if !outcome.degraded() {
        check_run(&label, fin)?;
    }
    let bound = doall
        .cycles
        .saturating_mul(MAX_SLOWDOWN)
        .saturating_add(CHAOS_SLOWDOWN_SLACK);
    if fin.cycles > bound {
        return Err(format!(
            "{label}: {} cycles exceeds chaos sanity bound {}",
            fin.cycles, bound
        ));
    }
    // NoC accounting holds even for failed attempts.
    if maple.noc_delivered > maple.noc_injected {
        return Err(format!(
            "{label}: NoC delivered {} packets but only {} were injected",
            maple.noc_delivered, maple.noc_injected
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_stats() -> RunStats {
        RunStats {
            cycles: 1000,
            loads: 10,
            mean_load_latency: 5.0,
            verified: true,
            cores: Vec::new(),
            engine: (0, 0, 0, 0),
            queue0_occupancy_mean: 0.0,
            queues_produced: 42,
            queues_consumed: 42,
            queues_drained: true,
            noc_injected: 100,
            noc_delivered: 100,
            hung: false,
            faults: crate::harness::FaultReport::default(),
            core_cycles: 0,
            stall: Default::default(),
        }
    }

    #[test]
    fn clean_stats_pass() {
        assert!(check_run("t", &ok_stats()).is_ok());
    }

    #[test]
    fn unverified_run_is_flagged() {
        let s = RunStats {
            verified: false,
            ..ok_stats()
        };
        assert!(check_run("t", &s).unwrap_err().contains("diverged"));
    }

    #[test]
    fn queue_conservation_violation_is_flagged() {
        let s = RunStats {
            queues_consumed: 41,
            ..ok_stats()
        };
        assert!(check_run("t", &s).unwrap_err().contains("conservation"));
    }

    #[test]
    fn stranded_queue_entries_are_flagged() {
        let s = RunStats {
            queues_drained: false,
            ..ok_stats()
        };
        assert!(check_run("t", &s).unwrap_err().contains("not drained"));
    }

    #[test]
    fn noc_overdelivery_is_flagged() {
        let s = RunStats {
            noc_delivered: 101,
            ..ok_stats()
        };
        assert!(check_run("t", &s).unwrap_err().contains("NoC"));
    }

    #[test]
    fn cross_variant_bound_is_lenient_but_finite() {
        let doall = ok_stats();
        let near = RunStats {
            cycles: 1000 * MAX_SLOWDOWN,
            ..ok_stats()
        };
        assert!(check_cross(&doall, "t", &near).is_ok());
        let absurd = RunStats {
            cycles: 1000 * MAX_SLOWDOWN + SLOWDOWN_SLACK + 1,
            ..ok_stats()
        };
        assert!(check_cross(&doall, "t", &absurd).unwrap_err().contains("sanity bound"));
    }

    #[test]
    fn chaos_schedules_are_named_unique_and_deterministic() {
        let s = chaos_schedules(7);
        assert!(s.len() >= 4, "grid floor: at least 4 schedules");
        let mut names: Vec<_> = s.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), s.len(), "schedule names unique");
        assert!(
            s.iter().any(|c| c.must_degrade),
            "the grid includes a deliberately unrecoverable schedule"
        );
        // Same seed → identical planes (seed-replayable grid).
        for (a, b) in s.iter().zip(&chaos_schedules(7)) {
            assert!(a.plane == b.plane);
        }
    }

    #[test]
    fn grid_starts_with_doall() {
        assert!(matches!(ORACLE_VARIANTS[0].0, Variant::Doall));
        // One entry per oracle variant, no duplicates.
        let mut labels: Vec<&str> = ORACLE_VARIANTS.iter().map(|(v, _)| v.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ORACLE_VARIANTS.len());
    }
}
