//! Property test over the fault-schedule space (satellite of the chaos
//! plane): for ANY generated fault schedule with drop-rate < 1, a kernel
//! run either completes bit-exact under MAPLE decoupling or gracefully
//! degrades to a software variant that completes bit-exact — no silent
//! wrong answers, and no livelock beyond the watchdog bound (a failing
//! run is retired by the watchdogs long before the cycle budget, so the
//! ladder always terminates).
//!
//! Case count scales with `MAPLE_CHAOS_CASES` (the CI chaos stage sets
//! it); cases run in parallel through `maple_sim::par` (`MAPLE_JOBS`);
//! failures print a `MAPLE_TESTKIT_SEED` reproduction line.

use maple_sim::fault::FaultPlaneConfig;
use maple_sim::rng::SimRng;
use maple_testkit::{check_parallel, gen, Config};
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::{run_with_fallback, Variant};
use maple_workloads::spmv::Spmv;

/// Default generated-schedule count; `MAPLE_CHAOS_CASES` overrides (the
/// CI chaos stage pins it so the gate's cost is explicit).
fn cases() -> u64 {
    std::env::var("MAPLE_CHAOS_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

/// Expands one random word into a full fault plane: every rate is drawn
/// below 1 (drop-rate strictly), magnitudes and event times vary, and
/// roughly half the schedules also carry a scheduled mid-run reset.
fn random_plane(seed: u64) -> FaultPlaneConfig {
    let mut rng = SimRng::seed(seed);
    let pct = |rng: &mut SimRng, limit_pct: u64| rng.below(limit_pct) as f64 / 100.0;
    let mut plane = FaultPlaneConfig::new(seed)
        // Drop-rate < 1 by construction (at most 5%: recoverable regime).
        .with_noc_drop(pct(&mut rng, 6))
        .with_noc_delay(pct(&mut rng, 6), 50 + rng.below(300))
        .with_dram_spikes(pct(&mut rng, 8), 100 + rng.below(500))
        .with_mmio_ack_loss(pct(&mut rng, 4));
    if rng.below(2) == 1 {
        plane = plane.with_engine_reset_at(2_000 + rng.below(30_000), 0);
    }
    if rng.below(2) == 1 {
        plane = plane.with_tlb_shootdowns(1 + rng.below(3) as u32, 50_000);
    }
    plane
}

#[test]
fn any_recoverable_schedule_completes_bit_exact_or_degrades() {
    let inputs = (gen::u64_any(), gen::usize_in(8..32), gen::u64_any());
    let cfg = Config::new("any_recoverable_schedule_completes_bit_exact_or_degrades")
        .with_cases(cases());
    check_parallel(&cfg, &inputs, |&(plane_seed, rows, data_seed)| {
        let a = uniform_sparse(rows, 4 * 1024, 5, data_seed);
        let x = dense_vector(4 * 1024, data_seed ^ 0x51);
        let inst = Spmv { a, x };
        let plane = random_plane(plane_seed);
        let outcome = run_with_fallback(Variant::MapleDecoupled, 2, |v, t| {
            if v == Variant::MapleDecoupled {
                let p = plane.clone();
                inst.run_tuned(v, t, move |c| c.with_fault_plane(p))
            } else {
                inst.run(v, t)
            }
        });
        // The one outcome the recovery plane must rule out: wrong data
        // standing as the result.
        if !outcome.verified() {
            return Err(format!(
                "no bit-exact result under schedule {plane:?}; attempts: {:?}",
                outcome
                    .attempts
                    .iter()
                    .map(|(v, s)| (v.label(), s.verified, s.hung, s.cycles))
                    .collect::<Vec<_>>()
            ));
        }
        // A failed MAPLE attempt must have died by watchdog/diagnosis,
        // not by burning the whole cycle budget (livelock bound).
        let (_, maple) = &outcome.attempts[0];
        if !maple.verified && !maple.hung && maple.faults.resets_injected == 0 {
            return Err(format!(
                "MAPLE attempt failed without diagnosis or reset evidence: {:?}",
                maple.faults
            ));
        }
        // Watchdog bound: retry backoff tops out at timeout << 3 per
        // transaction, so even a hung run is retired within a few hundred
        // thousand cycles of its last progress — far below the budget.
        if !maple.verified && maple.cycles > 10_000_000 {
            return Err(format!(
                "hung MAPLE attempt lingered {} cycles past the watchdog bound",
                maple.cycles
            ));
        }
        Ok(())
    });
}
