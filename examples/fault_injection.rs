//! Chaos testing the MAPLE plane: SPMV under a deterministic fault
//! schedule — a lossy NoC (2% drop, 2% extra delay on MAPLE traffic)
//! plus one mid-run engine `RESET` — with the recovery machinery doing
//! its job: engine fetch watchdogs re-issue lost memory requests, the
//! core-side MMIO watchdog re-injects lost transactions (the engine's
//! dedup cache makes retries idempotent), and if an instance is beyond
//! saving, the driver retires it and the harness gracefully degrades to
//! a software variant — bit-exact either way.
//!
//! Every fault is seeded: re-running this binary replays the exact same
//! drops, delays and reset, cycle for cycle.
//!
//! Run with: `cargo run --release -p maple-bench --example fault_injection`

use maple_sim::fault::FaultPlaneConfig;
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::run_with_fallback;
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

fn main() {
    let a = uniform_sparse(96, 32 * 1024, 6, 2024);
    let x = dense_vector(32 * 1024, 7);
    let inst = Spmv { a, x };

    let seed = 0xC0FF_EE42u64;
    let plane = FaultPlaneConfig::new(seed)
        .with_noc_drop(0.02)
        .with_noc_delay(0.02, 200)
        .with_engine_reset_at(20_000, 0);
    println!("SPMV, MAPLE-decoupled, fault plane seed {seed:#x}:");
    println!("  NoC drop 2%, NoC delay 2% (+200 cycles), engine RESET at cycle 20000\n");

    // Clean baseline for comparison.
    let clean = inst.run(Variant::MapleDecoupled, 2);
    println!(
        "fault-free run:  {:>9} cycles, verified = {}",
        clean.cycles, clean.verified
    );

    // Chaos run through the graceful-degradation ladder.
    let outcome = run_with_fallback(Variant::MapleDecoupled, 2, |v, t| {
        if v == Variant::MapleDecoupled {
            let p = plane.clone();
            inst.run_tuned(v, t, move |c| c.with_fault_plane(p))
        } else {
            inst.run(v, t)
        }
    });

    let (_, maple) = &outcome.attempts[0];
    let f = &maple.faults;
    println!(
        "chaos run:       {:>9} cycles, verified = {}, hung = {}\n",
        maple.cycles, maple.verified, maple.hung
    );
    println!(
        "injected:  {:>5} NoC drops, {:>2} NoC delays, {} engine reset(s)",
        f.noc_dropped, f.noc_delayed, f.resets_injected
    );
    println!(
        "recovered: {:>5} engine fetch retries ({} timeouts)",
        f.fetch_retries, f.fetch_timeouts
    );
    println!(
        "           {:>5} MMIO re-injections  ({} timeouts)",
        f.mmio_retries, f.mmio_timeouts
    );
    println!(
        "           {:>5} responses replayed from the dedup cache",
        f.replayed_responses
    );
    println!(
        "poisoned:  {:>5} fetches abandoned, {} engine(s) retired\n",
        f.poisoned_fetches, f.engines_poisoned
    );

    if outcome.degraded() {
        println!(
            "degradation: MAPLE attempt did not verify; fell back {} -> {}",
            Variant::MapleDecoupled.label(),
            outcome.final_variant().label()
        );
    } else {
        println!("degradation: none needed — recovery kept the MAPLE run bit-exact");
    }
    let fin = outcome.final_stats();
    println!(
        "standing result: {} via {} in {} cycles ({:+.1}% vs fault-free)",
        if fin.verified {
            "bit-exact"
        } else {
            "UNVERIFIED"
        },
        outcome.final_variant().label(),
        fin.cycles,
        100.0 * (fin.cycles as f64 - clean.cycles as f64) / clean.cycles as f64
    );
    assert!(outcome.verified(), "chaos must never let wrong data stand");
}
