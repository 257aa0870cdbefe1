//! Property suite for the steppers: for ANY generated mesh size, data
//! and (optional) chaos schedule, the event-horizon skipping stepper
//! must be bit-identical to the dense reference — run statistics,
//! metrics-snapshot JSON, and full `RunOutcome::Hung` diagnoses
//! included.
//!
//! Seeded and shrinkable: failures print a `MAPLE_TESTKIT_SEED`
//! reproduction line, and the runner greedily shrinks the mesh
//! parameters toward the minimal diverging configuration.
//! `MAPLE_TESTKIT_CASES` scales the case count for soak runs.

use maple_isa::builder::ProgramBuilder;
use maple_sim::fault::FaultPlaneConfig;
use maple_sim::rng::SimRng;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_testkit::{check, gen, Config};
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::Variant;
use maple_workloads::spmv::Spmv;

/// Expands one random word into a recoverable fault plane (drop-rate
/// well below 1 so the run's fate is decided by the watchdogs, not the
/// budget), roughly mirroring `chaos_prop`'s schedule space.
fn random_plane(seed: u64) -> FaultPlaneConfig {
    let mut rng = SimRng::seed(seed);
    let pct = |rng: &mut SimRng, limit_pct: u64| rng.below(limit_pct) as f64 / 100.0;
    let mut plane = FaultPlaneConfig::new(seed)
        .with_noc_drop(pct(&mut rng, 4))
        .with_noc_delay(pct(&mut rng, 6), 50 + rng.below(300))
        .with_dram_spikes(pct(&mut rng, 8), 100 + rng.below(500));
    if rng.below(2) == 1 {
        plane = plane.with_engine_reset_at(2_000 + rng.below(30_000), 0);
    }
    if rng.below(2) == 1 {
        plane = plane.with_tlb_shootdowns(1 + rng.below(3) as u32, 50_000);
    }
    plane
}

#[test]
fn skipping_equals_dense_on_random_meshes() {
    // Random mesh (threads × engines), random data, optional chaos: the
    // skipping stepper must reproduce the dense reference byte-for-byte.
    // The only property that compares the steppers under random chaos.
    let inputs = (
        (
            gen::choice(vec![2usize, 4]), // threads (decoupling runs in pairs)
            gen::usize_in(1..3),          // MAPLE engines
        ),
        (
            gen::usize_in(8..24), // rows
            gen::u64_any(),       // data seed
            gen::bools(),         // chaos on/off
            gen::u64_any(),       // chaos seed
        ),
    );
    let cfg = Config::new("skipping_equals_dense_on_random_meshes").with_cases(12);
    check(
        &cfg,
        &inputs,
        |&((threads, maples), (rows, data_seed, chaos, chaos_seed))| {
            let a = uniform_sparse(rows, 2 * 1024, 5, data_seed);
            let x = dense_vector(2 * 1024, data_seed ^ 0x51);
            let inst = Spmv { a, x };
            let plane = chaos.then(|| random_plane(chaos_seed));
            let tune = |c: SocConfig| {
                let c = c.with_maples(maples);
                match plane.clone() {
                    Some(p) => c.with_fault_plane(p),
                    None => c,
                }
            };
            let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, threads, tune);
            let (dense_stats, dense_sys) =
                inst.run_observed(Variant::MapleDecoupled, threads, |c| {
                    tune(c).with_dense_stepper()
                });
            maple_testkit::tk_assert_eq!(
                skip_stats,
                dense_stats,
                "threads={threads} maples={maples} chaos={chaos}: \
             skipping stats diverged from dense"
            );
            maple_testkit::tk_assert_eq!(
                skip_sys.metrics_snapshot().to_json().render(),
                dense_sys.metrics_snapshot().to_json().render(),
                "threads={threads} maples={maples} chaos={chaos}: \
             metrics JSON diverged"
            );
            Ok(())
        },
    );
}

#[test]
fn clustered_fabrics_agree_across_steppers_on_random_shapes() {
    // Hierarchical generalisation: a random cluster grid (including the
    // degenerate 1×1), a random bank count and random chaos must leave
    // the two steppers bit-identical. Crossbar fault sites and per-bank
    // DRAM streams are all in play.
    let inputs = (
        (
            gen::usize_in(1..3),          // clusters_x
            gen::usize_in(1..3),          // clusters_y
            gen::u64_any(),               // bank count draw (folded mod clusters)
            gen::choice(vec![2usize, 4]), // threads (decoupling runs in pairs)
            gen::usize_in(1..3),          // MAPLE engines
        ),
        (
            gen::usize_in(8..20), // rows
            gen::u64_any(),       // data seed
            gen::bools(),         // chaos on/off
            gen::u64_any(),       // chaos seed
        ),
    );
    let cfg =
        Config::new("clustered_fabrics_agree_across_steppers_on_random_shapes").with_cases(10);
    check(
        &cfg,
        &inputs,
        |&((cx, cy, bank_draw, threads, maples), (rows, data_seed, chaos, chaos_seed))| {
            let clusters = cx * cy;
            let banks = 1 + (bank_draw as usize) % clusters;
            // 9 tiles per cluster holds the worst 1×1 packing
            // (4 cores + 1 bank + 2 engines) with room to spare.
            let shape = maple_soc::ClusterConfig::new(9, cx as u16, cy as u16).with_l2_banks(banks);
            let a = uniform_sparse(rows, 2 * 1024, 5, data_seed);
            let x = dense_vector(2 * 1024, data_seed ^ 0x51);
            let inst = Spmv { a, x };
            let plane = chaos.then(|| random_plane(chaos_seed));
            let tune = |c: SocConfig| {
                let c = c.with_maples(maples).with_clusters(shape);
                match plane.clone() {
                    Some(p) => c.with_fault_plane(p),
                    None => c,
                }
            };
            let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, threads, tune);
            let (dense_stats, dense_sys) =
                inst.run_observed(Variant::MapleDecoupled, threads, |c| {
                    tune(c).with_dense_stepper()
                });
            maple_testkit::tk_assert_eq!(
                skip_stats,
                dense_stats,
                "clusters={cx}x{cy} banks={banks} threads={threads} maples={maples} \
             chaos={chaos}: skipping diverged from dense"
            );
            maple_testkit::tk_assert_eq!(
                skip_sys.metrics_snapshot().to_json().render(),
                dense_sys.metrics_snapshot().to_json().render(),
                "clusters={cx}x{cy} banks={banks} threads={threads} maples={maples} \
             chaos={chaos}: metrics JSON diverged"
            );
            Ok(())
        },
    );
}

/// A consumer with nothing to consume: parks forever, so the run ends in
/// a structured hang diagnosis (or, under chaos, possibly a watchdog
/// retirement) — the outcome shape the property below pins.
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

#[test]
fn hung_diagnoses_are_identical_across_steppers() {
    // Hang diagnoses carry per-core stall labels and per-engine queue
    // occupancy — state the skipping stepper leaves asleep until the run
    // ends — so comparing the full `RunOutcome` (diagnosis included)
    // across the skipping and dense steppers is the sharpest end-state
    // probe.
    let inputs = (
        gen::bools(),   // chaos on/off
        gen::u64_any(), // chaos seed
    );
    let cfg = Config::new("hung_diagnoses_are_identical_across_steppers").with_cases(16);
    check(&cfg, &inputs, |&(chaos, chaos_seed)| {
        const BUDGET: u64 = 150_000;
        let run = |cfg: SocConfig| {
            let cfg = match chaos.then(|| random_plane(chaos_seed)) {
                Some(p) => cfg.with_fault_plane(p),
                None => cfg,
            };
            let mut sys = System::new(cfg);
            load_starved_consumer(&mut sys);
            let out = sys.run(BUDGET);
            (out, sys)
        };
        let (skip_out, skip_sys) = run(SocConfig::fpga_prototype());
        let (dense_out, dense_sys) = run(SocConfig::fpga_prototype().with_dense_stepper());
        maple_testkit::tk_assert_eq!(
            skip_out,
            dense_out,
            "chaos={chaos}: skipping outcome/diagnosis diverged from dense"
        );
        maple_testkit::tk_assert_eq!(
            skip_sys.metrics_snapshot().to_json().render(),
            dense_sys.metrics_snapshot().to_json().render(),
            "chaos={chaos}: metrics diverged on hang"
        );
        Ok(())
    });
}
