//! Stepper differential suite: the event-horizon skipping scheduler
//! (`System::run`) must be **bit-exact** with the dense cycle-by-cycle
//! reference loop — identical cycle counts, run
//! statistics, fault reports, trace event streams, metrics snapshots and
//! occupancy samples — across the oracle variant grid, the chaos
//! schedule grid, and traced runs.
//!
//! The dense stepper is selected through the configuration
//! (`SocConfig::with_dense_stepper`), which reaches every workload entry
//! point via the `run_tuned` tuning closure.

use maple_trace::TraceConfig;
use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::{RunStats, Variant};
use maple_workloads::oracle::{chaos_schedules, ORACLE_VARIANTS};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmv::Spmv;

/// Master seed: fixed so any divergence replays exactly.
const SEED: u64 = 0x57E9_9E87;

fn assert_same(kernel: &str, v: Variant, t: usize, skip: &RunStats, dense: &RunStats) {
    assert_eq!(
        skip, dense,
        "{kernel} {v:?} x{t}: skipping stepper diverged from dense reference\n\
         replay: SEED={SEED:#x}"
    );
    assert!(skip.verified, "{kernel} {v:?} x{t}: wrong result");
}

#[test]
fn grid_spmv_bit_exact() {
    let a = uniform_sparse(24, 4 * 1024, 5, SEED);
    let x = dense_vector(4 * 1024, SEED ^ 0x51);
    let inst = Spmv { a, x };
    // The oracle grid plus the variants it leaves out (LIMA command mode
    // and software prefetch), so every load path crosses the stepper, and
    // MAPLE decoupling at four threads (two pairs sharing one engine).
    let grid: Vec<(Variant, usize)> = ORACLE_VARIANTS
        .iter()
        .copied()
        .chain([
            (Variant::MapleLima, 1),
            (Variant::SwPrefetch { dist: 4 }, 1),
            (Variant::MapleDecoupled, 4),
        ])
        .collect();
    for (v, t) in grid {
        let skip = inst.run(v, t);
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_same("spmv", v, t, &skip, &dense);
    }
}

#[test]
fn grid_bfs_bit_exact() {
    let graph = uniform_sparse(48, 48, 4, SEED ^ 0xB);
    let root = (0..graph.nrows)
        .find(|&r| !graph.row_range(r).is_empty())
        .unwrap_or(0) as u32;
    let inst = Bfs { graph, root };
    for &(v, t) in &ORACLE_VARIANTS {
        let skip = inst.run(v, t);
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_same("bfs", v, t, &skip, &dense);
    }
}

#[test]
fn grid_sdhp_bit_exact() {
    let a = uniform_sparse(24, 2048, 5, SEED ^ 0x5);
    let inst = Sdhp::from_sparse(&a, SEED ^ 0x50);
    for &(v, t) in &ORACLE_VARIANTS {
        let skip = inst.run(v, t);
        let dense = inst.run_tuned(v, t, |c| c.with_dense_stepper());
        assert_same("sdhp", v, t, &skip, &dense);
    }
}

#[test]
fn chaos_grid_bit_exact() {
    // Every named chaos schedule, including the deliberately
    // unrecoverable ack blackout: injected faults, watchdog retries,
    // poisons and the final hang diagnosis must be cycle-identical under
    // both steppers (chaos injections are horizon terms, so a skipped-to
    // cycle lands exactly on the injection).
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0xC);
    let x = dense_vector(4 * 1024, SEED ^ 0xC1);
    let inst = Spmv { a, x };
    for schedule in chaos_schedules(SEED) {
        let plane = schedule.plane.clone();
        let skip = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| c.with_fault_plane(p)
        });
        let dense = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            c.with_fault_plane(plane).with_dense_stepper()
        });
        assert_eq!(
            skip, dense,
            "chaos schedule `{}`: skipping diverged from dense\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        // No claim about recovery here (that is chaos_oracle's contract,
        // which runs the full degradation ladder): only that both
        // steppers tell the same story, hung or not.
        assert_eq!(skip.hung, dense.hung);
    }
}

#[test]
fn two_engine_metrics_bit_exact() {
    // Four cores sharing two engines on the flat mesh: run stats and the
    // full metrics snapshot (per-core dispatch counters included) must
    // match between the steppers.
    let a = uniform_sparse(32, 4 * 1024, 5, SEED ^ 0x47);
    let x = dense_vector(4 * 1024, SEED ^ 0x471);
    let inst = Spmv { a, x };
    let tune = |c: maple_soc::SocConfig| c.with_maples(2);
    let (dense_stats, dense_sys) =
        inst.run_observed(Variant::MapleDecoupled, 4, |c| tune(c).with_dense_stepper());
    assert!(dense_stats.verified, "two-engine run computed a wrong result");
    let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, 4, tune);
    assert_eq!(
        skip_stats, dense_stats,
        "two engines: skipping diverged from dense\nreplay: SEED={SEED:#x}"
    );
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "two engines: skipping metrics JSON diverged"
    );
}

/// Wraps a flat configuration in the degenerate hierarchy: one cluster
/// sized exactly to the existing mesh, so the clustered configuration
/// surface is exercised while the simulation must stay byte-identical.
fn one_cluster(c: maple_soc::SocConfig) -> maple_soc::SocConfig {
    let tiles = usize::from(c.mesh_width) * usize::from(c.mesh_height);
    c.with_clusters(maple_soc::ClusterConfig::new(tiles, 1, 1))
}

/// A genuinely hierarchical fabric: 2×2 clusters of 3×3 tiles with one
/// L2 bank per cluster — crossbars, inter-cluster mesh legs and address
/// interleaving all live.
fn clustered(c: maple_soc::SocConfig) -> maple_soc::SocConfig {
    c.with_clusters(maple_soc::ClusterConfig::new(9, 2, 2))
}

#[test]
fn one_cluster_grid_bit_identical_to_flat() {
    // The tentpole's anchor: a hierarchical configuration with a single
    // cluster shaped like the flat mesh must be byte-identical to the
    // flat configuration — run stats AND the full metrics snapshot —
    // across every oracle variant and both steppers.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x61);
    let x = dense_vector(4 * 1024, SEED ^ 0x611);
    let inst = Spmv { a, x };
    let grid: Vec<(Variant, usize)> = ORACLE_VARIANTS
        .iter()
        .copied()
        .chain([(Variant::MapleLima, 1), (Variant::SwPrefetch { dist: 4 }, 1)])
        .collect();
    for (v, t) in grid {
        let (flat_stats, flat_sys) = inst.run_observed(v, t, |c| c);
        let flat_json = flat_sys.metrics_snapshot().to_json().render();
        let (one_stats, one_sys) = inst.run_observed(v, t, one_cluster);
        assert_eq!(
            one_stats, flat_stats,
            "spmv {v:?} x{t}: 1-cluster hierarchy diverged from flat mesh\n\
             replay: SEED={SEED:#x}"
        );
        assert_eq!(
            one_sys.metrics_snapshot().to_json().render(),
            flat_json,
            "spmv {v:?} x{t}: 1-cluster metrics JSON diverged from flat"
        );
    }
    // The dense stepper, on the richest variant.
    let (flat_stats, flat_sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| c);
    let flat_json = flat_sys.metrics_snapshot().to_json().render();
    let (dense_stats, dense_sys) =
        inst.run_observed(Variant::MapleDecoupled, 2, |c| one_cluster(c).with_dense_stepper());
    assert_eq!(
        dense_stats, flat_stats,
        "1-cluster dense stepper diverged from flat skipping\nreplay: SEED={SEED:#x}"
    );
    assert_eq!(
        dense_sys.metrics_snapshot().to_json().render(),
        flat_json,
        "1-cluster dense metrics JSON diverged"
    );
}

#[test]
fn one_cluster_chaos_bit_identical_to_flat() {
    // Chaos replay must not notice the degenerate hierarchy either: the
    // flat fabric arm draws the same RNG streams in the same order, and
    // bank 0 draws the historical DRAM stream.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x6C);
    let x = dense_vector(4 * 1024, SEED ^ 0x6C1);
    let inst = Spmv { a, x };
    for schedule in chaos_schedules(SEED ^ 0xC10) {
        let plane = schedule.plane.clone();
        let flat = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| c.with_fault_plane(p)
        });
        let one = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            one_cluster(c).with_fault_plane(plane)
        });
        assert_eq!(
            one, flat,
            "chaos schedule `{}`: 1-cluster diverged from flat\nreplay: SEED={SEED:#x}",
            schedule.name
        );
    }
}

#[test]
fn clustered_fabric_steppers_bit_exact() {
    // A live hierarchy (crossbars, mesh legs, 4 L2 banks): no flat
    // reference exists, so the contract is stepper-invariance — dense and
    // skipping must agree on run stats and the full metrics snapshot,
    // banked/global namespaces included.
    let a = uniform_sparse(32, 4 * 1024, 5, SEED ^ 0x71);
    let x = dense_vector(4 * 1024, SEED ^ 0x711);
    let inst = Spmv { a, x };
    let tune = |c: maple_soc::SocConfig| clustered(c.with_maples(2));
    let (dense_stats, dense_sys) =
        inst.run_observed(Variant::MapleDecoupled, 4, |c| tune(c).with_dense_stepper());
    assert!(dense_stats.verified, "clustered run computed a wrong result");
    let dense_json = dense_sys.metrics_snapshot().to_json().render();
    let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, 4, tune);
    assert_eq!(
        skip_stats, dense_stats,
        "clustered: skipping diverged from dense\nreplay: SEED={SEED:#x}"
    );
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_json,
        "clustered: skipping metrics JSON diverged"
    );
}

#[test]
fn clustered_chaos_grid_bit_exact() {
    // Chaos on the live hierarchy, including mid-run engine resets aimed
    // at the pool of a different cluster than the issuing cores, plus
    // the crossbar's own fault sites.
    let a = uniform_sparse(24, 4 * 1024, 5, SEED ^ 0x7C);
    let x = dense_vector(4 * 1024, SEED ^ 0x7C1);
    let inst = Spmv { a, x };
    let tune = |c: maple_soc::SocConfig| clustered(c.with_maples(2));
    for schedule in chaos_schedules(SEED ^ 0xC1A) {
        let plane = schedule.plane.clone();
        let dense = inst.run_tuned(Variant::MapleDecoupled, 2, {
            let p = plane.clone();
            move |c| tune(c).with_fault_plane(p).with_dense_stepper()
        });
        let skip = inst.run_tuned(Variant::MapleDecoupled, 2, move |c| {
            tune(c).with_fault_plane(plane)
        });
        assert_eq!(
            skip, dense,
            "clustered chaos `{}`: skipping diverged from dense\nreplay: SEED={SEED:#x}",
            schedule.name
        );
        assert_eq!(skip.hung, dense.hung);
    }
}

#[test]
fn traced_run_streams_identical() {
    // Tracing observes individual cycles, so it is the sharpest probe of
    // skipping correctness: every captured (cycle, event) record must be
    // identical, as must the full metrics snapshot (which carries the
    // occupancy histograms sampled on scheduled cycles).
    let a = uniform_sparse(16, 2048, 4, SEED ^ 0x7);
    let x = dense_vector(2048, SEED ^ 0x71);
    let inst = Spmv { a, x };
    let (skip_stats, skip_sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default())
    });
    let (dense_stats, dense_sys) = inst.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default()).with_dense_stepper()
    });
    assert_eq!(skip_stats, dense_stats, "stats diverged on traced run");
    let skip_records = skip_sys.trace_records();
    let dense_records = dense_sys.trace_records();
    assert_eq!(
        skip_records.len(),
        dense_records.len(),
        "trace record count diverged"
    );
    for (i, (s, d)) in skip_records.iter().zip(&dense_records).enumerate() {
        assert_eq!(s, d, "trace record {i} diverged");
    }
    assert_eq!(
        skip_sys.metrics_snapshot().to_json().render(),
        dense_sys.metrics_snapshot().to_json().render(),
        "metrics snapshot diverged on traced run"
    );
}
