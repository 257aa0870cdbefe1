//! Smoke tests for the figure harness: tiny instances through the same
//! experiment plumbing the `results` driver uses, so a broken experiment
//! path fails in `cargo test` rather than at figure-generation time.

use maple_bench::report::SpeedupTable;
use maple_core::area::engine_area;
use maple_core::MapleConfig;
use maple_soc::config::SocConfig;

#[test]
fn speedup_table_renders_geomeans() {
    let mut t = SpeedupTable::new(&["a", "b"]);
    t.add_row("w1", vec![1.0, 2.0]);
    t.add_row("w2", vec![1.0, 8.0]);
    let g = t.geomeans();
    assert!((g[1] - 4.0).abs() < 1e-9);
}

#[test]
fn instances_are_well_formed() {
    for (label, build) in maple_bench::instances::SPMV {
        let inst = build();
        assert!(inst.a.is_well_formed(), "spmv/{label}");
        assert_eq!(inst.x.len(), inst.a.ncols);
    }
    for (label, build) in maple_bench::instances::SDHP {
        let inst = build();
        assert!(!inst.lin.is_empty(), "sdhp/{label}");
        assert!(inst.lin.iter().all(|&b| (b as usize) < inst.dense.len()));
    }
    for (label, build) in maple_bench::instances::SPMM {
        let inst = build();
        assert!(inst.a.is_well_formed(), "spmm/{label}");
        assert!(inst.b.is_well_formed(), "spmm/{label}");
    }
    for (label, build) in maple_bench::instances::BFS {
        let inst = build();
        assert!(inst.graph.is_well_formed(), "bfs/{label}");
        assert!(!inst.graph.row_range(inst.root as usize).is_empty());
    }
}

#[test]
fn table_configs_match_paper_parameters() {
    let t2 = SocConfig::fpga_prototype();
    assert_eq!(t2.cores, 2);
    assert_eq!(t2.maples, 1);
    assert_eq!(t2.maple.scratchpad_bytes, 1024);
    assert_eq!(t2.dram.latency, 300);
    assert_eq!(t2.l2.latency, 30);
    let t3 = SocConfig::simulated_system();
    assert_eq!(t3.dram.latency, t2.dram.latency);
}

#[test]
fn area_model_matches_paper_fraction() {
    let frac = engine_area(&MapleConfig::default()).fraction_of_ariane();
    assert!(
        (0.008..0.016).contains(&frac),
        "expected ≈1.1% of Ariane, got {:.2}%",
        frac * 100.0
    );
}

#[test]
fn experiment_datasets_cover_all_apps() {
    let pairs = maple_bench::experiments::app_datasets();
    for app in ["sdhp", "spmm", "spmv", "bfs"] {
        assert!(pairs.iter().any(|(a, _)| a == app), "no datasets for {app}");
    }
    assert!(
        pairs.len() >= 7,
        "paper evaluates multiple datasets per app"
    );
}
