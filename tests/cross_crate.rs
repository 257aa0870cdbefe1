//! Workspace-level integration tests spanning every crate: workloads on
//! the assembled SoC, exercised through the public APIs only.

use maple_workloads::bfs::Bfs;
use maple_workloads::data::{rmat, uniform_sparse, Csr};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmm::Spmm;
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

fn small_graph() -> Csr {
    rmat(7, 8, (0.57, 0.19, 0.19, 0.05), 77)
}

#[test]
fn every_kernel_every_variant_is_bit_exact() {
    // The workspace's strongest end-to-end property: all four kernels in
    // all applicable variants compute exactly the host reference.
    let spmv = Spmv {
        a: uniform_sparse(40, 16 * 1024, 5, 1),
        x: maple_workloads::data::dense_vector(16 * 1024, 2),
    };
    let sdhp = Sdhp::from_sparse(&uniform_sparse(24, 512, 8, 3), 4);
    let spmm = Spmm::synthetic(96, 4, 5, 5);
    let graph = small_graph();
    let root = (0..graph.nrows)
        .find(|&r| !graph.row_range(r).is_empty())
        .unwrap() as u32;
    let bfs = Bfs { graph, root };

    let dec_variants = [
        (Variant::Doall, 2),
        (Variant::SwDecoupled, 2),
        (Variant::MapleDecoupled, 2),
        (Variant::Desc, 2),
        (Variant::Droplet, 2),
    ];
    let pref_variants = [
        (Variant::SwPrefetch { dist: 8 }, 1),
        (Variant::MapleLima, 1),
    ];

    for (v, t) in dec_variants.iter().chain(&pref_variants) {
        assert!(spmv.run(*v, *t).verified, "spmv {} failed", v.label());
        assert!(sdhp.run(*v, *t).verified, "sdhp {} failed", v.label());
        assert!(spmm.run(*v, *t).verified, "spmm {} failed", v.label());
        assert!(bfs.run(*v, *t).verified, "bfs {} failed", v.label());
    }
}

#[test]
fn decoupling_pecking_order_holds_on_cache_averse_input() {
    // The paper's headline ordering on a cache-averse instance:
    // MAPLE-decoupled < doall < software-decoupled (in cycles).
    let inst = Spmv {
        a: uniform_sparse(96, 64 * 1024, 8, 11),
        x: maple_workloads::data::dense_vector(64 * 1024, 12),
    };
    let doall = inst.run(Variant::Doall, 2);
    let sw = inst.run(Variant::SwDecoupled, 2);
    let maple = inst.run(Variant::MapleDecoupled, 2);
    assert!(maple.verified && sw.verified && doall.verified);
    assert!(
        maple.cycles < doall.cycles,
        "MAPLE ({}) must beat doall ({})",
        maple.cycles,
        doall.cycles
    );
    assert!(
        doall.cycles < sw.cycles,
        "software decoupling ({}) must trail doall ({}) on in-order cores",
        sw.cycles,
        doall.cycles
    );
}

#[test]
fn lima_beats_software_prefetch_on_loads_and_latency() {
    let inst = Sdhp::from_sparse(&uniform_sparse(64, 2048, 12, 21), 22);
    let base = inst.run(Variant::Doall, 1);
    let sw = inst.run(Variant::SwPrefetch { dist: 16 }, 1);
    let lima = inst.run(Variant::MapleLima, 1);
    assert!(lima.verified && sw.verified);
    assert!(lima.loads < base.loads, "wide consumes reduce load count");
    assert!(sw.loads > base.loads, "sw prefetch adds load instructions");
    assert!(
        lima.mean_load_latency < base.mean_load_latency,
        "LIMA cuts mean load latency"
    );
}

#[test]
fn four_and_eight_thread_scaling_remains_correct() {
    let inst = Spmv {
        a: uniform_sparse(64, 16 * 1024, 6, 31),
        x: maple_workloads::data::dense_vector(16 * 1024, 32),
    };
    for t in [4usize, 8] {
        assert!(inst.run(Variant::Doall, t).verified, "doall t={t}");
        assert!(inst.run(Variant::MapleDecoupled, t).verified, "maple t={t}");
    }
}

#[test]
fn spmm_partial_decoupling_does_not_beat_doall_substantially() {
    // The RMW cannot be decoupled: MAPLE's fallback behaviour should be
    // within noise of doall, never a large win (Section 5.2).
    let inst = Spmm::synthetic(2048, 4, 10, 41);
    let doall = inst.run(Variant::Doall, 2);
    let maple = inst.run(Variant::MapleDecoupled, 2);
    assert!(maple.verified);
    let speedup = doall.cycles as f64 / maple.cycles as f64;
    assert!(
        speedup < 1.5,
        "decoupling should not hide RMW latency, got {speedup:.2}x"
    );
}
