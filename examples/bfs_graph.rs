//! BFS over a scale-free graph with MAPLE-decoupled data supply.
//!
//! Generates a Wikipedia-like R-MAT graph, runs level-synchronous BFS
//! with plain do-all threads and with a MAPLE Access/Execute pair, and
//! reports the distance histogram and speedup — the workload where the
//! paper reports up to 3× over do-all.
//!
//! Run with: `cargo run --release -p maple-bench --example bfs_graph`

use maple_workloads::bfs::Bfs;
use maple_workloads::data::Dataset;
use maple_workloads::Variant;

fn main() {
    let inst = Bfs::new(Dataset::WikiLike, 99);
    println!(
        "graph: {} vertices, {} edges (R-MAT, wiki-like skew), root {}",
        inst.graph.nrows,
        inst.graph.nnz(),
        inst.root
    );

    // Distance histogram from the host reference.
    let dist = inst.reference();
    let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
    let max_level = dist
        .iter()
        .filter(|&&d| d != u32::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    println!("reachable: {reached} vertices, eccentricity {max_level}");
    for level in 0..=max_level {
        let at = dist.iter().filter(|&&d| d == level).count();
        println!("  level {level:>2}: {at:>6} vertices");
    }

    let doall = inst.run(Variant::Doall, 2);
    assert!(doall.verified, "do-all BFS mismatch");
    println!("\ndo-all (2 threads):  {:>10} cycles   1.00x", doall.cycles);

    let maple = inst.run(Variant::MapleDecoupled, 2);
    assert!(maple.verified, "MAPLE BFS mismatch");
    println!(
        "MAPLE decoupling:    {:>10} cycles   {:.2}x",
        maple.cycles,
        maple.speedup_over(&doall)
    );
    println!(
        "  (mean load-to-use latency: doall {:.0} cy, MAPLE {:.0} cy)",
        doall.mean_load_latency, maple.mean_load_latency
    );
}
