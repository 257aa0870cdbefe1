//! Prefetching loops of indirect memory accesses: LIMA vs software
//! prefetching (the paper's Figures 9–11 scenario on one workload).
//!
//! Runs the Sparse–Dense Hadamard Product single-threaded three ways and
//! prints runtime, load-instruction counts, and mean load latency. A
//! single LIMA store replaces a whole inner loop of prefetch address
//! arithmetic, and consuming from MAPLE queues keeps the irregular data
//! out of the L1.
//!
//! Run with: `cargo run --release -p maple-bench --example lima_prefetch`

use maple_workloads::data::uniform_sparse;
use maple_workloads::sdhp::Sdhp;
use maple_workloads::Variant;

fn main() {
    let sparse = uniform_sparse(96, 2048, 16, 5);
    let inst = Sdhp::from_sparse(&sparse, 17);
    println!(
        "SDHP: {} stored elements gathered from a {} KiB dense matrix\n",
        inst.n(),
        inst.dense.len() * 4 / 1024
    );

    let base = inst.run(Variant::Doall, 1);
    assert!(base.verified);
    let swp = inst.run(Variant::SwPrefetch { dist: 16 }, 1);
    assert!(swp.verified);
    let lima = inst.run(Variant::MapleLima, 1);
    assert!(lima.verified);

    println!("variant          cycles      speedup   loads(norm)  mean-load-lat");
    for (name, s) in [
        ("no prefetch", &base),
        ("sw prefetch", &swp),
        ("MAPLE LIMA", &lima),
    ] {
        println!(
            "{name:<14} {:>10}     {:>5.2}x     {:>7.2}      {:>7.1} cy",
            s.cycles,
            base.cycles as f64 / s.cycles as f64,
            s.loads as f64 / base.loads as f64,
            s.mean_load_latency
        );
    }

    println!(
        "\nLIMA speedup over software prefetching: {:.2}x",
        swp.cycles as f64 / lima.cycles as f64
    );
}
