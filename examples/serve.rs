//! Multi-tenant serving quickstart: three tenants share two MAPLE
//! engines through driver-level virtualization.
//!
//! Each tenant owns a private SpMV dataset and a seeded open-loop
//! request schedule (row-slice and gather queries). The serving driver
//! multiplexes the engines across tenants round-robin: a context switch
//! saves the outgoing tenant's queue and fetch-unit state, remaps the
//! engine's MMIO page to a fresh virtual address (with a TLB shootdown
//! broadcast), and restores the incoming tenant — all without forking
//! the cycle-accurate model. Every response is byte-checked against the
//! host reference, so the printed summary is also a correctness proof.
//!
//! ```text
//! cargo run --release -p maple-bench --example serve
//! ```
//!
//! The exported Chrome trace (`target/serve_trace.json`) shows tenant
//! interleaving under the `serving` process in Perfetto: `ctx-switch`
//! spans carry the switch cost, instant `t<N>` markers show which
//! tenant each dispatch belongs to.

use maple_serve::{serve, ServeConfig, CONTEXT_SWITCH_CYCLES};
use maple_trace::TraceConfig;

fn main() {
    let mut cfg = ServeConfig::quick(0x5E12E);
    cfg.trace = Some(TraceConfig::default());
    eprintln!(
        "[serve] {} tenants x {} engines ({} lanes), ctx-switch cost {} cycles...",
        cfg.tenants.len(),
        cfg.maples,
        cfg.lanes(),
        CONTEXT_SWITCH_CYCLES
    );
    let (sim, summary) = serve(cfg);
    assert!(summary.verified, "every response must match the host");

    println!("tenant        completed  failed    p50    p99    max  req/Mcy");
    for t in &summary.tenants {
        println!(
            "{:<12} {:>10} {:>7} {:>6} {:>6} {:>6} {:>8.2}",
            t.name, t.completed, t.failed, t.p50, t.p99, t.max, t.throughput
        );
    }
    println!(
        "overall: {}/{} requests, p50={} p99={} max={} fairness={:.3}",
        summary.completed,
        summary.total_requests,
        summary.p50,
        summary.p99,
        summary.max,
        summary.fairness()
    );
    println!(
        "virtualization: {} context switches ({} cycles), {} MMIO remaps, \
         {} batches, {} ladder descents",
        summary.context_switches,
        summary.switch_cycles,
        summary.remaps,
        summary.batches,
        summary.ladder_descents()
    );

    let path = std::path::Path::new("target/serve_trace.json");
    sim.system().write_trace(path).expect("write chrome trace");
    println!(
        "wrote {} — open it in https://ui.perfetto.dev",
        path.display()
    );
}
