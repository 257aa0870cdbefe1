//! Observability quickstart: run a MAPLE-decoupled SpMV with cycle-level
//! tracing enabled, export a Chrome trace, and print the stall
//! attribution and metrics tables.
//!
//! ```text
//! cargo run --release --example trace_spmv
//! ```
//!
//! Then open `target/trace_spmv.json` in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`. Rows under pid 0 are cores (stall spans), pid 1
//! engines (fetch issue/fill, queue occupancy counters), pid 2 the NoC,
//! pid 3 fault injections and recoveries.

use maple_bench::instances;
use maple_trace::{stall_table, TraceConfig};
use maple_workloads::Variant;

fn main() {
    let spmv = (instances::SPMV[0].1)();
    eprintln!("[trace_spmv] running spmv/riscv-s (maple-dec, 2 threads) with tracing...");
    let (stats, sys) = spmv.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default())
    });
    println!(
        "finished in {} cycles ({} trace events captured, {} dropped)",
        stats.cycles,
        sys.trace_records().len(),
        sys.trace_dropped()
    );

    let path = std::path::Path::new("target/trace_spmv.json");
    sys.write_trace(path).expect("write chrome trace");
    println!(
        "wrote {} — open it in https://ui.perfetto.dev",
        path.display()
    );

    println!("\nStall attribution:");
    print!("{}", stall_table(&sys.stall_rows()));

    println!("\nMetrics snapshot:");
    print!("{}", sys.metrics_snapshot().render_table());
}
