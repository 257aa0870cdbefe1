//! Figure 11: mean load-to-use latency with and without prefetching.
//!
//! Paper result: LIMA nearly halves the average load latency (1.85×
//! geomean reduction) — prefetched data waits in MAPLE queues an L2-round
//! trip away instead of in DRAM.

use maple_bench::experiments::{find, prefetch_suite, stall_rows_by_variant};
use maple_bench::{FigureReport, SpeedupTable};
use maple_sim::stats::geomean;

fn main() {
    maple_bench::cli::no_arguments("fig11");
    let rows = prefetch_suite();
    let mut report = FigureReport::new(
        "fig11",
        "Figure 11 — average load latency in cycles (single thread)",
        "LIMA cuts mean load latency ~1.85x vs no prefetching",
    );
    let mut table =
        SpeedupTable::new(&["no-pref", "sw-pref", "maple-lima"]).with_unit("cy");
    let mut reduction = Vec::new();
    for (app, ds) in maple_bench::experiments::app_datasets() {
        let base = find(&rows, &app, &ds, "doall");
        let sw = find(&rows, &app, &ds, "sw-pref");
        let lima = find(&rows, &app, &ds, "maple-lima");
        table.add_row(
            format!("{app}/{ds}"),
            vec![base.load_latency, sw.load_latency, lima.load_latency],
        );
        reduction.push(base.load_latency / lima.load_latency);
    }
    report.line(
        "LIMA latency reduction (geomean)",
        geomean(&reduction),
        "x",
        "1.85x",
    );
    report.table = Some(table);
    report.stalls = stall_rows_by_variant(&rows, &["doall", "sw-pref", "maple-lima"]);
    report.emit();
}
