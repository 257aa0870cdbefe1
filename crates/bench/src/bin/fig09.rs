//! Figure 9: prefetching speedups over no prefetching (single thread).
//!
//! Paper result: MAPLE's LIMA achieves 1.73× geomean over no prefetching
//! (up to 2.4× on SPMV) and 2.35× over software prefetching.

use maple_bench::experiments::{find, prefetch_suite, stall_rows_by_variant};
use maple_bench::{FigureReport, SpeedupTable};

fn main() {
    maple_bench::cli::no_arguments("fig09");
    let run = prefetch_suite();
    let rows = run.rows;
    let mut report = FigureReport::new(
        "fig09",
        "Figure 9 — prefetching IMAs, single thread",
        "LIMA 1.73x geomean over no-prefetch (2.4x SPMV); 2.35x over sw-prefetch",
    );
    let mut table = SpeedupTable::new(&["no-pref", "sw-pref", "maple-lima"]);
    let mut vs_sw = Vec::new();
    for (app, ds) in maple_bench::experiments::app_datasets() {
        let base = find(&rows, &app, &ds, "doall");
        let sw = find(&rows, &app, &ds, "sw-pref");
        let lima = find(&rows, &app, &ds, "maple-lima");
        table.add_row(
            format!("{app}/{ds}"),
            vec![
                1.0,
                base.cycles as f64 / sw.cycles as f64,
                base.cycles as f64 / lima.cycles as f64,
            ],
        );
        vs_sw.push(sw.cycles as f64 / lima.cycles as f64);
    }
    let g = table.geomeans();
    report.line("LIMA over no prefetching (geomean)", g[2], "x", "1.73x");
    report.line(
        "LIMA over software prefetching (geomean)",
        maple_sim::stats::geomean(&vs_sw),
        "x",
        "2.35x",
    );
    report.table = Some(table);
    report.stalls = stall_rows_by_variant(&rows, &["doall", "sw-pref", "maple-lima"]);
    report.fleet = Some(run.fleet);
    report.emit();
}
