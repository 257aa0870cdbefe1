//! Figure 10: load-instruction overhead of prefetching, normalized to no
//! prefetching.
//!
//! Paper result: software prefetching roughly doubles the number of load
//! instructions (the re-computed indices), while MAPLE *reduces* them
//! slightly — wide consumes pop two 32-bit words per load.

use maple_bench::experiments::{find, prefetch_suite, stall_rows_by_variant};
use maple_bench::{FigureReport, SpeedupTable};

fn main() {
    maple_bench::cli::no_arguments("fig10");
    let run = prefetch_suite();
    let rows = run.rows;
    let mut report = FigureReport::new(
        "fig10",
        "Figure 10 — normalized load-instruction count (single thread)",
        "sw-prefetch ≈ 2x loads; MAPLE slightly below 1x",
    );
    let mut table = SpeedupTable::new(&["no-pref", "sw-pref", "maple-lima"]);
    for (app, ds) in maple_bench::experiments::app_datasets() {
        let base = find(&rows, &app, &ds, "doall");
        let sw = find(&rows, &app, &ds, "sw-pref");
        let lima = find(&rows, &app, &ds, "maple-lima");
        table.add_row(
            format!("{app}/{ds}"),
            vec![
                1.0,
                sw.loads as f64 / base.loads as f64,
                lima.loads as f64 / base.loads as f64,
            ],
        );
    }
    let g = table.geomeans();
    report.line("sw-prefetch load overhead (geomean)", g[1], "x", "~2x");
    report.line("MAPLE load count (geomean)", g[2], "x", "slightly < 1x");
    report.table = Some(table);
    report.stalls = stall_rows_by_variant(&rows, &["doall", "sw-pref", "maple-lima"]);
    report.fleet = Some(run.fleet);
    report.emit();
}
