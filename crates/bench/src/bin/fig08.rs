//! Figure 8: decoupling speedups over 2-thread do-all parallelism.
//!
//! Paper result: MAPLE decoupling achieves 1.51× geomean over do-all and
//! 2.27× over software-only decoupling — software decoupling alone is
//! *slower* than do-all on in-order cores.

use maple_bench::experiments::{decoupling_suite, find, stall_rows_by_variant};
use maple_bench::{FigureReport, SpeedupTable};

fn main() {
    maple_bench::cli::no_arguments("fig08");
    let rows = decoupling_suite();
    let mut report = FigureReport::new(
        "fig08",
        "Figure 8 — decoupling (1 Access + 1 Execute) vs 2-thread do-all",
        "MAPLE 1.51x geomean over doall; 2.27x over software decoupling",
    );
    let mut table = SpeedupTable::new(&["doall", "sw-dec", "maple-dec"]);
    let mut sw_ratio = Vec::new();
    for (app, ds) in maple_bench::experiments::app_datasets() {
        let base = find(&rows, &app, &ds, "doall");
        let sw = find(&rows, &app, &ds, "sw-dec");
        let maple = find(&rows, &app, &ds, "maple-dec");
        table.add_row(
            format!("{app}/{ds}"),
            vec![
                1.0,
                base.cycles as f64 / sw.cycles as f64,
                base.cycles as f64 / maple.cycles as f64,
            ],
        );
        sw_ratio.push(sw.cycles as f64 / maple.cycles as f64);
    }
    let g = table.geomeans();
    report.line(
        "MAPLE over software decoupling (geomean)",
        maple_sim::stats::geomean(&sw_ratio),
        "x",
        "2.27x",
    );
    report.line("MAPLE over doall (geomean)", g[2], "x", "1.51x");
    report.table = Some(table);
    report.stalls = stall_rows_by_variant(&rows, &["doall", "sw-dec", "maple-dec"]);
    report.emit();
}
