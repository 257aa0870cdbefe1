//! Figure 12: MAPLE vs DeSC vs DROPLET vs do-all (2 threads, simulated
//! system).
//!
//! Paper result: MAPLE achieves 1.72× geomean over DeSC and 1.82× over
//! DROPLET, up to 3× over do-all on BFS; DeSC loses runahead on BFS; the
//! SPMM slicer falls back to do-all; MAPLE reaches ≥76 % of DeSC on the
//! decoupling-friendly kernels.

use maple_bench::experiments::{find, prior_work_suite, stall_rows_by_variant};
use maple_bench::{FigureReport, SpeedupTable};
use maple_sim::stats::geomean;

fn main() {
    maple_bench::cli::no_arguments("fig12");
    let rows = prior_work_suite();
    let mut report = FigureReport::new(
        "fig12",
        "Figure 12 — prior-work comparison (2 threads)",
        "MAPLE 1.72x over DeSC, 1.82x over DROPLET; up to 3x over doall on BFS",
    );
    let mut table = SpeedupTable::new(&["doall", "droplet", "desc", "maple-dec"]);
    let (mut vs_desc, mut vs_droplet) = (Vec::new(), Vec::new());
    for (app, ds) in maple_bench::experiments::app_datasets() {
        let base = find(&rows, &app, &ds, "doall");
        let droplet = find(&rows, &app, &ds, "droplet");
        let desc = find(&rows, &app, &ds, "desc");
        let maple = find(&rows, &app, &ds, "maple-dec");
        table.add_row(
            format!("{app}/{ds}"),
            vec![
                1.0,
                base.cycles as f64 / droplet.cycles as f64,
                base.cycles as f64 / desc.cycles as f64,
                base.cycles as f64 / maple.cycles as f64,
            ],
        );
        vs_desc.push(desc.cycles as f64 / maple.cycles as f64);
        vs_droplet.push(droplet.cycles as f64 / maple.cycles as f64);
    }
    report.line("MAPLE over DeSC (geomean)", geomean(&vs_desc), "x", "1.72x");
    report.line(
        "MAPLE over DROPLET (geomean)",
        geomean(&vs_droplet),
        "x",
        "1.82x",
    );
    report.table = Some(table);
    report.stalls =
        stall_rows_by_variant(&rows, &["doall", "droplet", "desc", "maple-dec"]);
    report.emit();
}
