//! Figure 13: thread scaling — decoupled pairs sharing a single MAPLE
//! unit vs equal-thread do-all.
//!
//! Paper result: the decoupling speedup over do-all is maintained when
//! scaling from 2 to 4 and 8 threads sharing one MAPLE instance.

use maple_bench::instances;
use maple_bench::{FigureReport, SpeedupTable};
use maple_trace::StallRow;
use maple_workloads::{RunStats, Variant};

fn main() {
    maple_bench::cli::no_arguments("fig13");
    let mut report = FigureReport::new(
        "fig13",
        "Figure 13 — scaling threads over one shared MAPLE",
        "speedup over do-all holds at 2, 4 and 8 threads",
    );
    let mut table = SpeedupTable::new(&["2 threads", "4 threads", "8 threads"]);
    let mut stalls: Vec<StallRow> = Vec::new();

    // The decoupling-friendly kernels (the figure's subjects).
    let spmv = instances::spmv().remove(0).1;
    let sdhp = instances::sdhp().remove(0).1;
    let bfs = instances::bfs().remove(0).1;

    let mut row = |label: &str, f: &dyn Fn(Variant, usize) -> RunStats| {
        let mut cells = Vec::new();
        for t in [2usize, 4, 8] {
            eprintln!("[fig13] {label} t={t}...");
            let doall = f(Variant::Doall, t);
            let maple = f(Variant::MapleDecoupled, t);
            cells.push(doall.cycles as f64 / maple.cycles as f64);
            stalls.push(StallRow {
                label: format!("{label} maple t={t}"),
                core_cycles: maple.core_cycles,
                breakdown: maple.stall,
            });
        }
        table.add_row(label.to_owned(), cells);
    };

    row("spmv/riscv-s", &|v, t| spmv.run(v, t));
    row("sdhp/suitesparse", &|v, t| sdhp.run(v, t));
    row("bfs/wiki", &|v, t| bfs.run(v, t));

    report.table = Some(table);
    report.stalls = stalls;
    report.emit();
    println!("\n(each cell: MAPLE-decoupled speedup over do-all at the same thread count)");
}
