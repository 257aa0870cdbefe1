//! Figure 15: sensitivity to the core-to-MAPLE communication latency.
//!
//! Paper result: decoupling speedups grow as the NoC round trip shrinks;
//! the figure sweeps the average round-trip latency.

use maple_bench::instances;
use maple_bench::{FigureReport, SpeedupTable};
use maple_trace::StallRow;
use maple_workloads::Variant;

fn main() {
    maple_bench::cli::no_arguments("fig15");
    let mut report = FigureReport::new(
        "fig15",
        "Figure 15 — speedup vs core-to-MAPLE round-trip latency",
        "lower NoC delay → greater decoupling benefit",
    );
    // Extra pipeline cycles added on top of the ~25-cycle baseline round
    // trip: the sweep points approximate RTTs of ~25, ~50, ~100 cycles.
    let sweep: [(u64, &str); 3] = [(0, "~25"), (25, "~50"), (75, "~100")];

    let spmv = instances::spmv().remove(0).1;
    let sdhp = instances::sdhp().remove(0).1;
    let labels: Vec<String> = sweep.iter().map(|(_, l)| format!("rtt {l}")).collect();
    let cols: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut table = SpeedupTable::new(&cols);
    let mut stalls: Vec<StallRow> = Vec::new();

    {
        let mut cells = Vec::new();
        for (extra, rtt) in sweep {
            eprintln!("[fig15] spmv extra={extra}...");
            let doall = spmv.run(Variant::Doall, 2).cycles;
            let maple = spmv.run_tuned(Variant::MapleDecoupled, 2, |c| {
                c.with_maple_extra_latency(extra)
            });
            cells.push(doall as f64 / maple.cycles as f64);
            stalls.push(StallRow {
                label: format!("spmv maple rtt {rtt}"),
                core_cycles: maple.core_cycles,
                breakdown: maple.stall,
            });
        }
        table.add_row("spmv/riscv-s", cells);
    }
    {
        let mut cells = Vec::new();
        for (extra, rtt) in sweep {
            eprintln!("[fig15] sdhp extra={extra}...");
            let doall = sdhp.run(Variant::Doall, 2).cycles;
            let maple = sdhp.run_tuned(Variant::MapleDecoupled, 2, |c| {
                c.with_maple_extra_latency(extra)
            });
            cells.push(doall as f64 / maple.cycles as f64);
            stalls.push(StallRow {
                label: format!("sdhp maple rtt {rtt}"),
                core_cycles: maple.core_cycles,
                breakdown: maple.stall,
            });
        }
        table.add_row("sdhp/suitesparse", cells);
    }

    report.table = Some(table);
    report.stalls = stalls;
    report.emit();
    println!("\n(cells: MAPLE-decoupled speedup over 2-thread do-all at each RTT)");
}
