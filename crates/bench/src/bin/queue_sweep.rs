//! Section 5.3 queue-size sensitivity.
//!
//! Paper result: 32 four-byte entries per queue suffice to hide latency;
//! 16 entries cost 5–10 %; performance is stable beyond that.

use maple_bench::instances;
use maple_bench::{print_banner, SpeedupTable};
use maple_workloads::Variant;

fn main() {
    maple_bench::cli::no_arguments("queue_sweep");
    print_banner(
        "Section 5.3 — queue-size sweep (entries per queue, 4 B each)",
        "32 entries suffice; 16 entries cost 5-10%",
    );
    let spmv = instances::spmv().remove(0).1;
    let sdhp = instances::sdhp().remove(0).1;
    let doall_spmv = spmv.run(Variant::Doall, 2).cycles;
    let doall_sdhp = sdhp.run(Variant::Doall, 2).cycles;

    let sizes = [8usize, 16, 32, 64];
    let labels: Vec<String> = sizes.iter().map(|s| format!("{s} entries")).collect();
    let cols: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut table = SpeedupTable::new(&cols);

    let mut row = |label: &str, doall: u64, run: &dyn Fn(usize) -> u64| {
        let cells = sizes
            .iter()
            .map(|&s| {
                eprintln!("[queue_sweep] {label} entries={s}...");
                doall as f64 / run(s) as f64
            })
            .collect();
        table.add_row(label.to_owned(), cells);
    };

    row("spmv/riscv-s", doall_spmv, &|s| {
        spmv.run_tuned(Variant::MapleDecoupled, 2, |c| c.with_queue_entries(s))
            .cycles
    });
    row("sdhp/suitesparse", doall_sdhp, &|s| {
        sdhp.run_tuned(Variant::MapleDecoupled, 2, |c| c.with_queue_entries(s))
            .cycles
    });

    table.print();
    println!("\n(cells: MAPLE-decoupled speedup over 2-thread do-all per queue size)");
}
