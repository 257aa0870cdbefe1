//! Ablation: scaling MAPLE *instances* with thread count.
//!
//! Figure 13 shares a single engine among all pairs; its SPMV result
//! degrades at 8 threads because four pairs saturate one engine's MMU
//! walker. The paper's remedy — "more units can be employed for larger
//! thread counts in a tiled manner" — is quantified here: 8 threads
//! (4 Access/Execute pairs) over 1, 2 and 4 MAPLE instances.

use maple_bench::instances;
use maple_bench::{print_banner, SpeedupTable};
use maple_workloads::Variant;

fn main() {
    maple_bench::cli::no_arguments("ablation_maple_scaling");
    print_banner(
        "Ablation — 8 threads, scaling MAPLE instances",
        "tiled MAPLE units recover the decoupling speedup at high thread counts",
    );
    let spmv = instances::spmv().remove(0).1;
    let threads = 8;
    let doall = spmv.run(Variant::Doall, threads).cycles;

    let engines = [1usize, 2, 4];
    let labels: Vec<String> = engines.iter().map(|e| format!("{e} MAPLE")).collect();
    let cols: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut table = SpeedupTable::new(&cols);

    let cells = engines
        .iter()
        .map(|&e| {
            eprintln!("[ablation] spmv 8t {e} engines...");
            let s = spmv.run_tuned(Variant::MapleDecoupled, threads, |c| c.with_maples(e));
            assert!(s.verified);
            doall as f64 / s.cycles as f64
        })
        .collect();
    table.add_row("spmv/riscv-s (8t)", cells);
    table.print();
    println!("\n(cells: MAPLE-decoupled speedup over 8-thread do-all)");
}
