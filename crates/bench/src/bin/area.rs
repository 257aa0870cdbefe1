//! Section 5.4 area analysis.
//!
//! Paper result: one MAPLE instance (8 queues, 1 KB scratchpad) occupies
//! ≈1.1 % of an Ariane core at 12 nm, and that area is amortized over up
//! to 8 cores.

use maple_bench::print_banner;
use maple_core::area::{engine_area, ARIANE_CORE_MM2};
use maple_core::MapleConfig;

fn main() {
    maple_bench::cli::no_arguments("area");
    print_banner(
        "Section 5.4 — area analysis (12 nm model)",
        "MAPLE (8 queues, 1 KB scratchpad) ≈ 1.1% of one Ariane core",
    );
    let cfg = MapleConfig::default();
    let a = engine_area(&cfg);
    println!("component                 area (mm^2)");
    println!("scratchpad SRAM           {:>12.6}", a.scratchpad);
    println!("queue controller          {:>12.6}", a.queue_controller);
    println!("MMU (TLB + PTW)           {:>12.6}", a.mmu);
    println!("pipelines + NoC codecs    {:>12.6}", a.pipelines);
    println!("LIMA unit                 {:>12.6}", a.lima);
    println!("--------------------------------------");
    println!("total                     {:>12.6}", a.total());
    println!("Ariane core               {ARIANE_CORE_MM2:>12.6}");
    println!(
        "\nMAPLE / Ariane: {:.2}%   [paper: 1.1%]",
        a.fraction_of_ariane() * 100.0
    );
    println!(
        "amortized over 8 cores: {:.3}% per core",
        a.fraction_of_ariane() * 100.0 / 8.0
    );

    // Scaling study: how the area grows with the scratchpad.
    println!("\nscratchpad scaling:");
    for kb in [1u64, 2, 4, 8] {
        let c = MapleConfig {
            scratchpad_bytes: kb * 1024,
            ..MapleConfig::default()
        };
        let area = engine_area(&c);
        println!(
            "  {kb} KB scratchpad -> {:.6} mm^2 ({:.2}% of Ariane)",
            area.total(),
            area.fraction_of_ariane() * 100.0
        );
    }
}
