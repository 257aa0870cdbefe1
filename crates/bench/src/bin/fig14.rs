//! Figure 14: round-trip latency breakdown of core-to-MAPLE
//! communication.
//!
//! Paper result: the consume round trip costs ≈25 cycles plus one cycle
//! per NoC hop — similar to an L2 access and an order of magnitude below
//! DRAM.

use maple_bench::rtt::measure_roundtrip;
use maple_bench::FigureReport;
use maple_soc::config::SocConfig;

fn main() {
    maple_bench::cli::no_arguments("fig14");
    let mut report = FigureReport::new(
        "fig14",
        "Figure 14 — core-to-MAPLE round-trip latency breakdown",
        "≈25 cycles + 1 per hop; similar to L2, ~10x below DRAM",
    );
    let cfg = SocConfig::fpga_prototype();
    let modelled = 2 * cfg.cpu.l1.hit_latency
        + 2 * cfg.uncore_latency
        + 2
        + cfg.maple.decode_latency
        + cfg.maple.respond_latency;
    let rtt = measure_roundtrip(cfg.clone());
    let dram = cfg.l2.latency + cfg.dram.latency;

    report.line("modelled round trip", modelled as f64, "cy", "~25 + hops");
    report.line(
        "measured mean consume round trip",
        rtt.mean_rtt,
        "cy",
        "~25 + hops",
    );
    report.line(
        "DRAM access for comparison",
        dram as f64,
        "cy",
        "~10x slower than the round trip",
    );
    report.stalls = rtt.stalls;
    report.emit();

    println!("\nmodelled step breakdown (one way and back):");
    println!(
        "  L1 miss handling + core retire     {:>3} cy",
        2 * cfg.cpu.l1.hit_latency
    );
    println!(
        "  tile uncore (L1.5 + NoC codec) x2  {:>3} cy",
        2 * cfg.uncore_latency
    );
    println!("  NoC hops (adjacent tiles) x2       {:>3} cy", 2);
    println!(
        "  MAPLE decode pipeline              {:>3} cy",
        cfg.maple.decode_latency
    );
    println!(
        "  MAPLE consume + respond            {:>3} cy",
        cfg.maple.respond_latency
    );
    println!("  ------------------------------------------");
    println!("  modelled total                     {modelled:>3} cy");
    assert!(
        (15.0..45.0).contains(&rtt.mean_rtt),
        "round trip should be L2-scale"
    );
}
