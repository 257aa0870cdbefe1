//! Tables 2 and 3: the evaluation configurations.

use maple_bench::print_banner;
use maple_soc::config::SocConfig;

fn print_config(cfg: &SocConfig) {
    println!("MAPLE instances / scratchpad      {} / {} B", cfg.maples, cfg.maple.scratchpad_bytes);
    println!("queues x entries x entry bytes    {} x {} x {}", cfg.maple.queues, cfg.maple.default_entries, cfg.maple.default_entry_bytes);
    println!("core count / threads per core     {} / 1", cfg.cores);
    println!("core type                         single-issue in-order, blocking loads (window 1)");
    println!("L1D per core / latency            {} KB {}-way / {}-cycle", cfg.cpu.l1.size_bytes / 1024, cfg.cpu.l1.ways, cfg.cpu.l1.hit_latency);
    println!("L2 shared / latency               {} KB {}-way / {}-cycle", cfg.l2.size_bytes / 1024, cfg.l2.ways, cfg.l2.latency);
    println!("DRAM latency                      {}-cycle", cfg.dram.latency);
    println!("core/engine TLB entries           {} / {}", cfg.cpu.tlb_entries, cfg.maple.tlb_entries);
    println!("NoC                               {}x{} mesh, 1 cycle/hop, XY routing", cfg.mesh_width, cfg.mesh_height);
}

fn main() {
    maple_bench::cli::no_arguments("tables");
    print_banner(
        "Table 2 — SoC configuration (FPGA prototype equivalent)",
        "OpenPiton + Ariane, 2 cores, 1 MAPLE, Linux-style VM services",
    );
    print_config(&SocConfig::fpga_prototype());

    println!();
    print_banner(
        "Table 3 — simulated system (prior-work comparison)",
        "identical memory timing; instruction window of 1",
    );
    print_config(&SocConfig::simulated_system());
}
