//! Section 4.4's methodology: MAPLE's performance counters, read out
//! after a decoupled run (the FPGA evaluation used the API's debug
//! operations for the queue-size study).
//!
//! Also demonstrates the in-program path: the Execute thread reads the
//! `STAT_CONSUMED` counter through an ordinary load before halting.

use maple_bench::print_banner;
use maple_isa::builder::ProgramBuilder;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

fn main() {
    maple_bench::cli::no_arguments("counters");
    print_banner(
        "Section 4.4 — MAPLE performance counters (debug operations)",
        "queue runahead and engine activity observed through the API",
    );

    // A representative decoupled run; the harness surfaces the counters.
    let inst = Spmv {
        a: uniform_sparse(192, 64 * 1024, 8, 77),
        x: dense_vector(64 * 1024, 78),
    };
    let s = inst.run(Variant::MapleDecoupled, 2);
    assert!(s.verified);
    let (fetches, produce_stalls, consume_stalls, tlb_misses) = s.engine;
    println!("run: spmv maple-decoupled, {} cycles", s.cycles);
    println!("  engine memory fetches      {fetches}");
    println!("  produce stalls (queue full){produce_stalls:>12} cycles");
    println!("  consume stalls (data wait) {consume_stalls:>12} cycles");
    println!("  engine TLB misses          {tlb_misses}");
    println!(
        "  mean load-to-use latency   {:>12.1} cycles",
        s.mean_load_latency
    );

    // In-program counter read: produce 5 values, consume 3, read
    // STAT_PRODUCED / STAT_CONSUMED / STAT_OCCUPANCY from user mode.
    let mut sys = System::new(SocConfig::fpga_prototype());
    let maple_va = sys.map_maple(0);
    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let v = b.reg("v");
    let produced = b.reg("produced");
    let consumed = b.reg("consumed");
    let occupancy = b.reg("occupancy");
    let api = MapleApi::new(base);
    b.li(v, 9);
    for _ in 0..5 {
        api.produce(&mut b, 2, v);
    }
    for _ in 0..3 {
        api.consume(&mut b, 2, v, 4);
    }
    api.stat(&mut b, 2, maple_core::mmio::LoadOp::StatProduced, produced);
    api.stat(&mut b, 2, maple_core::mmio::LoadOp::StatConsumed, consumed);
    api.stat(&mut b, 2, maple_core::mmio::LoadOp::StatOccupancy, occupancy);
    b.halt();
    let core = sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
    assert!(sys.run(1_000_000).is_finished());
    println!("\nuser-mode counter reads on queue 2 after 5 produces / 3 consumes:");
    println!("  STAT_PRODUCED  = {}", sys.core(core).reg(produced));
    println!("  STAT_CONSUMED  = {}", sys.core(core).reg(consumed));
    println!("  STAT_OCCUPANCY = {}", sys.core(core).reg(occupancy));
    assert_eq!(sys.core(core).reg(produced), 5);
    assert_eq!(sys.core(core).reg(consumed), 3);
    assert_eq!(sys.core(core).reg(occupancy), 2);

    // Runahead observed through sampled occupancy (the §4.4 study): the
    // decoupled run above also sampled queue 0 every 64 cycles.
    println!(
        "\nqueue-0 occupancy during the decoupled run (runahead): mean {:.1} / {} entries",
        s.queue0_occupancy_mean,
        32
    );
}
