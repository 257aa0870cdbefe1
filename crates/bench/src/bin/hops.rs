//! Placement study: consume round-trip latency vs core↔MAPLE hop
//! distance.
//!
//! Figure 14 characterizes the round trip as "≈25 cycles plus a cycle per
//! hop", and Section 5.3 notes MAPLE instances are scattered across the
//! mesh so the OS can map a nearby instance. Here one MAPLE is placed at
//! increasing Manhattan distances from core 0 on a 6×6 mesh and the mean
//! consume latency is measured: the slope should be ~2 cycles per hop
//! (one each way).

use maple_bench::print_banner;
use maple_isa::builder::ProgramBuilder;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;

fn measure(placement: (u16, u16)) -> f64 {
    let mut cfg = SocConfig::fpga_prototype();
    cfg.mesh_width = 6;
    cfg.mesh_height = 6;
    cfg.maple_tile_override = Some(vec![placement]);
    let mut sys = System::new(cfg);
    let maple_va = sys.map_maple(0);
    let reps = 24u64;
    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let v = b.reg("v");
    let i = b.reg("i");
    let api = MapleApi::new(base);
    b.li(v, 1);
    for _ in 0..reps {
        api.produce(&mut b, 0, v);
    }
    for _ in 0..200 {
        b.nop();
    }
    b.li(i, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, reps as i64, done);
    api.consume(&mut b, 0, v, 4);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
    assert!(sys.run(10_000_000).is_finished());
    sys.mean_load_latency()
}

fn main() {
    maple_bench::cli::no_arguments("hops");
    print_banner(
        "Placement study — consume round trip vs hop distance",
        "≈25 cycles + 1 per hop (Figure 14); OS maps a nearby instance",
    );
    // Core 0 sits at (0,0); sweep the engine along the diagonal-ish path.
    let placements: [((u16, u16), u64); 5] = [
        ((1, 1), 2),
        ((3, 1), 4),
        ((3, 3), 6),
        ((5, 3), 8),
        ((5, 5), 10),
    ];
    println!("{:<12}{:>8}{:>16}", "MAPLE tile", "hops", "mean RTT (cy)");
    let mut prev: Option<(u64, f64)> = None;
    for (tile, hops) in placements {
        let rtt = measure(tile);
        println!("({},{}){:>13}{:>15.1}", tile.0, tile.1, hops, rtt);
        if let Some((ph, pr)) = prev {
            let slope = (rtt - pr) / (hops - ph) as f64;
            assert!(
                (0.5..4.0).contains(&slope),
                "per-hop cost should be ~1-2 cycles each way, got {slope:.2}"
            );
        }
        prev = Some((hops, rtt));
    }
    println!("\nslope ≈ 2 cycles per hop of distance (1 per hop, each way) ✓");
}
