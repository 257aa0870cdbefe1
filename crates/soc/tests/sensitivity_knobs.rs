//! Tests for the sensitivity-study knobs: the configuration parameters
//! the Figure 15 and Section 5.3 sweeps rely on must have the modelled
//! effect.

use maple_isa::builder::ProgramBuilder;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;

/// Builds a produce/consume ping-pong and returns its completion time.
fn roundtrip_cycles(cfg: SocConfig) -> u64 {
    let mut sys = System::new(cfg);
    let maple_va = sys.map_maple(0);
    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let v = b.reg("v");
    let i = b.reg("i");
    let api = MapleApi::new(base);
    b.li(i, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, 20, done);
    b.li(v, 1);
    api.produce(&mut b, 0, v);
    api.consume(&mut b, 0, v, 4);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
    let out = sys.run(1_000_000);
    assert!(out.is_finished());
    out.cycle().0
}

#[test]
fn maple_extra_latency_increases_roundtrip_monotonically() {
    let base = roundtrip_cycles(SocConfig::fpga_prototype());
    let mut prev = base;
    for extra in [10u64, 30, 80] {
        let c = roundtrip_cycles(SocConfig::fpga_prototype().with_maple_extra_latency(extra));
        assert!(
            c > prev,
            "extra latency {extra} should slow the ping-pong: {c} vs {prev}"
        );
        prev = c;
    }
    // The knob's full effect is visible: +80 pipeline cycles per
    // iteration over 20 iterations is at least 1600 cycles.
    assert!(prev >= base + 1500, "{prev} vs {base}");
}

#[test]
fn uncore_latency_knob_slows_every_message() {
    let mut slow = SocConfig::fpga_prototype();
    slow.uncore_latency = 20;
    let fast = roundtrip_cycles(SocConfig::fpga_prototype());
    let slowc = roundtrip_cycles(slow);
    assert!(slowc > fast, "uncore {slowc} vs {fast}");
}

#[test]
fn queue_entry_knob_reshapes_engine() {
    let cfg = SocConfig::fpga_prototype().with_queue_entries(16);
    let sys = System::new(cfg);
    assert_eq!(sys.engine(0).queue(0).capacity(), 16);
    // 8 queues × 16 × 4 B = 512 B still fits: count stays 8.
    assert_eq!(sys.engine(0).config().queues, 8);

    let cfg = SocConfig::fpga_prototype().with_queue_entries(128);
    let sys = System::new(cfg);
    assert_eq!(sys.engine(0).queue(0).capacity(), 128);
    assert_eq!(sys.engine(0).config().queues, 2, "scratchpad-bounded");
}

#[test]
fn multiple_engines_have_distinct_pages_and_work() {
    let cfg = SocConfig::fpga_prototype().with_maples(2);
    let mut sys = System::new(cfg);
    let va0 = sys.map_maple(0);
    let va1 = sys.map_maple(1);
    assert_ne!(va0, va1);

    // One core drives both engines through their separate pages.
    let mut b = ProgramBuilder::new();
    let m0 = b.reg("m0");
    let m1 = b.reg("m1");
    let v = b.reg("v");
    let w = b.reg("w");
    let api0 = MapleApi::new(m0);
    let api1 = MapleApi::new(m1);
    b.li(v, 111);
    api0.produce(&mut b, 0, v);
    b.li(v, 222);
    api1.produce(&mut b, 0, v);
    api0.consume(&mut b, 0, v, 4);
    api1.consume(&mut b, 0, w, 4);
    b.halt();
    let core = sys.load_program(b.build().unwrap(), &[(m0, va0.0), (m1, va1.0)]);
    assert!(sys.run(1_000_000).is_finished());
    assert_eq!(sys.core(core).reg(v), 111);
    assert_eq!(sys.core(core).reg(w), 222);
}
