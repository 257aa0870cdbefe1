//! The Figure 14 consume round-trip microbenchmark behind the
//! `results fig14` entry.

use maple_isa::builder::ProgramBuilder;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_trace::StallRow;

/// Outcome of the round-trip microbenchmark.
#[derive(Debug)]
pub struct RttMeasurement {
    /// Mean consume round trip in cycles (the L1 load-latency histogram
    /// holds exactly the consume loads).
    pub mean_rtt: f64,
    /// Per-core stall attribution of the microbenchmark run.
    pub stalls: Vec<StallRow>,
}

/// Measures the mean consume latency for back-to-back consumes of
/// pre-produced data.
///
/// # Panics
///
/// Panics if the program fails to assemble or the run does not finish.
#[must_use]
pub fn measure_roundtrip(cfg: SocConfig) -> RttMeasurement {
    let mut sys = System::new(cfg);
    let maple_va = sys.map_maple(0);
    // Must fit in one 32-entry queue: produces precede all consumes.
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
    // Drain the produce acks before timing.
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
    RttMeasurement {
        mean_rtt: sys.mean_load_latency(),
        stalls: sys.stall_rows(),
    }
}
