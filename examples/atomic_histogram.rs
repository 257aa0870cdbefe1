//! The RMW-produce extension: building a histogram with atomics offloaded
//! to MAPLE.
//!
//! The paper notes MAPLE's programming model is "easily extensible to
//! incorporate … Read-Modify-Write atomic operations" (Section 3). This
//! example exercises that extension: a core increments random histogram
//! buckets either with blocking core atomics (each a ~45-cycle round trip
//! to the L2) or by pointer-producing `PRODUCE_AMO_ADD` operations into a
//! MAPLE queue — fire-and-forget stores whose old values stream back for
//! any code that wants them.
//!
//! Run with: `cargo run --release -p maple-bench --example atomic_histogram`

use maple_isa::builder::ProgramBuilder;
use maple_isa::AtomicOp;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;

const BUCKETS: usize = 4096;
const UPDATES: u64 = 2000;

fn keys() -> Vec<u32> {
    let mut rng = maple_sim::rng::SimRng::seed(1234);
    (0..UPDATES)
        .map(|_| rng.below(BUCKETS as u64) as u32)
        .collect()
}

fn reference() -> Vec<u32> {
    let mut h = vec![0u32; BUCKETS];
    for k in keys() {
        h[k as usize] += 1;
    }
    h
}

/// Baseline: the core performs every fetch-add itself (blocking).
fn run_core_atomics() -> (u64, Vec<u32>) {
    let mut sys = System::new(SocConfig::fpga_prototype());
    let ks = keys();
    let keys_va = sys.alloc((ks.len() * 4) as u64);
    sys.write_slice_u32(keys_va, &ks);
    let hist_va = sys.alloc((BUCKETS * 4) as u64);

    let mut b = ProgramBuilder::new();
    let keys_r = b.reg("keys");
    let hist_r = b.reg("hist");
    let i = b.reg("i");
    let k = b.reg("k");
    let one = b.reg("one");
    let old = b.reg("old");
    let tmp = b.reg("tmp");
    b.li(i, 0);
    b.li(one, 1);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, UPDATES as i64, done);
    b.load_indexed(k, keys_r, i, 2, 4, tmp);
    b.index_addr(tmp, hist_r, k, 2);
    b.amo(AtomicOp::Add, old, tmp, 0, 4, one, b.zero());
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    sys.load_program(
        b.build().unwrap(),
        &[(keys_r, keys_va.0), (hist_r, hist_va.0)],
    );
    let out = sys.run(100_000_000);
    assert!(out.is_finished());
    let hist = sys.read_slice_u32(hist_va, BUCKETS);
    (out.cycle().0, hist)
}

/// Extension: fetch-adds are pointer-produced to MAPLE; the core drains
/// the old values with wide consumes (two per load).
fn run_maple_amo() -> (u64, Vec<u32>) {
    let mut sys = System::new(SocConfig::fpga_prototype());
    let maple_va = sys.map_maple(0);
    let ks = keys();
    let keys_va = sys.alloc((ks.len() * 4) as u64);
    sys.write_slice_u32(keys_va, &ks);
    let hist_va = sys.alloc((BUCKETS * 4) as u64);

    let mut b = ProgramBuilder::new();
    let api_base = b.reg("maple");
    let api = MapleApi::new(api_base);
    let keys_r = b.reg("keys");
    let hist_r = b.reg("hist");
    let i = b.reg("i");
    let drained = b.reg("drained");
    let k = b.reg("k");
    let one = b.reg("one");
    let sink = b.reg("sink");
    let tmp = b.reg("tmp");
    b.li(one, 1);
    api.set_amo_operand(&mut b, 0, one);
    b.li(i, 0);
    b.li(drained, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, UPDATES as i64, done);
    b.load_indexed(k, keys_r, i, 2, 4, tmp);
    b.index_addr(tmp, hist_r, k, 2);
    api.produce_amo_add(&mut b, 0, tmp);
    // Drain two old values for every two produced (wide consume), with a
    // 16-update pipeline of runahead.
    let no_drain = b.label("no_drain");
    b.addi(tmp, drained, 16);
    b.bge(tmp, i, no_drain);
    api.consume(&mut b, 0, sink, 8);
    b.addi(drained, drained, 2);
    b.bind(no_drain);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    // Flush the remaining old values.
    let flush = b.here("flush");
    let flushed = b.label("flushed");
    b.bge(drained, UPDATES as i64, flushed);
    api.consume(&mut b, 0, sink, 8);
    b.addi(drained, drained, 2);
    b.jump(flush);
    b.bind(flushed);
    b.halt();
    sys.load_program(
        b.build().unwrap(),
        &[
            (api_base, maple_va.0),
            (keys_r, keys_va.0),
            (hist_r, hist_va.0),
        ],
    );
    let out = sys.run(100_000_000);
    assert!(out.is_finished());
    let hist = sys.read_slice_u32(hist_va, BUCKETS);
    (out.cycle().0, hist)
}

fn main() {
    let expect = reference();
    println!("histogram: {UPDATES} atomic increments over {BUCKETS} buckets\n");

    let (core_cycles, core_hist) = run_core_atomics();
    assert_eq!(core_hist, expect, "core atomics diverged");
    println!("core atomics (blocking):   {core_cycles:>9} cycles   1.00x");

    let (maple_cycles, maple_hist) = run_maple_amo();
    assert_eq!(maple_hist, expect, "MAPLE AMO produce diverged");
    println!(
        "MAPLE PRODUCE_AMO_ADD:     {maple_cycles:>9} cycles   {:.2}x",
        core_cycles as f64 / maple_cycles as f64
    );
}
