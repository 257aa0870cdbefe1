//! Software pipelining across cores through MAPLE queues.
//!
//! The paper's conclusion envisions reusing MAPLE "to do pipelining,
//! where each program stage is executed in a different off-the-shelf core
//! or accelerator". This example builds a three-stage pipeline over one
//! engine:
//!
//!   stage 0 (gather):    pointer-produces A[B[i]] into queue 0
//!   stage 1 (transform): consumes queue 0, squares and biases the value,
//!                        produces into queue 1
//!   stage 2 (writeback): consumes queue 1 and stores the result
//!
//! All three cores run concurrently; the queues provide both the
//! communication and the latency tolerance.
//!
//! Run with: `cargo run --release -p maple-bench --example pipeline_stages`

use maple_isa::builder::ProgramBuilder;
use maple_soc::config::SocConfig;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;

const N: u64 = 600;

fn main() {
    let mut cfg = SocConfig::fpga_prototype().with_cores(3);
    cfg.cores = 3;
    let mut sys = System::new(cfg);
    let maple_va = sys.map_maple(0);

    // Data: A is a large gather target, B random indices into it.
    let mut rng = maple_sim::rng::SimRng::seed(7);
    let a: Vec<u32> = (0..32 * 1024).map(|_| rng.below(1 << 12) as u32).collect();
    let bidx: Vec<u32> = (0..N).map(|_| rng.below(a.len() as u64) as u32).collect();
    let a_va = sys.alloc((a.len() * 4) as u64);
    sys.write_slice_u32(a_va, &a);
    let b_va = sys.alloc((bidx.len() * 4) as u64);
    sys.write_slice_u32(b_va, &bidx);
    let out_va = sys.alloc(N * 4);

    let expected: Vec<u32> = bidx
        .iter()
        .map(|&i| {
            let v = a[i as usize];
            v.wrapping_mul(v).wrapping_add(13)
        })
        .collect();

    // Stage 0: gather.
    let mut b = ProgramBuilder::new();
    let mbase = b.reg("maple");
    let api = MapleApi::new(mbase);
    let bb = b.reg("b");
    let aa = b.reg("a");
    let i = b.reg("i");
    let idx = b.reg("idx");
    let ptr = b.reg("ptr");
    let tmp = b.reg("tmp");
    b.li(i, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, N as i64, done);
    b.load_indexed(idx, bb, i, 2, 4, tmp);
    b.index_addr(ptr, aa, idx, 2);
    api.produce_ptr(&mut b, 0, ptr);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    sys.load_program(
        b.build().unwrap(),
        &[(mbase, maple_va.0), (bb, b_va.0), (aa, a_va.0)],
    );

    // Stage 1: transform (no memory access at all — pure queue-to-queue).
    let mut b = ProgramBuilder::new();
    let mbase = b.reg("maple");
    let api = MapleApi::new(mbase);
    let i = b.reg("i");
    let v = b.reg("v");
    b.li(i, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, N as i64, done);
    api.consume(&mut b, 0, v, 4);
    b.mul(v, v, v);
    b.addi(v, v, 13);
    api.produce(&mut b, 1, v);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    sys.load_program(b.build().unwrap(), &[(mbase, maple_va.0)]);

    // Stage 2: writeback.
    let mut b = ProgramBuilder::new();
    let mbase = b.reg("maple");
    let api = MapleApi::new(mbase);
    let out = b.reg("out");
    let i = b.reg("i");
    let v = b.reg("v");
    let tmp = b.reg("tmp");
    b.li(i, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, N as i64, done);
    api.consume(&mut b, 1, v, 4);
    b.store_indexed(v, out, i, 2, 4, tmp);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    sys.load_program(b.build().unwrap(), &[(mbase, maple_va.0), (out, out_va.0)]);

    let outcome = sys.run(50_000_000);
    assert!(outcome.is_finished(), "pipeline wedged");
    let got = sys.read_slice_u32(out_va, N as usize);
    assert_eq!(got, expected, "pipeline result diverged");

    println!(
        "three-stage pipeline over one MAPLE: {N} elements in {}",
        outcome.cycle()
    );
    println!(
        "per-element steady-state cost: {:.1} cycles",
        outcome.cycle().0 as f64 / N as f64
    );
    println!("results verified against the host reference ✓");
}
