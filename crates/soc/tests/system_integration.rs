//! Full-system integration tests: programs running on cores, through the
//! L1s, across the mesh, against MAPLE engines and the shared L2.

use maple_isa::builder::ProgramBuilder;
use maple_isa::Reg;
use maple_soc::compiler::{KernelSpec, ValueOp};
use maple_soc::config::SocConfig;
use maple_soc::runtime::{Barrier, MapleApi, BARRIER_BYTES};
use maple_soc::system::System;

fn host_reference(a: &[u32], b: &[u32], c: &[u32]) -> (Vec<u32>, u64) {
    let res: Vec<u32> = b
        .iter()
        .zip(c)
        .map(|(&bi, &ci)| a[bi as usize].wrapping_mul(ci))
        .collect();
    let acc = res
        .iter()
        .map(|&v| u64::from(v))
        .fold(0u64, u64::wrapping_add);
    (res, acc)
}

fn make_data(n: usize, a_len: usize, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = maple_sim::rng::SimRng::seed(seed);
    let a: Vec<u32> = (0..a_len).map(|_| rng.below(1000) as u32).collect();
    let b: Vec<u32> = (0..n).map(|_| rng.below(a_len as u64) as u32).collect();
    let c: Vec<u32> = (0..n).map(|_| rng.below(100) as u32).collect();
    (a, b, c)
}

#[test]
fn doall_kernel_computes_reference_result() {
    let mut sys = System::new(SocConfig::fpga_prototype());
    let (a, b, c) = make_data(64, 512, 1);
    let (res_ref, acc_ref) = host_reference(&a, &b, &c);

    let va_a = sys.alloc((a.len() * 4) as u64);
    let va_b = sys.alloc((b.len() * 4) as u64);
    let va_c = sys.alloc((c.len() * 4) as u64);
    let va_r = sys.alloc((b.len() * 4) as u64);
    sys.write_slice_u32(va_a, &a);
    sys.write_slice_u32(va_b, &b);
    sys.write_slice_u32(va_c, &c);

    let spec = KernelSpec {
        with_stream: true,
        op: ValueOp::Mul,
        with_store: true,
    };
    let (prog, args) = spec.gen_doall();
    let core = sys.load_program(
        prog,
        &[
            (args.a, va_a.0),
            (args.b, va_b.0),
            (args.c, va_c.0),
            (args.res, va_r.0),
            (args.n, b.len() as u64),
        ],
    );
    let out = sys.run(10_000_000);
    assert!(out.is_finished(), "doall timed out");
    assert_eq!(sys.read_slice_u32(va_r, b.len()), res_ref);
    assert_eq!(sys.core(core).reg(args.acc), acc_ref);
}

#[test]
fn maple_decoupled_pair_matches_reference_and_is_faster() {
    let spec = KernelSpec {
        with_stream: true,
        op: ValueOp::Mul,
        with_store: true,
    };
    let (a, b, c) = make_data(256, 4096, 2);
    let (res_ref, _) = host_reference(&a, &b, &c);

    // Baseline: single-thread doall.
    let doall_cycles = {
        let mut sys = System::new(SocConfig::fpga_prototype());
        let va_a = sys.alloc((a.len() * 4) as u64);
        let va_b = sys.alloc((b.len() * 4) as u64);
        let va_c = sys.alloc((c.len() * 4) as u64);
        let va_r = sys.alloc((b.len() * 4) as u64);
        sys.write_slice_u32(va_a, &a);
        sys.write_slice_u32(va_b, &b);
        sys.write_slice_u32(va_c, &c);
        let (prog, args) = spec.gen_doall();
        sys.load_program(
            prog,
            &[
                (args.a, va_a.0),
                (args.b, va_b.0),
                (args.c, va_c.0),
                (args.res, va_r.0),
                (args.n, b.len() as u64),
            ],
        );
        let out = sys.run(50_000_000);
        assert!(out.is_finished());
        assert_eq!(sys.read_slice_u32(va_r, b.len()), res_ref);
        out.cycle().0
    };

    // MAPLE-decoupled: Access + Execute on two cores, one engine.
    let maple_cycles = {
        let mut sys = System::new(SocConfig::fpga_prototype());
        let maple_va = sys.map_maple(0);
        let va_a = sys.alloc((a.len() * 4) as u64);
        let va_b = sys.alloc((b.len() * 4) as u64);
        let va_c = sys.alloc((c.len() * 4) as u64);
        let va_r = sys.alloc((b.len() * 4) as u64);
        sys.write_slice_u32(va_a, &a);
        sys.write_slice_u32(va_b, &b);
        sys.write_slice_u32(va_c, &c);
        let pair = spec.gen_maple_pair(0);
        sys.load_program(
            pair.access,
            &[
                (pair.access_args.a, va_a.0),
                (pair.access_args.b, va_b.0),
                (pair.access_args.n, b.len() as u64),
                (pair.access_maple, maple_va.0),
            ],
        );
        sys.load_program(
            pair.execute,
            &[
                (pair.execute_args.c, va_c.0),
                (pair.execute_args.res, va_r.0),
                (pair.execute_args.n, b.len() as u64),
                (pair.execute_maple, maple_va.0),
            ],
        );
        let out = sys.run(50_000_000);
        assert!(out.is_finished(), "maple pair timed out");
        assert_eq!(sys.read_slice_u32(va_r, b.len()), res_ref, "bit-exact");
        out.cycle().0
    };

    assert!(
        (maple_cycles as f64) < 0.8 * doall_cycles as f64,
        "MAPLE decoupling should clearly beat 1-thread doall: {maple_cycles} vs {doall_cycles}"
    );
}

#[test]
fn desc_pair_matches_reference() {
    let spec = KernelSpec {
        with_stream: true,
        op: ValueOp::Mul,
        with_store: true,
    };
    let (a, b, c) = make_data(128, 1024, 3);
    let (res_ref, _) = host_reference(&a, &b, &c);

    let mut sys = System::new(SocConfig::simulated_system());
    let va_a = sys.alloc((a.len() * 4) as u64);
    let va_b = sys.alloc((b.len() * 4) as u64);
    let va_c = sys.alloc((c.len() * 4) as u64);
    let va_r = sys.alloc((b.len() * 4) as u64);
    sys.write_slice_u32(va_a, &a);
    sys.write_slice_u32(va_b, &b);
    sys.write_slice_u32(va_c, &c);
    let pair = spec.gen_desc_pair();
    let access = sys.load_program(
        pair.access,
        &[
            (pair.access_args.a, va_a.0),
            (pair.access_args.b, va_b.0),
            (pair.access_args.c, va_c.0),
            (pair.access_args.res, va_r.0),
            (pair.access_args.n, b.len() as u64),
        ],
    );
    let execute = sys.load_program(pair.execute, &[(pair.execute_args.n, b.len() as u64)]);
    sys.pair_desc(access, execute, 3);
    let out = sys.run(50_000_000);
    assert!(out.is_finished(), "DeSC pair timed out");
    assert_eq!(sys.read_slice_u32(va_r, b.len()), res_ref);
}

#[test]
fn mmio_consume_roundtrip_is_l2_scale_not_dram_scale() {
    // Figure 14: the consume round trip is ≈25 cycles + hops — an order
    // of magnitude below DRAM. Measure back-to-back consumes of
    // pre-produced data.
    let mut sys = System::new(SocConfig::fpga_prototype());
    let maple_va = sys.map_maple(0);

    let reps = 20u64;
    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let v = b.reg("v");
    let i = b.reg("i");
    let api = MapleApi::new(base);
    b.li(v, 5);
    // Pre-produce `reps` values.
    for _ in 0..reps {
        api.produce(&mut b, 0, v);
    }
    // Timed phase: consume them back-to-back.
    b.li(i, 0);
    let top = b.here("loop");
    let done = b.label("done");
    b.bge(i, reps as i64, done);
    api.consume(&mut b, 0, v, 4);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    let core = sys.load_program(b.build().unwrap(), &[(base, maple_va.0)]);
    let out = sys.run(1_000_000);
    assert!(out.is_finished());

    let lat = sys.core(core).l1_stats().load_latency.mean();
    assert!(
        (15.0..60.0).contains(&lat),
        "consume round trip should be L2-scale (~25+hops), got {lat:.1}"
    );
    assert!(
        lat < 100.0,
        "an order of magnitude below the 300-cycle DRAM"
    );
}

#[test]
fn lazy_allocation_faults_on_core_and_engine() {
    let mut sys = System::new(SocConfig::fpga_prototype());
    let maple_va = sys.map_maple(0);
    // Lazy array: the host writes one page's worth, then the core loads
    // from it and MAPLE gathers from it.
    let lazy = sys.alloc_lazy(3 * maple_mem::PAGE_SIZE);
    sys.write_u32(lazy, 111); // host touch maps page 0 only

    let mut b = ProgramBuilder::new();
    let base = b.reg("maple");
    let arr = b.reg("arr");
    let v1 = b.reg("v1");
    let v2 = b.reg("v2");
    let ptr = b.reg("ptr");
    let api = MapleApi::new(base);
    // Core load from the *unmapped* second page: core-side fault path.
    b.ld(v1, arr, maple_mem::PAGE_SIZE as i64, 4);
    // MAPLE gather from a different unmapped page: engine-side fault path.
    b.addi(ptr, arr, 2 * maple_mem::PAGE_SIZE as i64 + 4);
    api.produce_ptr(&mut b, 0, ptr);
    api.consume(&mut b, 0, v2, 4);
    b.halt();
    let core = sys.load_program(b.build().unwrap(), &[(base, maple_va.0), (arr, lazy.0)]);
    let out = sys.run(10_000_000);
    assert!(out.is_finished(), "faults must be serviced, not wedge");
    assert_eq!(sys.core(core).reg(v1), 0, "fresh page reads zero");
    assert_eq!(sys.core(core).reg(v2), 0);
    assert!(sys.engine(0).stats().faults.get() >= 1, "engine faulted");
}

#[test]
fn barrier_synchronizes_two_threads() {
    let mut sys = System::new(SocConfig::fpga_prototype());
    let bar_va = sys.alloc(BARRIER_BYTES);
    let flag_va = sys.alloc(64);

    // Thread 0: write flag = 42, barrier, halt.
    let mut b = ProgramBuilder::new();
    let bar_base = b.reg("bar");
    let flag = b.reg("flag");
    let v = b.reg("v");
    let barrier = Barrier::new(&mut b, bar_base, 2);
    b.li(v, 42);
    b.st(v, flag, 0, 8);
    barrier.emit(&mut b);
    b.halt();
    sys.load_program(
        b.build().unwrap(),
        &[(bar_base, bar_va.0), (flag, flag_va.0)],
    );

    // Thread 1: barrier, read flag (must observe 42).
    let mut b = ProgramBuilder::new();
    let bar_base = b.reg("bar");
    let flag = b.reg("flag");
    let got = b.reg("got");
    let barrier = Barrier::new(&mut b, bar_base, 2);
    // Burn some cycles so thread 1 reaches the barrier at a different
    // time.
    for _ in 0..50 {
        b.nop();
    }
    barrier.emit(&mut b);
    b.ld(got, flag, 0, 8);
    b.halt();
    let t1 = sys.load_program(
        b.build().unwrap(),
        &[(bar_base, bar_va.0), (flag, flag_va.0)],
    );

    let out = sys.run(1_000_000);
    assert!(out.is_finished(), "barrier deadlocked");
    assert_eq!(sys.core(t1).reg(maple_isa::Reg(3)), 42);
}

#[test]
fn open_grants_exclusive_queue_to_first_core() {
    let mut sys = System::new(SocConfig::fpga_prototype());
    let maple_va = sys.map_maple(0);

    let build_opener = |result: Reg| {
        let mut b = ProgramBuilder::new();
        let base = b.reg("maple");
        assert_eq!(result, Reg(2));
        let r = b.reg("r");
        let api = MapleApi::new(base);
        api.open(&mut b, 4, r);
        b.halt();
        (b.build().unwrap(), base)
    };
    let (p0, base0) = build_opener(Reg(2));
    let (p1, base1) = build_opener(Reg(2));
    let c0 = sys.load_program(p0, &[(base0, maple_va.0)]);
    let c1 = sys.load_program(p1, &[(base1, maple_va.0)]);
    assert!(sys.run(100_000).is_finished());
    let g0 = sys.core(c0).reg(Reg(2));
    let g1 = sys.core(c1).reg(Reg(2));
    assert_eq!(
        g0 + g1,
        1,
        "exactly one of the two cores wins the OPEN race (got {g0},{g1})"
    );
}
