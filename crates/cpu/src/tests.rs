//! Core unit tests, driven through a miniature harness that wires one or
//! two cores to a shared L2 with a fixed interconnect delay.

#![allow(clippy::explicit_counter_loop)]

use super::*;
use maple_isa::builder::ProgramBuilder;
use maple_isa::AtomicOp;
use maple_mem::dram::DramConfig;
use maple_mem::l2::{L2Config, SharedL2};
use maple_mem::phys::PAddr;
use maple_vm::page_table::{FrameAllocator, PageFlags};

/// A minimal single-tile test bench: cores talk straight to an L2 with a
/// fixed wire delay each way.
struct Bench {
    mem: PhysMem,
    frames: FrameAllocator,
    cores: Vec<Core>,
    l2: SharedL2,
    wire: u64,
    /// In-flight messages: (deliver_at, to_core, resp) / (deliver_at, req).
    to_l2: Vec<(Cycle, usize, MemReq)>,
    to_core: Vec<(Cycle, usize, MemResp)>,
}

impl Bench {
    fn new(num_cores: usize) -> (Self, PageTable) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x10_0000), 32 << 20);
        let pt = PageTable::new(&mut mem, &mut frames);
        let bench = Bench {
            mem,
            frames,
            cores: Vec::with_capacity(num_cores),
            l2: SharedL2::new(L2Config::default(), DramConfig::default()),
            wire: 2,
            to_l2: Vec::new(),
            to_core: Vec::new(),
        };
        (bench, pt)
    }

    /// Identity-maps `pages` pages at va == pa base 0x40_0000.
    fn map_data(&mut self, pt: &mut PageTable, pages: u64) -> VAddr {
        let va = VAddr(0x40_0000);
        for i in 0..pages {
            let frame = self.frames.alloc(&mut self.mem);
            pt.map(
                &mut self.mem,
                &mut self.frames,
                va.offset(i * maple_mem::PAGE_SIZE),
                frame,
                PageFlags::rw(),
            );
        }
        va
    }

    fn paddr_of(&self, pt: &PageTable, va: VAddr) -> PAddr {
        pt.translate(&self.mem, va).unwrap().paddr
    }

    fn run(&mut self, max: u64) -> Cycle {
        let mut now = Cycle::ZERO;
        for _ in 0..max {
            // Deliver due messages first.
            let mut i = 0;
            while i < self.to_l2.len() {
                if self.to_l2[i].0 <= now {
                    let (_, _, req) = self.to_l2.swap_remove(i);
                    self.l2.accept(now, req);
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < self.to_core.len() {
                if self.to_core[i].0 <= now {
                    let (_, core, resp) = self.to_core.swap_remove(i);
                    let mem = &self.mem;
                    self.cores[core].on_mem_resp(now, resp, mem);
                } else {
                    i += 1;
                }
            }
            let mut stage = WriteStage::new();
            for c in &mut self.cores {
                c.tick(now, &self.mem, &mut stage, None);
            }
            stage.apply(&mut self.mem);
            for ci in 0..self.cores.len() {
                while let Some(req) = self.cores[ci].pop_mem_request() {
                    self.to_l2.push((now.plus(self.wire), ci, req));
                }
            }
            self.l2.tick(now, &mut self.mem);
            while let Some(out) = self.l2.pop_outgoing() {
                // reply_to is defaulted in these tests; route by request id
                // owner — single core benches use core 0, dual use id
                // parity. Simpler: respond to whichever core waits on it.
                let target = self
                    .cores
                    .iter()
                    .position(|_| true)
                    .expect("at least one core");
                let _ = target;
                // Find the core with a matching outstanding id is overkill;
                // tests use one core unless stated.
                self.to_core.push((now.plus(self.wire), 0, out.resp));
            }
            if self.cores.iter().all(Core::is_halted) {
                return now;
            }
            now += 1;
        }
        panic!("bench did not finish in {max} cycles");
    }
}

fn default_core(program: maple_isa::Program, pt: PageTable) -> Core {
    Core::new(0, CpuConfig::default(), program, pt)
}

#[test]
fn alu_program_computes() {
    let (mut bench, pt) = Bench::new(1);
    let mut b = ProgramBuilder::new();
    let x = b.reg("x");
    let y = b.reg("y");
    b.li(x, 6);
    b.li(y, 7);
    b.mul(x, x, y);
    b.addi(x, x, 1);
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(x, 0);
    bench.cores.push(core);
    bench.run(100);
    assert_eq!(bench.cores[0].reg(x), 43);
    assert_eq!(bench.cores[0].stats().instructions.get(), 5);
}

#[test]
fn loop_sums_correctly() {
    let (mut bench, pt) = Bench::new(1);
    let mut b = ProgramBuilder::new();
    let i = b.reg("i");
    let n = b.reg("n");
    let acc = b.reg("acc");
    b.li(i, 0);
    b.li(n, 10);
    b.li(acc, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, n, done);
    b.add(acc, acc, i);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    bench.cores.push(default_core(b.build().unwrap(), pt));
    bench.run(1000);
    assert_eq!(bench.cores[0].reg(maple_isa::Reg(3)), 45);
}

#[test]
fn load_store_roundtrip_with_memory_timing() {
    let (mut bench, mut pt) = Bench::new(1);
    let va = bench.map_data(&mut pt, 1);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let v = b.reg("v");
    let out = b.reg("out");
    b.li(v, 0xabcd);
    b.st(v, base, 0x10, 8);
    b.ld(out, base, 0x10, 8);
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, va.0);
    bench.cores.push(core);
    let end = bench.run(5000);
    assert_eq!(bench.cores[0].reg(out), 0xabcd, "read-your-write");
    // The load missed: at least wire + L2 + DRAM ≈ 330 cycles, plus a PTW.
    assert!(end.0 > 300, "timing charged (finished at {end})");
    assert_eq!(bench.cores[0].stats().loads.get(), 1);
    assert_eq!(bench.cores[0].stats().stores.get(), 1);
}

#[test]
fn second_load_hits_l1() {
    let (mut bench, mut pt) = Bench::new(1);
    let va = bench.map_data(&mut pt, 1);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let a = b.reg("a");
    let c = b.reg("c");
    b.ld(a, base, 0, 8);
    b.ld(c, base, 8, 8); // same line
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, va.0);
    bench.cores.push(core);
    bench.run(5000);
    let s = bench.cores[0].l1_stats();
    assert_eq!(s.loads.get(), 2);
    assert_eq!(s.load_hits.get(), 1, "second load hits the fetched line");
}

#[test]
fn tlb_miss_charges_walk_once() {
    let (mut bench, mut pt) = Bench::new(1);
    let va = bench.map_data(&mut pt, 1);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let a = b.reg("a");
    b.ld(a, base, 0, 8);
    b.ld(a, base, 8, 8);
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, va.0);
    bench.cores.push(core);
    bench.run(5000);
    let walks = bench.cores[0].stats().ptw_stall_cycles.get();
    assert_eq!(
        walks,
        maple_vm::walker::walk_latency(30),
        "exactly one walk for the shared page"
    );
}

#[test]
fn unmapped_access_faults_and_resumes() {
    let (mut bench, mut pt) = Bench::new(1);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let a = b.reg("a");
    b.ld(a, base, 0, 8);
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, 0x9000_0000);
    bench.cores.push(core);

    // Drive manually until faulted.
    let mut now = Cycle::ZERO;
    let mut stage = WriteStage::new();
    for _ in 0..200 {
        bench.cores[0].tick(now, &bench.mem, &mut stage, None);
        stage.apply(&mut bench.mem);
        if bench.cores[0].state() == CoreState::Faulted {
            break;
        }
        now += 1;
    }
    let fault = bench.cores[0].fault().expect("fault raised");
    assert_eq!(fault.vaddr, VAddr(0x9000_0000));
    assert!(!fault.write);

    // OS maps the page and resumes; the load then succeeds.
    let frame = bench.frames.alloc(&mut bench.mem);
    bench.mem.write_u64(frame, 4242);
    pt.map(
        &mut bench.mem,
        &mut bench.frames,
        VAddr(0x9000_0000),
        frame,
        PageFlags::rw(),
    );
    bench.cores[0].resume_from_fault(now, 500);
    bench.run(20_000);
    assert_eq!(bench.cores[0].reg(a), 4242);
}

#[test]
fn amo_fetch_add_returns_old_value() {
    let (mut bench, mut pt) = Bench::new(1);
    let va = bench.map_data(&mut pt, 1);
    let pa = bench.paddr_of(&pt, va);
    bench.mem.write_u64(pa, 100);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let old = b.reg("old");
    let inc = b.reg("inc");
    b.li(inc, 5);
    b.amo(AtomicOp::Add, old, base, 0, 8, inc, b.zero());
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, va.0);
    bench.cores.push(core);
    bench.run(5000);
    assert_eq!(bench.cores[0].reg(old), 100);
    assert_eq!(bench.mem.read_u64(pa), 105);
    assert_eq!(bench.cores[0].stats().atomics.get(), 1);
}

#[test]
fn volatile_loads_always_travel() {
    let (mut bench, mut pt) = Bench::new(1);
    let va = bench.map_data(&mut pt, 1);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let a = b.reg("a");
    b.ld_volatile(a, base, 0, 8);
    b.ld_volatile(a, base, 0, 8);
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, va.0);
    bench.cores.push(core);
    bench.run(5000);
    assert_eq!(
        bench.cores[0].l1_stats().load_hits.get(),
        0,
        "volatile loads never hit the L1"
    );
}

#[test]
fn prefetch_does_not_block_then_load_hits() {
    let (mut bench, mut pt) = Bench::new(1);
    let va = bench.map_data(&mut pt, 1);
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let a = b.reg("a");
    b.prefetch(base, 0);
    // Occupy the core while the prefetch is in flight.
    for _ in 0..120 {
        b.nop();
    }
    b.ld(a, base, 0, 8);
    b.halt();
    let mut core = default_core(b.build().unwrap(), pt);
    core.set_reg(base, va.0);
    bench.cores.push(core);
    bench.run(10_000);
    let s = bench.cores[0].l1_stats();
    assert_eq!(s.prefetches.get(), 1);
    // DRAM latency (300) exceeds 120 nops, so this particular load may
    // still be waiting — but it must merge, not refetch.
    assert_eq!(s.loads.get(), 1);
}

#[test]
fn mmio_stores_run_ahead_until_the_buffer_fills() {
    // Map an MMIO page; acks are withheld, so the pipeline runs ahead
    // for exactly `mmio_store_outstanding` stores and then stalls.
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PAddr(0x10_0000), 4 << 20);
    let mut pt = PageTable::new(&mut mem, &mut frames);
    let dev_va = VAddr(0x8000_0000);
    pt.map(
        &mut mem,
        &mut frames,
        dev_va,
        PAddr(0xF000_0000),
        PageFlags::device(),
    );

    let cfg = CpuConfig {
        mmio_store_outstanding: 2,
        ..CpuConfig::default()
    };
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let v = b.reg("v");
    b.li(v, 7);
    for _ in 0..4 {
        b.st(v, base, 0, 8);
    }
    b.halt();
    let mut core = Core::new(0, cfg, b.build().unwrap(), pt);
    core.set_reg(base, dev_va.0);

    // Never ack: only 2 stores may issue.
    let mut issued = Vec::new();
    let mut now = Cycle::ZERO;
    let mut stage = WriteStage::new();
    for _ in 0..500 {
        core.tick(now, &mem, &mut stage, None);
        stage.apply(&mut mem);
        while let Some(req) = core.pop_mem_request() {
            assert!(req.expects_response(), "MMIO store expects an ack");
            issued.push(req);
        }
        now += 1;
    }
    assert_eq!(issued.len(), 2, "store buffer caps unacked MMIO stores");
    assert!(!core.is_halted(), "stalled awaiting acks");

    // Acks drain the buffer; the remaining stores issue and the core
    // halts.
    for req in issued.drain(..) {
        core.on_mem_resp(
            now,
            MemResp {
                id: req.id,
                data: 0,
                served_by: ServedBy::Dram,
            },
            &mem,
        );
    }
    for _ in 0..500 {
        core.tick(now, &mem, &mut stage, None);
        stage.apply(&mut mem);
        while let Some(req) = core.pop_mem_request() {
            core.on_mem_resp(
                now.plus(10),
                MemResp {
                    id: req.id,
                    data: 0,
                    served_by: ServedBy::Dram,
                },
                &mem,
            );
        }
        if core.is_halted() {
            break;
        }
        now += 1;
    }
    assert!(core.is_halted());
    assert_eq!(core.stats().stores.get(), 4);
}

#[test]
fn desc_pair_produces_and_consumes() {
    // Two programs communicating through coupled queues, run lock-step.
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(PAddr(0x10_0000), 16 << 20);
    let mut pt = PageTable::new(&mut mem, &mut frames);
    let va = VAddr(0x40_0000);
    let frame = frames.alloc(&mut mem);
    pt.map(&mut mem, &mut frames, va, frame, PageFlags::rw());
    for i in 0..8u64 {
        mem.write_u64(frame.offset(i * 8), 100 + i);
    }

    // Access: terminal-loads A[0..8] into queue 0.
    let mut b = ProgramBuilder::new();
    let base = b.reg("base");
    let i = b.reg("i");
    let n = b.reg("n");
    let addr = b.reg("addr");
    b.li(i, 0);
    b.li(n, 8);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, n, done);
    b.slli(addr, i, 3);
    b.add(addr, addr, base);
    b.desc_produce_load(0, addr, 0, 8);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    let mut access = Core::new(0, CpuConfig::default(), b.build().unwrap(), pt);
    access.set_reg(base, va.0);

    // Execute: consumes 8 values, sums them.
    let mut b = ProgramBuilder::new();
    let i = b.reg("i");
    let n = b.reg("n");
    let acc = b.reg("acc");
    let v = b.reg("v");
    b.li(i, 0);
    b.li(n, 8);
    b.li(acc, 0);
    let top = b.here("top");
    let done = b.label("done");
    b.bge(i, n, done);
    b.desc_consume(v, 0);
    b.add(acc, acc, v);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    let mut execute = Core::new(1, CpuConfig::default(), b.build().unwrap(), pt);
    let acc_reg = acc;

    let mut queues = DescQueues::new(1, 32);
    let mut l2 = SharedL2::new(L2Config::default(), DramConfig::default());
    let mut now = Cycle::ZERO;
    for _ in 0..100_000 {
        let mut stage = WriteStage::new();
        access.tick(now, &mem, &mut stage, Some(&mut queues));
        execute.tick(now, &mem, &mut stage, Some(&mut queues));
        stage.apply(&mut mem);
        while let Some(req) = access.pop_mem_request() {
            l2.accept(now, req);
        }
        l2.tick(now, &mut mem);
        while let Some(out) = l2.pop_outgoing() {
            access.on_mem_resp(now, out.resp, &mem);
        }
        if access.is_halted() && execute.is_halted() {
            break;
        }
        now += 1;
    }
    assert!(access.is_halted() && execute.is_halted());
    let expected: u64 = (0..8u64).map(|i| 100 + i).sum();
    assert_eq!(execute.reg(acc_reg), expected);
    assert!(queues.is_empty());
}

#[test]
fn zero_register_is_immutable() {
    let (mut bench, pt) = Bench::new(1);
    let mut b = ProgramBuilder::new();
    b.li(maple_isa::ZERO, 99);
    b.halt();
    bench.cores.push(default_core(b.build().unwrap(), pt));
    bench.run(100);
    assert_eq!(bench.cores[0].reg(maple_isa::ZERO), 0);
}

#[test]
fn running_off_the_end_halts() {
    let (mut bench, pt) = Bench::new(1);
    let b = ProgramBuilder::new();
    bench.cores.push(default_core(b.build().unwrap(), pt));
    bench.run(10);
    assert!(bench.cores[0].is_halted());
}
