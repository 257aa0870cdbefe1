//! Engine unit tests: a mini-bench wires one engine to a shared L2 and
//! plays the role of the cores by injecting raw MMIO requests.

use super::engine::{Engine, MapleConfig};
use crate::mmio::{
    self, config_queue_payload, lima_go_payload, lima_range_payload, load_offset, store_offset,
    LoadOp, StoreOp,
};
use maple_mem::dram::DramConfig;
use maple_mem::l2::{L2Config, SharedL2};
use maple_mem::msg::{MemReq, MemReqKind};
use maple_mem::phys::{PAddr, PhysMem};
use maple_noc::Coord;
use maple_sim::Cycle;
use maple_vm::page_table::{FrameAllocator, PageFlags, PageTable};
use maple_vm::VAddr;

/// The engine's MMIO page physical base in these tests.
const ENGINE_PAGE: u64 = 0xF000_0000;

struct Bench {
    mem: PhysMem,
    frames: FrameAllocator,
    pt: PageTable,
    engine: Engine,
    l2: SharedL2,
    now: Cycle,
    next_id: u64,
    /// Responses the engine sent back to "cores", keyed by request id.
    acks: Vec<(u64, u64)>,
}

impl Bench {
    fn new(cfg: MapleConfig) -> Self {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x10_0000), 64 << 20);
        let pt = PageTable::new(&mut mem, &mut frames);
        let mut engine = Engine::new(cfg);
        engine.set_page_table(pt);
        Bench {
            mem,
            frames,
            pt,
            engine,
            l2: SharedL2::new(L2Config::default(), DramConfig::default()),
            now: Cycle::ZERO,
            next_id: 0,
            acks: Vec::new(),
        }
    }

    /// Installs the fault plane's engine hooks (zero rates), as the SoC
    /// does when a plane is configured; they bring the MMIO replay cache.
    fn install_fault_plane_hooks(&mut self) {
        let plane = FaultPlaneConfig::new(1);
        self.engine.set_watchdog(plane.engine_watchdog);
        self.engine.set_ack_fault(plane.ack_loss_schedule(0));
    }

    /// Maps `pages` pages of data at `va_base`, returns the phys base of
    /// the first page.
    fn map(&mut self, va_base: u64, pages: u64) -> PAddr {
        let mut first = None;
        for i in 0..pages {
            let frame = self.frames.alloc(&mut self.mem);
            first.get_or_insert(frame);
            self.pt.map(
                &mut self.mem,
                &mut self.frames,
                VAddr(va_base + i * maple_mem::PAGE_SIZE),
                frame,
                PageFlags::rw(),
            );
        }
        first.unwrap()
    }

    fn store(&mut self, op: StoreOp, q: u8, data: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.engine.accept(
            self.now,
            MemReq {
                id,
                addr: PAddr(ENGINE_PAGE + store_offset(op, q)),
                kind: MemReqKind::Write {
                    size: 8,
                    data,
                    ack: true,
                },
                reply_to: Coord::new(0, 0),
            },
        );
        id
    }

    fn load(&mut self, op: LoadOp, q: u8, size: u8) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.engine.accept(
            self.now,
            MemReq {
                id,
                addr: PAddr(ENGINE_PAGE + load_offset(op, q)),
                kind: MemReqKind::ReadWord { size },
                reply_to: Coord::new(0, 0),
            },
        );
        id
    }

    /// Runs `cycles` cycles, pumping engine ↔ L2 traffic with a 3-cycle
    /// wire delay each way (collapsed into the L2 stage for simplicity).
    fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.engine.tick(self.now, &self.mem);
            while let Some(req) = self.engine.pop_mem_request() {
                self.l2.accept(self.now, req);
            }
            self.l2.tick(self.now, &mut self.mem);
            while let Some(resp) = self.l2.pop_outgoing() {
                self.engine.on_mem_resp(self.now, resp.resp, &self.mem);
            }
            while let Some(r) = self.engine.pop_response(self.now) {
                self.acks.push((r.resp.id, r.resp.data));
            }
            self.now += 1;
        }
    }

    fn ack_of(&self, id: u64) -> Option<u64> {
        self.acks.iter().find(|(i, _)| *i == id).map(|(_, d)| *d)
    }

    /// Runs until `id` is answered (or panics after `max`).
    fn run_until_ack(&mut self, id: u64, max: u64) -> u64 {
        for _ in 0..max {
            if let Some(d) = self.ack_of(id) {
                return d;
            }
            self.run(1);
        }
        panic!("no response for request {id} within {max} cycles");
    }
}

#[test]
fn produce_then_consume_roundtrip() {
    let mut b = Bench::new(MapleConfig::default());
    let p = b.store(StoreOp::Produce, 0, 0x1234);
    b.run_until_ack(p, 100);
    let c = b.load(LoadOp::Consume, 0, 4);
    let data = b.run_until_ack(c, 100);
    assert_eq!(data, 0x1234);
    assert_eq!(b.engine.queue(0).consumed.get(), 1);
}

#[test]
fn consume_blocks_until_data_arrives() {
    let mut b = Bench::new(MapleConfig::default());
    let c = b.load(LoadOp::Consume, 0, 4);
    b.run(50);
    assert_eq!(b.ack_of(c), None, "consume buffered while queue empty");
    let p = b.store(StoreOp::Produce, 0, 77);
    b.run_until_ack(p, 100);
    assert_eq!(b.run_until_ack(c, 100), 77);
    assert!(b.engine.stats().consume_stalls.get() > 0);
}

#[test]
fn produce_ptr_fetches_from_memory_in_order() {
    let mut b = Bench::new(MapleConfig::default());
    let pa = b.map(0x4000_0000, 1);
    for i in 0..4u64 {
        b.mem.write_u32(pa.offset(i * 4), 100 + i as u32);
    }
    // Produce pointers in order; engine fetches them (DRAM latency) and
    // the consumes must observe program order.
    for i in 0..4u64 {
        let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000 + i * 4);
        b.run_until_ack(id, 5000);
    }
    for i in 0..4u64 {
        let c = b.load(LoadOp::Consume, 0, 4);
        assert_eq!(b.run_until_ack(c, 5000), 100 + i, "program order kept");
    }
    assert!(b.engine.stats().mem_fetches.get() >= 4);
}

#[test]
fn produce_ack_does_not_wait_for_dram() {
    // The store is acknowledged when the produce is accepted (slot
    // reserved), long before the 300-cycle DRAM fetch completes.
    let mut b = Bench::new(MapleConfig::default());
    b.map(0x4000_0000, 1);
    let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000);
    // First touch pays decode + PTW (~90) but never the DRAM 300.
    let mut acked_at = None;
    for _ in 0..250 {
        b.run(1);
        if b.ack_of(id).is_some() {
            acked_at = Some(b.now);
            break;
        }
    }
    let acked_at = acked_at.expect("ack must arrive before DRAM latency");
    assert!(acked_at.0 < 250, "acked at {acked_at}");
}

#[test]
fn full_queue_withholds_ack_until_drained() {
    let cfg = MapleConfig::default(); // 32 entries
    let mut b = Bench::new(cfg);
    let mut ids = Vec::new();
    for i in 0..33u64 {
        ids.push(b.store(StoreOp::Produce, 0, i));
    }
    b.run(200);
    for id in &ids[..32] {
        assert!(b.ack_of(*id).is_some(), "first 32 fit");
    }
    assert_eq!(b.ack_of(ids[32]), None, "33rd buffered: backpressure");
    // Other queues are unaffected (deadlock avoidance).
    let other = b.store(StoreOp::Produce, 1, 9);
    b.run_until_ack(other, 100);
    // Draining one entry releases the buffered produce.
    let c = b.load(LoadOp::Consume, 0, 4);
    b.run_until_ack(c, 100);
    b.run_until_ack(ids[32], 100);
}

#[test]
fn open_close_exclusivity() {
    let mut b = Bench::new(MapleConfig::default());
    let o1 = b.load(LoadOp::Open, 3, 8);
    assert_eq!(b.run_until_ack(o1, 100), 1, "first open granted");
    // Same requester re-opens fine (same coord in this bench).
    let o2 = b.load(LoadOp::Open, 3, 8);
    assert_eq!(b.run_until_ack(o2, 100), 1);
    let cl = b.store(StoreOp::Close, 3, 0);
    b.run_until_ack(cl, 100);
    let o3 = b.load(LoadOp::Open, 3, 8);
    assert_eq!(b.run_until_ack(o3, 100), 1, "open after close granted");
}

#[test]
fn config_queue_resizes_and_rejects_overflow() {
    let mut b = Bench::new(MapleConfig::default());
    // Same footprint, wider entries: 16 × 8 B replaces 32 × 4 B.
    let ok = b.store(StoreOp::ConfigQueue, 0, config_queue_payload(16, 8));
    assert_eq!(b.run_until_ack(ok, 100), 1);
    // Growing beyond the 1 KB scratchpad budget is refused.
    let too_big = b.store(StoreOp::ConfigQueue, 0, config_queue_payload(64, 8));
    assert_eq!(b.run_until_ack(too_big, 100), 0);
    // The 8-byte queue round-trips 64-bit values whole.
    let p = b.store(StoreOp::Produce, 0, u64::MAX - 1);
    b.run_until_ack(p, 100);
    let c = b.load(LoadOp::Consume, 0, 8);
    assert_eq!(b.run_until_ack(c, 100), u64::MAX - 1);
}

#[test]
fn stat_reads_report_counters() {
    let mut b = Bench::new(MapleConfig::default());
    let p = b.store(StoreOp::Produce, 2, 5);
    b.run_until_ack(p, 100);
    let s = b.load(LoadOp::StatProduced, 2, 8);
    assert_eq!(b.run_until_ack(s, 100), 1);
    let o = b.load(LoadOp::StatOccupancy, 2, 8);
    assert_eq!(b.run_until_ack(o, 100), 1);
    let c = b.load(LoadOp::StatConsumed, 2, 8);
    assert_eq!(b.run_until_ack(c, 100), 0);
}

#[test]
fn wide_consume_packs_two_entries() {
    let mut b = Bench::new(MapleConfig::default()); // 4-byte entries
    for v in [0xAAAA_AAAAu64, 0xBBBB_BBBB] {
        let id = b.store(StoreOp::Produce, 0, v);
        b.run_until_ack(id, 100);
    }
    let c = b.load(LoadOp::Consume, 0, 8);
    let data = b.run_until_ack(c, 100);
    assert_eq!(data, 0xBBBB_BBBB_AAAA_AAAA, "8B load pops two 4B entries");
}

#[test]
fn engine_page_fault_raises_and_resumes() {
    let mut b = Bench::new(MapleConfig::default());
    // Produce a pointer into unmapped space.
    let id = b.store(StoreOp::ProducePtr, 0, 0xDEAD_0000);
    b.run(400);
    assert_eq!(b.ack_of(id), None, "op stalled on the fault");
    let fault = b.engine.fault().expect("fault raised");
    assert_eq!(fault.vaddr, VAddr(0xDEAD_0000));
    // Driver reads the faulting VA through the config pipeline.
    let fv = b.load(LoadOp::FaultVa, 0, 8);
    assert_eq!(b.run_until_ack(fv, 100), 0xDEAD_0000);
    // Driver maps the page and resumes.
    let pa = b.map(0xDEAD_0000, 1);
    b.mem.write_u32(pa, 321);
    let fr = b.store(StoreOp::FaultResume, 0, 0);
    b.run_until_ack(fr, 100);
    b.run_until_ack(id, 1000);
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 5000), 321);
}

#[test]
fn tlb_shootdown_forces_rewalk() {
    let mut b = Bench::new(MapleConfig::default());
    let pa1 = b.map(0x4000_0000, 1);
    b.mem.write_u32(pa1, 1);
    let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000);
    b.run_until_ack(id, 1000);
    let misses_before = b.engine.tlb_misses();
    // Shoot the page down, then remap it elsewhere.
    let sd = b.store(StoreOp::TlbShootdown, 0, 0x4000_0000);
    b.run_until_ack(sd, 100);
    let frame2 = b.frames.alloc(&mut b.mem);
    b.mem.write_u32(frame2, 2);
    b.pt
        .map(&mut b.mem, &mut b.frames, VAddr(0x4000_0000), frame2, PageFlags::rw());
    let id2 = b.store(StoreOp::ProducePtr, 0, 0x4000_0000);
    b.run_until_ack(id2, 1000);
    assert!(b.engine.tlb_misses() > misses_before, "re-walk happened");
    // Drain both entries; the second must come from the NEW frame.
    let c1 = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c1, 5000), 1);
    let c2 = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c2, 5000), 2, "stale translation prevented");
}

#[test]
fn lima_nonspeculative_fills_queue_with_gathered_values() {
    let mut b = Bench::new(MapleConfig::default());
    // A is u32 data at 0x5000_0000; B is u32 indices at 0x6000_0000.
    let pa_a = b.map(0x5000_0000, 4);
    let pa_b = b.map(0x6000_0000, 1);
    let n = 40u64;
    for i in 0..1024u64 {
        b.mem.write_u32(pa_a.offset(i * 4), (1000 + i) as u32);
    }
    let idx: Vec<u32> = (0..n).map(|i| ((i * 37) % 1024) as u32).collect();
    for (i, &v) in idx.iter().enumerate() {
        b.mem.write_u32(pa_b.offset(i as u64 * 4), v);
    }
    // Configure and launch LIMA: gather A[B[0..n]] into queue 5.
    for (op, val) in [
        (StoreOp::LimaABase, 0x5000_0000u64),
        (StoreOp::LimaBBase, 0x6000_0000),
        (StoreOp::LimaRange, lima_range_payload(0, n as u32)),
    ] {
        let id = b.store(op, 5, val);
        b.run_until_ack(id, 100);
    }
    let go = b.store(StoreOp::LimaGo, 5, lima_go_payload(false, 4, 4));
    assert_eq!(b.run_until_ack(go, 100), 1, "command accepted");
    // Consume all n values: they must equal A[B[i]] in order.
    for (i, &bi) in idx.iter().enumerate() {
        let c = b.load(LoadOp::Consume, 5, 4);
        let v = b.run_until_ack(c, 20_000);
        assert_eq!(v, 1000 + u64::from(bi), "element {i}");
    }
    assert_eq!(b.engine.stats().lima_completed.get(), 1);
}

#[test]
fn lima_speculative_prefetches_into_llc() {
    let mut b = Bench::new(MapleConfig::default());
    let pa_a = b.map(0x5000_0000, 4);
    let pa_b = b.map(0x6000_0000, 1);
    let n = 16u64;
    for i in 0..n {
        b.mem.write_u32(pa_b.offset(i * 4), (i * 16) as u32); // distinct lines
    }
    let _ = pa_a;
    for (op, val) in [
        (StoreOp::LimaABase, 0x5000_0000u64),
        (StoreOp::LimaBBase, 0x6000_0000),
        (StoreOp::LimaRange, lima_range_payload(0, n as u32)),
    ] {
        let id = b.store(op, 0, val);
        b.run_until_ack(id, 100);
    }
    let go = b.store(StoreOp::LimaGo, 0, lima_go_payload(true, 4, 4));
    b.run_until_ack(go, 100);
    b.run(5000);
    assert!(
        b.engine.stats().llc_prefetches.get() >= n,
        "speculative LIMA issued {} LLC prefetches",
        b.engine.stats().llc_prefetches.get()
    );
    // The prefetched A lines are now resident in the L2.
    let a_pa = b.pt.translate(&b.mem, VAddr(0x5000_0000)).unwrap().paddr;
    assert!(b.l2.contains_line(a_pa));
    assert!(b.engine.is_idle());
}

#[test]
fn reset_clears_queues_but_keeps_mmu() {
    let mut b = Bench::new(MapleConfig::default());
    let p = b.store(StoreOp::Produce, 0, 1);
    b.run_until_ack(p, 100);
    let r = b.store(StoreOp::Reset, 0, 0);
    b.run_until_ack(r, 100);
    assert!(b.engine.queue(0).is_empty());
    // Engine still translates (page table kept across reset).
    b.map(0x7000_0000, 1);
    let p2 = b.store(StoreOp::ProducePtr, 0, 0x7000_0000);
    b.run_until_ack(p2, 1000);
}

#[test]
fn unknown_opcode_answers_all_ones() {
    let mut b = Bench::new(MapleConfig::default());
    let id = b.next_id;
    b.next_id += 1;
    b.engine.accept(
        b.now,
        MemReq {
            id,
            addr: PAddr(ENGINE_PAGE + (63 << 3)),
            kind: MemReqKind::ReadWord { size: 8 },
            reply_to: Coord::new(0, 0),
        },
    );
    assert_eq!(b.run_until_ack(id, 100), u64::MAX);
}

#[test]
fn prefetch_op_installs_line_in_llc() {
    // The API's speculative PREFETCH(ptr): one store, line lands in L2,
    // nothing enqueued.
    let mut b = Bench::new(MapleConfig::default());
    b.map(0x4000_0000, 1);
    let id = b.store(StoreOp::Prefetch, 0, 0x4000_0040);
    b.run_until_ack(id, 1000);
    b.run(1000);
    let pa = b
        .pt
        .translate(&b.mem, VAddr(0x4000_0040))
        .unwrap()
        .paddr;
    assert!(b.l2.contains_line(pa), "prefetched line resident in L2");
    assert!(b.engine.queue(0).is_empty(), "prefetch never touches queues");
    assert_eq!(b.engine.stats().llc_prefetches.get(), 1);
}

#[test]
fn prefetch_to_unmapped_page_is_dropped_silently() {
    let mut b = Bench::new(MapleConfig::default());
    let id = b.store(StoreOp::Prefetch, 0, 0xBAD0_0000);
    // Speculative: acked and dropped, no fault raised.
    b.run_until_ack(id, 2000);
    b.run(500);
    assert!(b.engine.fault().is_none(), "speculative prefetch never faults");
    assert_eq!(b.engine.stats().llc_prefetches.get(), 0);
    assert!(b.engine.is_idle());
}

#[test]
fn amo_produce_extension_updates_memory_and_enqueues_old_values() {
    let mut b = Bench::new(MapleConfig::default());
    let pa = b.map(0x4000_0000, 1);
    b.mem.write_u32(pa, 100);
    // operand = 7; two fetch-adds on the same counter.
    let op = b.store(StoreOp::SetAmoOperand, 0, 7);
    b.run_until_ack(op, 100);
    for _ in 0..2 {
        let id = b.store(StoreOp::ProduceAmoAdd, 0, 0x4000_0000);
        b.run_until_ack(id, 5000);
    }
    let c1 = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c1, 5000), 100, "first old value");
    let c2 = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c2, 5000), 107, "second old value");
    assert_eq!(b.mem.read_u32(pa), 114, "both adds applied atomically");
}

#[test]
fn amo_produce_min_returns_old_and_clamps() {
    let mut b = Bench::new(MapleConfig::default());
    let pa = b.map(0x5000_0000, 1);
    b.mem.write_u32(pa, 50);
    let op = b.store(StoreOp::SetAmoOperand, 1, 40);
    b.run_until_ack(op, 100);
    let id = b.store(StoreOp::ProduceAmoMin, 1, 0x5000_0000);
    b.run_until_ack(id, 5000);
    let c = b.load(LoadOp::Consume, 1, 4);
    assert_eq!(b.run_until_ack(c, 5000), 50);
    assert_eq!(b.mem.read_u32(pa), 40, "min applied");
}

#[test]
fn reset_during_lima_ignores_stale_chunk_responses() {
    // Failure injection: reset the engine while LIMA chunks are in
    // flight; their late DRAM responses must be ignored, not corrupt the
    // fresh state. (The engine drops *its own* transaction tracking on
    // reset, so stale responses for old ids would otherwise panic.)
    let mut b = Bench::new(MapleConfig::default());
    b.map(0x5000_0000, 4);
    b.map(0x6000_0000, 1);
    for i in 0..64u64 {
        let pa = b.pt.translate(&b.mem, VAddr(0x6000_0000 + i * 4)).unwrap().paddr;
        b.mem.write_u32(pa, (i * 3 % 1024) as u32);
    }
    for (op, val) in [
        (StoreOp::LimaABase, 0x5000_0000u64),
        (StoreOp::LimaBBase, 0x6000_0000),
        (StoreOp::LimaRange, lima_range_payload(0, 64)),
    ] {
        let id = b.store(op, 0, val);
        b.run_until_ack(id, 200);
    }
    let go = b.store(StoreOp::LimaGo, 0, lima_go_payload(false, 4, 4));
    b.run_until_ack(go, 200);
    // Let the fetches launch, then capture in-flight responses manually:
    // run a few cycles so chunk fetches are in DRAM.
    b.run(50);
    // Reset the engine mid-flight. In the real system the NoC may still
    // deliver responses for the old transactions; our bench's L2 will.
    let r = b.store(StoreOp::Reset, 0, 0);
    b.run_until_ack(r, 200);
    // Drain everything that was in flight; must not panic, queue stays
    // empty, and a fresh produce works.
    b.run(2000);
    assert!(b.engine.queue(0).is_empty(), "reset left queue contents");
    let p = b.store(StoreOp::Produce, 0, 42);
    b.run_until_ack(p, 200);
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 200), 42);
}

#[test]
fn queue_wraps_around_many_times_without_corruption() {
    // Cycle far more entries than the ring holds (default: 32 × 4 B) in
    // mixed burst sizes, so head/tail wrap the backing ring repeatedly
    // and land on every alignment. Values must come out in FIFO order
    // and the conservation counters must account for every entry.
    let mut b = Bench::new(MapleConfig::default());
    let total = 200u64;
    let mut produced = 0u64;
    let mut consumed = 0u64;
    while consumed < total {
        // Produce a burst (bounded by remaining work and queue space).
        let burst = [1u64, 7, 32, 3][(produced % 4) as usize]
            .min(total - produced)
            .min(32 - (produced - consumed));
        for _ in 0..burst {
            let id = b.store(StoreOp::Produce, 0, 0x1_0000 + produced);
            b.run_until_ack(id, 200);
            produced += 1;
        }
        // Drain roughly half of what is outstanding (at least one).
        let drain = ((produced - consumed) / 2).max(1);
        for _ in 0..drain {
            let c = b.load(LoadOp::Consume, 0, 4);
            assert_eq!(b.run_until_ack(c, 200), 0x1_0000 + consumed, "FIFO order after wrap");
            consumed += 1;
        }
    }
    assert_eq!(b.engine.queue(0).produced.get(), total);
    assert_eq!(b.engine.queue(0).consumed.get(), total);
    assert!(b.engine.queue(0).is_empty());
}

#[test]
fn occupancy_stat_tracks_full_and_empty_boundaries() {
    // STAT_OCCUPANCY over the whole hysteresis loop: empty → full →
    // empty, checked at every step against the ground-truth queue state.
    let mut b = Bench::new(MapleConfig::default()); // 32 entries
    let occ = |b: &mut Bench| {
        let s = b.load(LoadOp::StatOccupancy, 0, 8);
        b.run_until_ack(s, 200)
    };
    assert_eq!(occ(&mut b), 0, "fresh queue is empty");
    for i in 0..32u64 {
        let id = b.store(StoreOp::Produce, 0, i);
        b.run_until_ack(id, 200);
        assert_eq!(occ(&mut b), i + 1);
    }
    assert!(b.engine.queue(0).is_full(), "32nd produce fills the queue");
    // One more produce is withheld; occupancy must not exceed capacity.
    let extra = b.store(StoreOp::Produce, 0, 99);
    b.run(200);
    assert_eq!(b.ack_of(extra), None);
    assert_eq!(occ(&mut b), 32, "occupancy saturates at capacity");
    for i in 0..32u64 {
        let c = b.load(LoadOp::Consume, 0, 4);
        assert_eq!(b.run_until_ack(c, 200), i);
    }
    // The buffered 33rd produce slid into the freed slot.
    b.run_until_ack(extra, 200);
    assert_eq!(occ(&mut b), 1);
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 200), 99);
    assert_eq!(occ(&mut b), 0, "fully drained");
    assert!(b.engine.queue(0).is_empty());
}

#[test]
fn mixed_produce_and_produce_ptr_keep_program_order() {
    // Interleave immediate PRODUCEs (fill at once) with PRODUCE_PTRs
    // (fill only when the DRAM fetch returns, hundreds of cycles later).
    // The CONSUME stream must still observe strict program order: an
    // immediate value enqueued *after* a pointer must not overtake it.
    let mut b = Bench::new(MapleConfig::default());
    let pa = b.map(0x4000_0000, 1);
    for i in 0..8u64 {
        b.mem.write_u32(pa.offset(i * 4), (500 + i) as u32);
    }
    // Program order: ptr(500), imm(1), ptr(501), imm(2), ... — issued
    // back-to-back without waiting, so pointer fetches are still in
    // flight when the immediates arrive.
    let mut expect = Vec::new();
    let mut ids = Vec::new();
    for i in 0..8u64 {
        ids.push(b.store(StoreOp::ProducePtr, 0, 0x4000_0000 + i * 4));
        expect.push(500 + i);
        ids.push(b.store(StoreOp::Produce, 0, i + 1));
        expect.push(i + 1);
    }
    for id in ids {
        b.run_until_ack(id, 10_000);
    }
    for (i, e) in expect.iter().enumerate() {
        let c = b.load(LoadOp::Consume, 0, 4);
        assert_eq!(b.run_until_ack(c, 10_000), *e, "position {i} out of program order");
    }
    assert!(b.engine.queue(0).is_empty());
    assert_eq!(b.engine.queue(0).produced.get(), 16);
    assert_eq!(b.engine.queue(0).consumed.get(), 16);
}

#[test]
fn mmio_offsets_stay_inside_one_page() {
    for q in 0..8 {
        assert!(store_offset(StoreOp::FaultResume, q) < maple_mem::PAGE_SIZE);
        assert!(load_offset(mmio::LoadOp::FaultVa, q) < maple_mem::PAGE_SIZE);
    }
}

// ---------------------------------------------------------------------------
// Fault-plane & robustness tests
// ---------------------------------------------------------------------------

use maple_sim::fault::{FaultPlaneConfig, FaultSchedule, WatchdogConfig};

#[test]
fn stale_responses_counted_across_back_to_back_resets() {
    // Regression for DESIGN.md §4b: every reset drops the engine's
    // in-flight transaction tracking while DRAM responses are still on
    // their way back. Two back-to-back resets must count ALL of the
    // orphaned responses (the counter survives reset) and leave the
    // engine fully functional.
    let mut b = Bench::new(MapleConfig::default());
    b.map(0x4000_0000, 1);
    for _round in 0..2 {
        for i in 0..4u64 {
            let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000 + i * 4);
            b.run_until_ack(id, 5000);
        }
        // All four fetches are in DRAM (300-cycle latency); reset now.
        let r = b.store(StoreOp::Reset, 0, 0);
        b.run_until_ack(r, 200);
    }
    // Drain the orphaned responses from both rounds.
    b.run(3000);
    assert_eq!(
        b.engine.stats().stale_responses.get(),
        8,
        "every orphaned response counted, none double-counted"
    );
    assert!(b.engine.queue(0).is_empty(), "stale fills must not land");
    // Engine still works after the double reset.
    let p = b.store(StoreOp::Produce, 0, 11);
    b.run_until_ack(p, 200);
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 200), 11);
}

#[test]
fn out_of_range_queue_reports_error_not_panic() {
    // An engine configured with fewer than 8 queues can still receive
    // MMIO offsets that decode to a high queue index. That must produce
    // an error response (all-ones) and a counter bump, never an
    // out-of-bounds panic.
    let cfg = MapleConfig {
        queues: 4,
        ..MapleConfig::default()
    };
    let mut b = Bench::new(cfg);
    let s = b.store(StoreOp::Produce, 5, 1);
    assert_eq!(b.run_until_ack(s, 100), u64::MAX, "store rejected");
    let c = b.load(LoadOp::Consume, 6, 4);
    assert_eq!(b.run_until_ack(c, 100), u64::MAX, "consume rejected");
    assert_eq!(b.engine.stats().bad_requests.get(), 2);
    // In-range queues unaffected.
    let p = b.store(StoreOp::Produce, 3, 9);
    b.run_until_ack(p, 100);
    let c2 = b.load(LoadOp::Consume, 3, 4);
    assert_eq!(b.run_until_ack(c2, 100), 9);
}

#[test]
fn watchdog_retries_lost_fetch_and_completes() {
    let mut b = Bench::new(MapleConfig::default());
    b.engine.set_watchdog(WatchdogConfig {
        timeout: 500,
        max_retries: 3,
    });
    let pa = b.map(0x4000_0000, 1);
    b.mem.write_u32(pa, 777);
    let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000);
    // Pump manually, losing the FIRST memory request the engine emits
    // (a dropped NoC packet).
    let mut dropped = false;
    for _ in 0..5000 {
        b.engine.tick(b.now, &b.mem);
        while let Some(req) = b.engine.pop_mem_request() {
            if !dropped {
                dropped = true;
                continue; // lost on the NoC
            }
            b.l2.accept(b.now, req);
        }
        b.l2.tick(b.now, &mut b.mem);
        while let Some(resp) = b.l2.pop_outgoing() {
            b.engine.on_mem_resp(b.now, resp.resp, &b.mem);
        }
        while let Some(r) = b.engine.pop_response(b.now) {
            b.acks.push((r.resp.id, r.resp.data));
        }
        b.now += 1;
    }
    assert!(dropped, "a fetch was issued and lost");
    assert!(b.ack_of(id).is_some(), "produce store acked at accept time");
    assert!(b.engine.stats().fetch_timeouts.get() >= 1);
    assert_eq!(b.engine.stats().fetch_retries.get(), 1);
    assert!(!b.engine.is_poisoned(), "recovered, not poisoned");
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 5000), 777, "retried fetch delivered");
}

#[test]
fn watchdog_exhaustion_poisons_engine() {
    let mut b = Bench::new(MapleConfig::default());
    b.engine.set_watchdog(WatchdogConfig {
        timeout: 100,
        max_retries: 3,
    });
    b.map(0x4000_0000, 1);
    let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000);
    // Black-hole every memory request: the fetch can never complete.
    for _ in 0..5000 {
        b.engine.tick(b.now, &b.mem);
        while b.engine.pop_mem_request().is_some() {}
        while let Some(r) = b.engine.pop_response(b.now) {
            b.acks.push((r.resp.id, r.resp.data));
        }
        b.now += 1;
    }
    assert!(b.ack_of(id).is_some(), "produce store itself was acked");
    assert!(b.engine.is_poisoned());
    assert_eq!(b.engine.stats().fetch_retries.get(), 3);
    assert_eq!(b.engine.stats().fetch_timeouts.get(), 4, "initial + 3 retries");
    assert_eq!(b.engine.stats().poisoned_fetches.get(), 1);
    assert_eq!(b.engine.inflight_fetches(), 0, "abandoned fetch untracked");
    // A reset clears the poison.
    let r = b.store(StoreOp::Reset, 0, 0);
    b.run_until_ack(r, 200);
    assert!(!b.engine.is_poisoned());
}

#[test]
fn timed_out_amo_fetch_is_not_retried() {
    // Retrying an atomic would double-apply the side effect, so the
    // watchdog must poison immediately instead.
    let mut b = Bench::new(MapleConfig::default());
    b.engine.set_watchdog(WatchdogConfig {
        timeout: 100,
        max_retries: 3,
    });
    let pa = b.map(0x4000_0000, 1);
    b.mem.write_u32(pa, 50);
    let op = b.store(StoreOp::SetAmoOperand, 0, 7);
    b.run_until_ack(op, 100);
    let _id = b.store(StoreOp::ProduceAmoAdd, 0, 0x4000_0000);
    for _ in 0..2000 {
        b.engine.tick(b.now, &b.mem);
        while b.engine.pop_mem_request().is_some() {}
        while let Some(r) = b.engine.pop_response(b.now) {
            b.acks.push((r.resp.id, r.resp.data));
        }
        b.now += 1;
    }
    assert!(b.engine.is_poisoned());
    assert_eq!(b.engine.stats().fetch_retries.get(), 0, "atomics never retried");
    assert_eq!(b.engine.stats().poisoned_fetches.get(), 1);
}

#[test]
fn retried_request_replays_response_without_double_effect() {
    // A core watchdog re-sends an MMIO store whose ack was lost. The
    // engine must recognise the (requester, txid) pair and replay the
    // recorded ack instead of executing the produce twice.
    let mut b = Bench::new(MapleConfig::default());
    b.install_fault_plane_hooks();
    let p = b.store(StoreOp::Produce, 0, 5);
    b.run_until_ack(p, 100);
    b.engine.accept(
        b.now,
        MemReq {
            id: p,
            addr: PAddr(ENGINE_PAGE + store_offset(StoreOp::Produce, 0)),
            kind: MemReqKind::Write {
                size: 8,
                data: 5,
                ack: true,
            },
            reply_to: Coord::new(0, 0),
        },
    );
    b.run(100);
    assert_eq!(b.engine.stats().replayed_responses.get(), 1);
    assert_eq!(b.engine.queue(0).produced.get(), 1, "no double push");
    assert_eq!(b.engine.queue(0).occupancy(), 1);
}

#[test]
fn duplicate_of_inflight_request_is_dropped() {
    // Retry arrives while the original operation is still buffered
    // (consume on an empty queue): the duplicate must be swallowed, and
    // the eventual data delivered exactly once.
    let mut b = Bench::new(MapleConfig::default());
    b.install_fault_plane_hooks();
    let c = b.load(LoadOp::Consume, 0, 4);
    b.run(50);
    b.engine.accept(
        b.now,
        MemReq {
            id: c,
            addr: PAddr(ENGINE_PAGE + load_offset(LoadOp::Consume, 0)),
            kind: MemReqKind::ReadWord { size: 4 },
            reply_to: Coord::new(0, 0),
        },
    );
    b.run(50);
    assert_eq!(b.engine.stats().duplicate_requests.get(), 1);
    let p = b.store(StoreOp::Produce, 0, 42);
    b.run_until_ack(p, 100);
    assert_eq!(b.run_until_ack(c, 100), 42);
    assert_eq!(b.engine.queue(0).consumed.get(), 1, "popped exactly once");
}

// ---------------------------------------------------------------------------
// Engine virtualization: context save/restore
// ---------------------------------------------------------------------------

#[test]
fn mid_fetch_context_switch_round_trips_exactly() {
    // Tenant A is caught mid-flight: pointer fetches outstanding in DRAM,
    // an immediate value already enqueued behind the reserved slots, and
    // a consume buffered against an empty queue. Saving the context,
    // running tenant B on the bare engine, and restoring A must bring
    // back queue occupancy and in-flight fetch state bit for bit — and
    // the restored fetches must still complete in program order.
    let mut b = Bench::new(MapleConfig::default());
    let pa = b.map(0x4000_0000, 1);
    for i in 0..3u64 {
        b.mem.write_u32(pa.offset(i * 4), (900 + i) as u32);
    }
    for i in 0..3u64 {
        let id = b.store(StoreOp::ProducePtr, 0, 0x4000_0000 + i * 4);
        b.run_until_ack(id, 200);
    }
    let imm = b.store(StoreOp::Produce, 0, 77);
    b.run_until_ack(imm, 200);
    let c1 = b.load(LoadOp::Consume, 1, 4);
    b.run(20); // decode the consume; queue 1 stays empty so it buffers
    assert_eq!(b.engine.inflight_fetches(), 3, "fetches still in DRAM");
    assert_eq!(b.engine.pending_consumes(), 1);
    let occupancies = b.engine.queue_occupancies();
    assert_eq!(occupancies[0], 4, "3 reserved slots + 1 filled");

    let ctx = b.engine.save_context();
    assert_eq!(ctx.inflight_fetches(), 3);
    assert_eq!(ctx.pending_produces(), 0);
    assert_eq!(ctx.pending_consumes(), 1);
    assert_eq!(ctx.queue_occupancies(), occupancies);
    assert!(!ctx.is_quiescent());

    // Tenant B gets the bare engine. Pump the engine alone (no L2) so
    // A's DRAM responses stay parked until A is switched back in.
    b.engine.reset();
    assert_eq!(b.engine.inflight_fetches(), 0);
    assert_eq!(b.engine.queue_occupancies()[0], 0);
    let bp = b.store(StoreOp::Produce, 0, 5555);
    let bc = b.load(LoadOp::Consume, 0, 4);
    for _ in 0..100 {
        b.engine.tick(b.now, &b.mem);
        assert!(
            b.engine.pop_mem_request().is_none(),
            "tenant B is pure immediate traffic"
        );
        while let Some(r) = b.engine.pop_response(b.now) {
            b.acks.push((r.resp.id, r.resp.data));
        }
        b.now += 1;
    }
    assert!(b.ack_of(bp).is_some());
    assert_eq!(b.ack_of(bc), Some(5555), "tenant B ran on the bare engine");

    // Switch A back in: every observable must match the snapshot.
    b.engine.restore_context(ctx.clone());
    assert_eq!(b.engine.inflight_fetches(), 3);
    assert_eq!(b.engine.pending_consumes(), 1);
    assert_eq!(b.engine.queue_occupancies(), occupancies);

    // A's parked DRAM responses now land in the restored slots; the
    // consume stream observes program order across the switch.
    for i in 0..3u64 {
        let c = b.load(LoadOp::Consume, 0, 4);
        assert_eq!(b.run_until_ack(c, 10_000), 900 + i, "position {i}");
    }
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 10_000), 77, "immediate behind the ptrs");
    // The buffered consume on queue 1 survived the round trip too.
    let p1 = b.store(StoreOp::Produce, 1, 31);
    b.run_until_ack(p1, 200);
    assert_eq!(b.run_until_ack(c1, 200), 31);
}

#[test]
fn two_tenant_contexts_keep_queue_contents_isolated() {
    let mut b = Bench::new(MapleConfig::default());
    // Tenant A enqueues 10, 11.
    for v in [10u64, 11] {
        let id = b.store(StoreOp::Produce, 0, v);
        b.run_until_ack(id, 200);
    }
    let ctx_a = b.engine.save_context();
    // Tenant B starts fresh and enqueues 20.
    b.engine.reset();
    let id = b.store(StoreOp::Produce, 0, 20);
    b.run_until_ack(id, 200);
    let ctx_b = b.engine.save_context();
    assert!(ctx_b.is_quiescent(), "drained tenant saves a quiescent context");

    // A drains its own values, untouched by B's occupancy.
    b.engine.restore_context(ctx_a);
    assert_eq!(b.engine.queue_occupancies()[0], 2);
    for v in [10u64, 11] {
        let c = b.load(LoadOp::Consume, 0, 4);
        assert_eq!(b.run_until_ack(c, 200), v);
    }
    // B's single entry is exactly where it left it.
    b.engine.restore_context(ctx_b);
    assert_eq!(b.engine.queue_occupancies()[0], 1);
    let c = b.load(LoadOp::Consume, 0, 4);
    assert_eq!(b.run_until_ack(c, 200), 20);
}

#[test]
#[should_panic(expected = "incompatible configuration")]
fn context_restore_rejects_mismatched_queue_count() {
    let small = Engine::new(MapleConfig {
        queues: 4,
        ..MapleConfig::default()
    });
    let ctx = small.save_context();
    let mut full = Engine::new(MapleConfig::default());
    full.restore_context(ctx);
}

#[test]
fn ack_loss_schedule_drops_responses_at_source() {
    let mut b = Bench::new(MapleConfig::default());
    // Rate 1.0: every outbound response is lost.
    b.engine.set_ack_fault(FaultSchedule::new(1.0, 0, 7));
    let p = b.store(StoreOp::Produce, 0, 3);
    b.run(500);
    assert_eq!(b.ack_of(p), None, "ack swallowed by the fault plane");
    assert!(b.engine.stats().acks_dropped.get() >= 1);
    // The produce itself still executed; the replay cache holds the ack.
    assert_eq!(b.engine.queue(0).produced.get(), 1);
}
