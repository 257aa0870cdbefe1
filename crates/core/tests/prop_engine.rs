//! Property test for the engine's per-queue pending masks: random MMIO
//! operation streams over all 8 queues (immediate and pointer produces,
//! narrow and wide consumes, `RESET`) plus driver context switches that
//! move a tenant between two engines. One rig ticks its engines only when
//! their `next_event` comes up and accounts the slept cycles through
//! `skip`, the way the SoC's wake sets do; the dense reference rig ticks
//! both engines every cycle. The stages, `next_event` and `skip` visit
//! only the queues the masks name, so any mask that drifts from its
//! queues shows up as a diverging response, counter or occupancy (and,
//! in debug builds, trips the mask assertion at the end of every tick).

use maple_core::mmio::{load_offset, store_offset, LoadOp, StoreOp};
use maple_core::{Engine, MapleConfig};
use maple_mem::dram::DramConfig;
use maple_mem::l2::{L2Config, OutboundResp, SharedL2};
use maple_mem::msg::{MemReq, MemReqKind};
use maple_mem::phys::{PAddr, PhysMem};
use maple_noc::Coord;
use maple_sim::Cycle;
use maple_testkit::{check, gen, tk_assert_eq, Config, Gen, SimRng};
use maple_vm::page_table::{FrameAllocator, PageFlags, PageTable};
use maple_vm::VAddr;

/// The engines' MMIO page physical base.
const ENGINE_PAGE: u64 = 0xF000_0000;
/// Virtual base of the data array pointer produces read.
const DATA_VA: u64 = 0x4000_0000;
/// Words in the data array.
const DATA_WORDS: u64 = 2048;
/// The requesting "core" every MMIO operation comes from.
const CORE: Coord = Coord { x: 9, y: 9 };
/// Cycles run after the last operation so fetches and acks drain.
const DRAIN_CYCLES: u64 = 1_500;

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Produce(u64),
    ProducePtr(u64),
    Consume {
        wide: bool,
    },
    Reset,
    /// Driver context switch: save the running tenant, reset its engine
    /// and restore the tenant onto the other engine. Skipped while the
    /// running engine has fetches in flight, whose responses would
    /// return to the engine that issued them.
    Switch,
}

#[derive(Debug, Clone, PartialEq)]
struct Op {
    kind: Kind,
    queue: u8,
    /// Cycles until the next operation.
    gap: u64,
}

/// Generates operations mostly on the produce/consume paths; shrinks
/// gaps toward zero and any operation toward an immediate produce on
/// queue 0.
struct OpGen;

impl Gen for OpGen {
    type Value = Op;

    fn generate(&self, rng: &mut SimRng) -> Op {
        let kind = match rng.below(20) {
            0..=6 => Kind::Produce(rng.next_u64()),
            7..=10 => Kind::ProducePtr(rng.below(DATA_WORDS)),
            11..=16 => Kind::Consume {
                wide: rng.below(4) == 0,
            },
            17 => Kind::Reset,
            _ => Kind::Switch,
        };
        let gap = if rng.below(3) == 0 { 0 } else { rng.below(40) };
        Op {
            kind,
            queue: rng.below(8) as u8,
            gap,
        }
    }

    fn shrink(&self, op: &Op) -> Vec<Op> {
        let mut out = Vec::new();
        let simplest = Op {
            kind: Kind::Produce(0),
            queue: 0,
            gap: 0,
        };
        if *op != simplest {
            out.push(simplest);
        }
        out.extend(
            gen::shrink_u64(op.gap)
                .into_iter()
                .map(|gap| Op { gap, ..op.clone() }),
        );
        if op.queue > 0 {
            out.push(Op {
                queue: 0,
                ..op.clone()
            });
        }
        out
    }
}

/// Two engines sharing one L2 and one requesting core.
struct Rig {
    mem: PhysMem,
    l2: SharedL2,
    engines: [Engine; 2],
    /// The engine running the tenant that receives MMIO operations.
    active: usize,
    /// Tick every engine every cycle (the reference) instead of only
    /// when due.
    dense: bool,
    /// First cycle not yet accounted, per engine.
    acct: [u64; 2],
    /// Next cycle each engine must tick (`u64::MAX`: only a delivery or
    /// an operation wakes it).
    due: [u64; 2],
    /// L2 responses, delivered at the top of the next cycle.
    arrivals: Vec<OutboundResp>,
    /// Every response the engines sent: (cycle, engine, id, data).
    responses: Vec<(u64, usize, u64, u64)>,
    now: u64,
    next_id: u64,
}

impl Rig {
    fn new(dense: bool) -> Self {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x10_0000), 64 << 20);
        let mut pt = PageTable::new(&mut mem, &mut frames);
        let pages = (DATA_WORDS * 4).div_ceil(maple_mem::PAGE_SIZE);
        for p in 0..pages {
            let frame = frames.alloc(&mut mem);
            pt.map(
                &mut mem,
                &mut frames,
                VAddr(DATA_VA + p * maple_mem::PAGE_SIZE),
                frame,
                PageFlags::rw(),
            );
            for w in 0..maple_mem::PAGE_SIZE / 4 {
                mem.write_u32(frame.offset(w * 4), (p * 10_000 + w) as u32);
            }
        }
        let engines = [(); 2].map(|()| {
            let mut e = Engine::new(MapleConfig::default());
            e.set_page_table(pt);
            e
        });
        Rig {
            mem,
            l2: SharedL2::new(L2Config::default(), DramConfig::default()),
            engines,
            active: 0,
            dense,
            acct: [0; 2],
            due: [0; 2],
            arrivals: Vec::new(),
            responses: Vec::new(),
            now: 0,
            next_id: 0,
        }
    }

    /// Brings engine `e`'s stall accounting up to now and makes it due.
    fn wake(&mut self, e: usize) {
        let gap = self.now - self.acct[e];
        if gap > 0 {
            self.engines[e].skip(gap);
            self.acct[e] = self.now;
        }
        self.due[e] = self.now;
    }

    fn mmio(&mut self, offset: u64, kind: MemReqKind) {
        let id = self.next_id;
        self.next_id += 1;
        let a = self.active;
        self.wake(a);
        self.engines[a].accept(
            Cycle(self.now),
            MemReq {
                id,
                addr: PAddr(ENGINE_PAGE + offset),
                kind,
                reply_to: CORE,
            },
        );
    }

    fn store(&mut self, op: StoreOp, q: u8, data: u64) {
        let kind = MemReqKind::Write {
            size: 8,
            data,
            ack: true,
        };
        self.mmio(store_offset(op, q), kind);
    }

    fn apply(&mut self, op: &Op) {
        let q = op.queue;
        match op.kind {
            Kind::Produce(v) => self.store(StoreOp::Produce, q, v),
            Kind::ProducePtr(w) => self.store(StoreOp::ProducePtr, q, DATA_VA + 4 * w),
            Kind::Consume { wide } => {
                let size = if wide { 8 } else { 4 };
                self.mmio(
                    load_offset(LoadOp::Consume, q),
                    MemReqKind::ReadWord { size },
                );
            }
            Kind::Reset => self.store(StoreOp::Reset, 0, 0),
            Kind::Switch => {
                let (a, b) = (self.active, 1 - self.active);
                if self.engines[a].inflight_fetches() > 0 {
                    return;
                }
                self.wake(a);
                self.wake(b);
                let ctx = self.engines[a].save_context();
                self.engines[a].reset();
                self.engines[b].restore_context(ctx);
                self.active = b;
            }
        }
    }

    /// One cycle: deliveries, then the due engines, then the L2.
    fn cycle(&mut self, op: Option<&Op>) {
        let now = Cycle(self.now);
        for out in std::mem::take(&mut self.arrivals) {
            let e = usize::from(out.dst.x);
            self.wake(e);
            self.engines[e].on_mem_resp(now, out.resp, &self.mem);
        }
        if let Some(op) = op {
            self.apply(op);
        }
        for e in 0..2 {
            if !self.dense && self.due[e] > self.now {
                continue;
            }
            self.wake(e);
            self.engines[e].tick(now, &self.mem);
            self.acct[e] = self.now + 1;
            while let Some(mut req) = self.engines[e].pop_mem_request() {
                req.reply_to = Coord::new(e as u16, 0);
                self.l2.accept(now, req);
            }
            while let Some(r) = self.engines[e].pop_response(now) {
                self.responses.push((self.now, e, r.resp.id, r.resp.data));
            }
            self.due[e] = self.engines[e]
                .next_event(now.plus(1))
                .map_or(u64::MAX, |c| c.0);
        }
        self.l2.tick(now, &mut self.mem);
        while let Some(out) = self.l2.pop_outgoing() {
            self.arrivals.push(out);
        }
        self.now += 1;
    }

    /// Runs the operations, drains, and brings every engine's
    /// accounting up to the final cycle.
    fn run(mut self, ops: &[Op]) -> Self {
        for op in ops {
            self.cycle(Some(op));
            for _ in 0..op.gap {
                self.cycle(None);
            }
        }
        for _ in 0..DRAIN_CYCLES {
            self.cycle(None);
        }
        self.wake(0);
        self.wake(1);
        self
    }
}

#[test]
fn woken_engines_match_dense_engines_over_random_mmio_streams() {
    let ops = gen::vec_of(OpGen, 1, 60);
    let cfg = Config::new("woken_engines_match_dense_engines_over_random_mmio_streams");
    check(&cfg, &ops, |ops| {
        let woken = Rig::new(false).run(ops);
        let dense = Rig::new(true).run(ops);
        tk_assert_eq!(woken.responses, dense.responses, "responses diverged");
        tk_assert_eq!(woken.active, dense.active);
        for e in 0..2 {
            let (w, d) = (&woken.engines[e], &dense.engines[e]);
            tk_assert_eq!(
                format!("{:?}", w.stats()),
                format!("{:?}", d.stats()),
                "engine {e} stats diverged"
            );
            tk_assert_eq!(w.queue_occupancies(), d.queue_occupancies(), "engine {e}");
            tk_assert_eq!(w.pending_produces(), d.pending_produces(), "engine {e}");
            tk_assert_eq!(w.pending_consumes(), d.pending_consumes(), "engine {e}");
            tk_assert_eq!(w.inflight_fetches(), d.inflight_fetches(), "engine {e}");
        }
        Ok(())
    });
}
