//! Breadth-First Search (level-synchronous, frontier-based).
//!
//! Computes hop distances from a root over a directed graph in CSR form.
//! Each level, threads partition the current frontier, examine neighbor
//! lists (`col_idx` streams per vertex) and test `dist[v]` — the indirect
//! access. Updates use an atomic fetch-min so every variant, decoupled or
//! not, is race-free: a stale `dist[v]` observation can only cause a
//! redundant atomic, never a wrong distance.
//!
//! The decoupled variants ship `(v, dist[v])` pairs from the Access walker
//! to the Execute updater; DeSC additionally routes update *decisions*
//! back to the Supply core because its Compute core has no memory
//! visibility — the structural reason DeSC loses runahead on BFS
//! (Section 5.2).

use maple_baselines::swdec::{SwConsumer, SwProducer, SwQueueLayout};
use maple_isa::builder::ProgramBuilder;
use maple_isa::{AtomicOp, Reg, ZERO};
use maple_soc::runtime::{Barrier, MapleApi, BARRIER_BYTES};
use maple_soc::system::System;
use maple_soc::SocConfig;
use maple_vm::VAddr;

use crate::data::{Csr, Dataset};
use crate::harness::{
    alloc_u32, check_maple_queues, config_for, finish, upload_u32, RunStats, Variant, MAX_CYCLES,
};

/// Unvisited marker.
const UNVISITED: u32 = u32::MAX;
/// Frontier sentinel (cannot be a node id).
const SENT: u32 = u32::MAX;
/// DeSC "level finished" marker on the decision queue.
const END_MARK: u64 = 0xFFFF_FFFE;

/// A BFS problem instance.
#[derive(Debug, Clone)]
pub struct Bfs {
    /// The graph (directed, CSR).
    pub graph: Csr,
    /// Source vertex.
    pub root: u32,
}

impl Bfs {
    /// Builds an instance from a dataset preset, rooting at the first
    /// vertex with outgoing edges.
    #[must_use]
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let graph = dataset.generate(seed);
        let root = (0..graph.nrows)
            .find(|&r| !graph.row_range(r).is_empty())
            .unwrap_or(0) as u32;
        Bfs { graph, root }
    }

    /// Host reference distances.
    #[must_use]
    pub fn reference(&self) -> Vec<u32> {
        let mut dist = vec![UNVISITED; self.graph.nrows];
        dist[self.root as usize] = 0;
        let mut frontier = vec![self.root];
        let mut level = 1u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for j in self.graph.row_range(u as usize) {
                    let v = self.graph.col_idx[j] as usize;
                    if dist[v] == UNVISITED {
                        dist[v] = level;
                        next.push(v as u32);
                    }
                }
            }
            frontier = next;
            level += 1;
        }
        dist
    }

    /// The thread counts BFS runs on under `variant`: frontier
    /// partitioning divides by shifts, so workers (threads, or pairs
    /// when decoupled) come in powers of two, and MAPLE-decoupled pairs
    /// must fit the queues of [`config_for`]`(variant, threads)`.
    ///
    /// # Errors
    ///
    /// Names the rule `threads` breaks.
    pub fn check_threads(variant: Variant, threads: usize) -> Result<(), String> {
        Self::check_threads_on(&config_for(variant, threads), variant, threads)
    }

    /// [`Bfs::check_threads`] against a tuned configuration: every pair
    /// takes two queues of MAPLE instance 0.
    fn check_threads_on(cfg: &SocConfig, variant: Variant, threads: usize) -> Result<(), String> {
        let rule = match variant {
            Variant::Doall | Variant::Droplet | Variant::SwPrefetch { .. }
                if !threads.is_power_of_two() =>
            {
                "partitioning uses shifts (a power-of-two thread count)"
            }
            Variant::MapleDecoupled | Variant::SwDecoupled
                if threads < 2 || !threads.is_power_of_two() =>
            {
                "decoupled pairs partition by shifts (a power-of-two thread count of at least 2)"
            }
            Variant::Desc if threads != 2 => "DeSC runs one Supply/Compute pair",
            Variant::MapleLima if threads != 1 => "LIMA runs single-threaded",
            Variant::MapleDecoupled => {
                return check_maple_queues("bfs", variant, threads, threads, cfg.maple.queues);
            }
            _ => return Ok(()),
        };
        Err(format!(
            "bfs {}: {rule}, not {threads} threads",
            variant.label()
        ))
    }

    /// Runs a variant on `threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics on a thread count [`Bfs::check_threads`] rejects.
    #[must_use]
    pub fn run(&self, variant: Variant, threads: usize) -> RunStats {
        self.run_tuned(variant, threads, |c| c)
    }

    /// Like [`Bfs::run`] with a configuration hook for sweeps.
    #[must_use]
    pub fn run_tuned(
        &self,
        variant: Variant,
        threads: usize,
        tune: impl FnOnce(maple_soc::SocConfig) -> maple_soc::SocConfig,
    ) -> RunStats {
        let mut cfg = config_for(variant, threads);
        if matches!(variant, Variant::MapleDecoupled) {
            // Fewer, larger queues (Section 3.4): each pair uses one
            // queue for (v, dv) edges and one for row-bound gathers, and
            // they split the whole scratchpad for maximum runahead.
            let pairs = (threads / 2).max(1);
            let entries = (1024 / (pairs * 2 * 4)).min(256);
            cfg = cfg.with_queue_entries(entries);
        }
        let cfg = tune(cfg);
        Self::check_threads_on(&cfg, variant, threads).unwrap_or_else(|e| panic!("{e}"));
        let mut sys = System::new(cfg);
        let n = self.graph.nrows;
        let dev = Dev {
            rp: upload_u32(&mut sys, &self.graph.row_ptr),
            ci: upload_u32(&mut sys, &self.graph.col_idx),
            dist: {
                let init = vec![UNVISITED; n];
                
                upload_u32(&mut sys, &init)
            },
            cur: alloc_u32(&mut sys, n.max(1)),
            next: alloc_u32(&mut sys, n.max(1)),
            ctrl: sys.alloc(128),
            bar: sys.alloc(BARRIER_BYTES),
        };
        // Seed: dist[root] = 0, frontier = {root}.
        sys.write_u32(dev.dist.offset(u64::from(self.root) * 4), 0);
        sys.write_u32(dev.cur, self.root);
        sys.write_u64(dev.ctrl, 1); // cur_count

        let expected = self.reference();

        match variant {
            Variant::Doall => self.load_doall(&mut sys, &dev, threads, None, false),
            Variant::Droplet => {
                sys.droplet_watch(
                    dev.ci,
                    (self.graph.nnz() * 4) as u64,
                    4,
                    dev.dist,
                    4,
                );
                self.load_doall(&mut sys, &dev, threads, None, false);
            }
            Variant::SwPrefetch { dist } => {
                self.load_doall(&mut sys, &dev, threads, Some(dist), false);
            }
            Variant::MapleLima => self.load_doall(&mut sys, &dev, 1, None, true),
            Variant::MapleDecoupled => self.load_maple_dec(&mut sys, &dev, threads),
            Variant::SwDecoupled => self.load_sw_dec(&mut sys, &dev, threads),
            Variant::Desc => self.load_desc(&mut sys, &dev),
        }

        let outcome = sys.run(MAX_CYCLES);
        finish(&mut sys, outcome, dev.dist, &expected)
    }

    // --- do-all (with optional software prefetch or LIMA) ----------------

    fn load_doall(
        &self,
        sys: &mut System,
        dev: &Dev,
        threads: usize,
        prefetch: Option<u32>,
        lima: bool,
    ) {
        let maple_va = lima.then(|| sys.map_maple(0));
        for w in 0..threads {
            let mut b = ProgramBuilder::new();
            let c = Common::allocate(&mut b, threads as u64);
            let i = b.reg("i");
            let hi = b.reg("hi");
            let u = b.reg("u");
            let j = b.reg("j");
            let jend = b.reg("jend");
            let v = b.reg("v");
            let dv = b.reg("dv");
            let maple_regs = maple_va.map(|_| {
                (
                    b.reg("maple"),
                    b.reg("u2"),
                    b.reg("l2"),
                    b.reg("h2"),
                    b.reg("lt"),
                    b.reg("lt2"),
                )
            });
            let pf = prefetch.map(|_| (b.reg("jd"), b.reg("v2")));

            c.emit_level_loop(&mut b, w == 0, |b, c| {
                c.emit_partition(b, w as u64, i, hi);
                if let Some((mbase, u2, l2, h2, lt, lt2)) = maple_regs {
                    let api = MapleApi::new(mbase);
                    // Prologue LIMA for the first frontier vertex.
                    let no_pro = b.label("no_pro");
                    b.bge(i, hi, no_pro);
                    b.load_indexed(u2, c.curp, i, 2, 4, c.tmp);
                    b.load_indexed(l2, c.rp, u2, 2, 4, c.tmp);
                    b.addi(c.tmp, u2, 1);
                    b.load_indexed(h2, c.rp, c.tmp, 2, 4, c.tmp);
                    api.lima(b, 0, c.dist, c.ci, l2, h2, false, 4, 4, lt, lt2);
                    b.bind(no_pro);
                }
                let floop = b.here("frontier");
                let fdone = b.label("fdone");
                b.bge(i, hi, fdone);
                if let Some((mbase, u2, l2, h2, lt, lt2)) = maple_regs {
                    let api = MapleApi::new(mbase);
                    // Runahead: LIMA for the next frontier vertex.
                    let no_next = b.label("no_next");
                    b.addi(u2, i, 1);
                    b.bge(u2, hi, no_next);
                    b.load_indexed(u2, c.curp, u2, 2, 4, c.tmp);
                    b.load_indexed(l2, c.rp, u2, 2, 4, c.tmp);
                    b.addi(c.tmp, u2, 1);
                    b.load_indexed(h2, c.rp, c.tmp, 2, 4, c.tmp);
                    api.lima(b, 0, c.dist, c.ci, l2, h2, false, 4, 4, lt, lt2);
                    b.bind(no_next);
                }
                b.load_indexed(u, c.curp, i, 2, 4, c.tmp);
                b.load_indexed(j, c.rp, u, 2, 4, c.tmp);
                b.addi(c.tmp, u, 1);
                b.load_indexed(jend, c.rp, c.tmp, 2, 4, c.tmp);
                let nloop = b.here("neigh");
                let nnext = b.label("nnext");
                b.bge(j, jend, nnext);
                b.load_indexed(v, c.ci, j, 2, 4, c.tmp);
                if let Some((mbase, ..)) = maple_regs {
                    let api = MapleApi::new(mbase);
                    api.consume(b, 0, dv, 4);
                } else {
                    b.load_indexed(dv, c.dist, v, 2, 4, c.tmp);
                }
                if let Some((jd, v2)) = pf {
                    let d = prefetch.expect("pf implies prefetch");
                    // Prefetch dist[ci[min(j+d, jend-1)]].
                    b.addi(jd, j, i64::from(d));
                    b.addi(c.tmp, jend, -1);
                    b.alu(maple_isa::AluOp::MinU, jd, jd, maple_isa::Operand::Reg(c.tmp));
                    b.load_indexed(v2, c.ci, jd, 2, 4, c.tmp);
                    b.index_addr(c.tmp, c.dist, v2, 2);
                    b.prefetch(c.tmp, 0);
                }
                let skip = b.label("skip");
                b.bne(dv, c.maxv, skip);
                c.emit_update(b, v, skip);
                b.bind(skip);
                b.addi(j, j, 1);
                b.jump(nloop);
                b.bind(nnext);
                b.addi(i, i, 1);
                b.jump(floop);
                b.bind(fdone);
            });
            let mut binds = c.bindings(dev);
            if let Some((mbase, ..)) = maple_regs {
                binds.push((mbase, maple_va.expect("lima has a mapped engine").0));
            }
            sys.load_program(b.build().expect("bfs doall builds"), &binds);
        }
    }

    // --- MAPLE decoupling --------------------------------------------------

    fn load_maple_dec(&self, sys: &mut System, dev: &Dev, threads: usize) {
        let pairs = threads / 2;
        let maple_va = sys.map_maple(0);
        /// Vertices of row-bound runahead on the Access side.
        const RUNAHEAD: i64 = 6;
        for p in 0..pairs {
            // Two queues per pair. `q`: the vertex id (data produce) and
            // its gathered distance (pointer produce) occupy adjacent
            // 4-byte slots, so the Execute thread pops both with a single
            // 8-byte consume — the two-words-per-load trick of Figure 10.
            // `q_rp`: the Access thread's *own* irregular loads — the row
            // bounds rp[u], rp[u+1] — are pointer-produced `RUNAHEAD`
            // vertices ahead and consumed back as one wide load, so the
            // Access thread never blocks on DRAM either.
            let q = (2 * p) as u8;
            let q_rp = (2 * p + 1) as u8;

            // Access: walks its frontier share, produces v and &dist[v].
            let mut b = ProgramBuilder::new();
            let c = Common::allocate(&mut b, threads as u64);
            let mbase = b.reg("maple");
            let api = MapleApi::new(mbase);
            let i = b.reg("i");
            let hi = b.reg("hi");
            let k = b.reg("k");
            let klim = b.reg("klim");
            let u = b.reg("u");
            let j = b.reg("j");
            let jend = b.reg("jend");
            let bounds = b.reg("bounds");
            let v = b.reg("v");
            let ptr = b.reg("ptr");
            let sent = b.reg("sent");
            let mask = b.reg("mask");
            b.li(mask, 0xffff_ffff);
            c.emit_level_loop(&mut b, false, |b, c| {
                c.emit_partition_of(b, p as u64, pairs as u64, i, hi);
                // Prologue: gather row bounds for the first RUNAHEAD
                // vertices.
                b.mv(k, i);
                b.addi(klim, i, RUNAHEAD);
                b.alu(maple_isa::AluOp::MinU, klim, klim, maple_isa::Operand::Reg(hi));
                let pro = b.here("prologue");
                let pro_done = b.label("pro_done");
                b.bge(k, klim, pro_done);
                b.load_indexed(u, c.curp, k, 2, 4, c.tmp);
                b.index_addr(ptr, c.rp, u, 2);
                api.produce_ptr_llc(b, q_rp, ptr);
                b.addi(ptr, ptr, 4);
                api.produce_ptr_llc(b, q_rp, ptr);
                b.addi(k, k, 1);
                b.jump(pro);
                b.bind(pro_done);

                let floop = b.here("frontier");
                let fdone = b.label("fdone");
                b.bge(i, hi, fdone);
                // Keep the row-bound pipeline primed.
                let no_ahead = b.label("no_ahead");
                b.bge(k, hi, no_ahead);
                b.load_indexed(u, c.curp, k, 2, 4, c.tmp);
                b.index_addr(ptr, c.rp, u, 2);
                api.produce_ptr_llc(b, q_rp, ptr);
                b.addi(ptr, ptr, 4);
                api.produce_ptr_llc(b, q_rp, ptr);
                b.addi(k, k, 1);
                b.bind(no_ahead);
                // Row bounds arrive as one wide consume: (jend<<32)|j.
                api.consume(b, q_rp, bounds, 8);
                b.alu(maple_isa::AluOp::And, j, bounds, maple_isa::Operand::Reg(mask));
                b.alu(maple_isa::AluOp::Srl, jend, bounds, 32);
                let nloop = b.here("neigh");
                let nnext = b.label("nnext");
                b.bge(j, jend, nnext);
                b.load_indexed(v, c.ci, j, 2, 4, c.tmp);
                api.produce(b, q, v);
                b.index_addr(ptr, c.dist, v, 2);
                // Coherent LLC path: dist is mutable (the Execute thread
                // writes it), and pulling the line into the L2 makes the
                // subsequent atomic fetch-min an L2 hit.
                api.produce_ptr_llc(b, q, ptr);
                b.addi(j, j, 1);
                b.jump(nloop);
                b.bind(nnext);
                b.addi(i, i, 1);
                b.jump(floop);
                b.bind(fdone);
                b.li(sent, u64::from(SENT));
                api.produce(b, q, sent);
                api.produce(b, q, sent);
            });
            let mut binds = c.bindings(dev);
            binds.push((mbase, maple_va.0));
            sys.load_program(b.build().expect("bfs maple access"), &binds);

            // Execute: one wide consume pops (dv << 32) | v.
            let mut b = ProgramBuilder::new();
            let c = Common::allocate(&mut b, threads as u64);
            let mbase = b.reg("maple");
            let api = MapleApi::new(mbase);
            let pairv = b.reg("pair");
            let v = b.reg("v");
            let dv = b.reg("dv");
            let mask = b.reg("mask");
            b.li(mask, 0xffff_ffff);
            c.emit_level_loop(&mut b, p == 0, |b, c| {
                let eloop = b.here("consume");
                let edone = b.label("edone");
                api.consume(b, q, pairv, 8);
                b.alu(maple_isa::AluOp::And, v, pairv, maple_isa::Operand::Reg(mask));
                b.beq(v, u64::from(SENT) as i64, edone);
                b.alu(maple_isa::AluOp::Srl, dv, pairv, 32);
                let skip = b.label("skip");
                b.bne(dv, c.maxv, skip);
                c.emit_update(b, v, skip);
                b.bind(skip);
                b.jump(eloop);
                b.bind(edone);
            });
            let mut binds = c.bindings(dev);
            binds.push((mbase, maple_va.0));
            sys.load_program(b.build().expect("bfs maple execute"), &binds);
        }
    }

    // --- software decoupling -----------------------------------------------

    fn load_sw_dec(&self, sys: &mut System, dev: &Dev, threads: usize) {
        let pairs = threads / 2;
        let layout = SwQueueLayout::new(64);
        for p in 0..pairs {
            let qva = sys.alloc(layout.bytes());

            // Access: loads dist[v] itself (blocking), packs (v<<32)|dv.
            let mut b = ProgramBuilder::new();
            let c = Common::allocate(&mut b, threads as u64);
            let qbase = b.reg("qbase");
            let prod = SwProducer::new(&mut b, qbase, layout.capacity);
            let i = b.reg("i");
            let hi = b.reg("hi");
            let u = b.reg("u");
            let j = b.reg("j");
            let jend = b.reg("jend");
            let v = b.reg("v");
            let dv = b.reg("dv");
            let packed = b.reg("packed");
            c.emit_level_loop(&mut b, false, |b, c| {
                c.emit_partition_of(b, p as u64, pairs as u64, i, hi);
                let floop = b.here("frontier");
                let fdone = b.label("fdone");
                b.bge(i, hi, fdone);
                b.load_indexed(u, c.curp, i, 2, 4, c.tmp);
                b.load_indexed(j, c.rp, u, 2, 4, c.tmp);
                b.addi(c.tmp, u, 1);
                b.load_indexed(jend, c.rp, c.tmp, 2, 4, c.tmp);
                let nloop = b.here("neigh");
                let nnext = b.label("nnext");
                b.bge(j, jend, nnext);
                b.load_indexed(v, c.ci, j, 2, 4, c.tmp);
                b.load_indexed(dv, c.dist, v, 2, 4, c.tmp); // blocking IMA
                b.slli(packed, v, 32);
                b.add(packed, packed, dv);
                prod.emit_produce(b, packed);
                b.addi(j, j, 1);
                b.jump(nloop);
                b.bind(nnext);
                b.addi(i, i, 1);
                b.jump(floop);
                b.bind(fdone);
                b.li(packed, (u64::from(SENT) << 32) | u64::from(UNVISITED));
                prod.emit_produce(b, packed);
            });
            let mut binds = c.bindings(dev);
            binds.push((qbase, qva.0));
            sys.load_program(b.build().expect("bfs sw access"), &binds);

            // Execute.
            let mut b = ProgramBuilder::new();
            let c = Common::allocate(&mut b, threads as u64);
            let qbase = b.reg("qbase");
            let cons = SwConsumer::new(&mut b, qbase, layout.capacity);
            let packed = b.reg("packed");
            let v = b.reg("v");
            let dv = b.reg("dv");
            let mask = b.reg("mask");
            b.li(mask, 0xffff_ffff);
            c.emit_level_loop(&mut b, p == 0, |b, c| {
                let eloop = b.here("consume");
                let edone = b.label("edone");
                cons.emit_consume(b, packed);
                b.alu(maple_isa::AluOp::Srl, v, packed, 32);
                b.beq(v, u64::from(SENT) as i64, edone);
                b.alu(maple_isa::AluOp::And, dv, packed, maple_isa::Operand::Reg(mask));
                let skip = b.label("skip");
                b.bne(dv, c.maxv, skip);
                c.emit_update(b, v, skip);
                b.bind(skip);
                b.jump(eloop);
                b.bind(edone);
            });
            let mut binds = c.bindings(dev);
            binds.push((qbase, qva.0));
            sys.load_program(b.build().expect("bfs sw execute"), &binds);
        }
    }

    // --- DeSC ----------------------------------------------------------------

    fn load_desc(&self, sys: &mut System, dev: &Dev) {
        // Supply: walks, terminal-loads dist[v], and — because Compute has
        // no memory access — performs every atomic update itself, draining
        // the decision queue opportunistically.
        let mut b = ProgramBuilder::new();
        let c = Common::allocate(&mut b, 2);
        let i = b.reg("i");
        let hi = b.reg("hi");
        let u = b.reg("u");
        let j = b.reg("j");
        let jend = b.reg("jend");
        let v = b.reg("v");
        let ptr = b.reg("ptr");
        let dec = b.reg("dec");
        let emptyv = b.reg("emptyv");
        c.emit_level_loop(&mut b, true, |b, c| {
            b.li(emptyv, u64::MAX);
            c.emit_partition_of(b, 0, 1, i, hi);
            let floop = b.here("frontier");
            let fdone = b.label("fdone");
            b.bge(i, hi, fdone);
            b.load_indexed(u, c.curp, i, 2, 4, c.tmp);
            b.load_indexed(j, c.rp, u, 2, 4, c.tmp);
            b.addi(c.tmp, u, 1);
            b.load_indexed(jend, c.rp, c.tmp, 2, 4, c.tmp);
            let nloop = b.here("neigh");
            let nnext = b.label("nnext");
            b.bge(j, jend, nnext);
            // Opportunistically apply one pending decision.
            let no_dec = b.label("no_dec");
            b.desc_try_consume(dec, 2);
            b.beq(dec, maple_isa::Operand::Reg(emptyv), no_dec);
            c.emit_update(b, dec, no_dec);
            b.bind(no_dec);
            b.load_indexed(v, c.ci, j, 2, 4, c.tmp);
            b.index_addr(ptr, c.dist, v, 2);
            b.desc_produce_load(0, ptr, 0, 4);
            b.desc_produce(1, v);
            b.addi(j, j, 1);
            b.jump(nloop);
            b.bind(nnext);
            b.addi(i, i, 1);
            b.jump(floop);
            b.bind(fdone);
            // Close the level and drain remaining decisions.
            b.li(c.tmp, u64::from(SENT));
            b.desc_produce(1, c.tmp);
            let drain = b.here("drain");
            let drained = b.label("drained");
            b.desc_consume(dec, 2);
            b.beq(dec, END_MARK as i64, drained);
            let skip = b.label("skip");
            c.emit_update(b, dec, skip);
            b.bind(skip);
            b.jump(drain);
            b.bind(drained);
        });
        let supply = sys.load_program(b.build().expect("bfs desc supply"), &c.bindings(dev));

        // Compute: checks dist values, returns candidate updates.
        let mut b = ProgramBuilder::new();
        let c = Common::allocate(&mut b, 2);
        let v = b.reg("v");
        let dv = b.reg("dv");
        let endm = b.reg("endm");
        c.emit_level_loop(&mut b, false, |b, c| {
            b.li(endm, END_MARK);
            let cloop = b.here("check");
            let cdone = b.label("cdone");
            b.desc_consume(v, 1);
            b.beq(v, u64::from(SENT) as i64, cdone);
            b.desc_consume(dv, 0);
            let no_cand = b.label("no_cand");
            b.bne(dv, c.maxv, no_cand);
            b.desc_produce(2, v);
            b.bind(no_cand);
            b.jump(cloop);
            b.bind(cdone);
            b.desc_produce(2, endm);
        });
        let compute = sys.load_program(b.build().expect("bfs desc compute"), &c.bindings(dev));
        sys.pair_desc(supply, compute, 3);
    }
}

/// Device arrays.
struct Dev {
    rp: VAddr,
    ci: VAddr,
    dist: VAddr,
    cur: VAddr,
    next: VAddr,
    ctrl: VAddr,
    bar: VAddr,
}

/// Registers and emitters shared by every BFS program.
struct Common {
    rp: Reg,
    ci: Reg,
    dist: Reg,
    curp: Reg,
    nextp: Reg,
    ctrl: Reg,
    bar_base: Reg,
    level: Reg,
    cc: Reg,
    maxv: Reg,
    one: Reg,
    old: Reg,
    slot: Reg,
    tmp: Reg,
    tmp2: Reg,
    barrier: Barrier,
    threads: u64,
}

impl Common {
    fn allocate(b: &mut ProgramBuilder, threads: u64) -> Self {
        let bar_base = b.reg("bar");
        let barrier = Barrier::new(b, bar_base, threads);
        Common {
            rp: b.reg("rp"),
            ci: b.reg("ci"),
            dist: b.reg("dist"),
            curp: b.reg("curp"),
            nextp: b.reg("nextp"),
            ctrl: b.reg("ctrl"),
            bar_base,
            level: b.reg("level"),
            cc: b.reg("cc"),
            maxv: b.reg("maxv"),
            one: b.reg("one"),
            old: b.reg("old"),
            slot: b.reg("slot"),
            tmp: b.reg("tmp"),
            tmp2: b.reg("tmp2"),
            barrier,
            threads,
        }
    }

    fn bindings(&self, d: &Dev) -> Vec<(Reg, u64)> {
        vec![
            (self.rp, d.rp.0),
            (self.ci, d.ci.0),
            (self.dist, d.dist.0),
            (self.curp, d.cur.0),
            (self.nextp, d.next.0),
            (self.ctrl, d.ctrl.0),
            (self.bar_base, d.bar.0),
        ]
    }

    /// The level-synchronous skeleton: read the frontier size, run the
    /// variant's work phase, synchronize, let the manager swap counters,
    /// swap frontier pointers locally, repeat until the frontier is empty.
    fn emit_level_loop(
        &self,
        b: &mut ProgramBuilder,
        is_manager: bool,
        mut work: impl FnMut(&mut ProgramBuilder, &Common),
    ) {
        b.li(self.level, 1);
        b.li(self.maxv, u64::from(UNVISITED));
        b.li(self.one, 1);
        let level_top = b.here("level");
        let halt_l = b.label("halt");
        b.ld_volatile(self.cc, self.ctrl, 0, 8);
        b.beq(self.cc, 0i64, halt_l);
        work(b, self);
        self.barrier.emit(b);
        if is_manager {
            b.ld_volatile(self.tmp, self.ctrl, 64, 8);
            b.st(self.tmp, self.ctrl, 0, 8);
            b.st(ZERO, self.ctrl, 64, 8);
        }
        self.barrier.emit(b);
        // Swap cur/next locally.
        b.mv(self.tmp, self.curp);
        b.mv(self.curp, self.nextp);
        b.mv(self.nextp, self.tmp);
        b.addi(self.level, self.level, 1);
        b.jump(level_top);
        b.bind(halt_l);
        b.halt();
    }

    /// `i = w*chunk, hi = min((w+1)*chunk, cc)` with
    /// `chunk = (cc + W - 1) >> log2(W)`.
    fn emit_partition(&self, b: &mut ProgramBuilder, w: u64, i: Reg, hi: Reg) {
        self.emit_partition_of(b, w, self.threads, i, hi);
    }

    /// Partition among `of` workers (decoupled variants partition among
    /// pairs, not threads).
    fn emit_partition_of(&self, b: &mut ProgramBuilder, w: u64, of: u64, i: Reg, hi: Reg) {
        assert!(of.is_power_of_two());
        let s = of.trailing_zeros() as i64;
        // chunk = (cc + of - 1) >> s
        b.addi(self.tmp2, self.cc, of as i64 - 1);
        b.alu(maple_isa::AluOp::Srl, self.tmp2, self.tmp2, maple_isa::Operand::Imm(s));
        b.li(i, w);
        b.mul(i, i, self.tmp2);
        b.add(hi, i, self.tmp2);
        b.alu(maple_isa::AluOp::MinU, hi, hi, maple_isa::Operand::Reg(self.cc));
        b.alu(maple_isa::AluOp::MinU, i, i, maple_isa::Operand::Reg(self.cc));
    }

    /// The atomic update: `old = amo_min(dist[v], level); if old == MAX
    /// { next[amo_add(next_count, 1)] = v }`. Jumps to `skip` when the
    /// vertex was already visited.
    fn emit_update(&self, b: &mut ProgramBuilder, v: Reg, skip: maple_isa::builder::Label) {
        b.index_addr(self.tmp, self.dist, v, 2);
        b.amo(AtomicOp::MinU, self.old, self.tmp, 0, 4, self.level, ZERO);
        b.bne(self.old, self.maxv, skip);
        b.amo(AtomicOp::Add, self.slot, self.ctrl, 64, 8, self.one, ZERO);
        b.store_indexed(v, self.nextp, self.slot, 2, 4, self.tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::rmat;

    fn small() -> Bfs {
        let graph = rmat(7, 6, (0.5, 0.2, 0.2, 0.1), 3);
        let root = (0..graph.nrows)
            .find(|&r| !graph.row_range(r).is_empty())
            .unwrap() as u32;
        Bfs { graph, root }
    }

    #[test]
    fn reference_sane() {
        let b = small();
        let d = b.reference();
        assert_eq!(d[b.root as usize], 0);
        assert!(d.contains(&1), "root has reachable neighbors");
    }

    #[test]
    fn doall_verifies_one_and_two_threads() {
        let inst = small();
        assert!(inst.run(Variant::Doall, 1).verified);
        assert!(inst.run(Variant::Doall, 2).verified);
    }

    #[test]
    fn maple_decoupled_verifies() {
        assert!(small().run(Variant::MapleDecoupled, 2).verified);
    }

    #[test]
    fn sw_decoupled_verifies() {
        assert!(small().run(Variant::SwDecoupled, 2).verified);
    }

    #[test]
    fn desc_verifies() {
        assert!(small().run(Variant::Desc, 2).verified);
    }

    #[test]
    fn prefetch_variants_verify() {
        let inst = small();
        assert!(inst.run(Variant::SwPrefetch { dist: 8 }, 1).verified);
        assert!(inst.run(Variant::MapleLima, 1).verified);
    }

    #[test]
    fn droplet_verifies() {
        assert!(small().run(Variant::Droplet, 2).verified);
    }

    #[test]
    fn four_thread_scaling_works() {
        let inst = small();
        assert!(inst.run(Variant::Doall, 4).verified);
        assert!(inst.run(Variant::MapleDecoupled, 4).verified);
    }
}
