//! Sparse Matrix–Vector multiplication (SPMV).
//!
//! `y[r] = Σ_j values[j] * x[col_idx[j]]` over each row's nonzeros. The
//! indirect access is the gather `x[col_idx[j]]`; rows stream. Every
//! latency-tolerance variant of Section 5 is implemented:
//!
//! - do-all (row-partitioned threads),
//! - software decoupling (shared-memory rings),
//! - MAPLE decoupling (`PRODUCE_PTR`/`CONSUME`),
//! - DeSC (terminal loads + coupled queues),
//! - software prefetching (distance-`D`, with the address-recomputation
//!   overhead the paper charges),
//! - MAPLE LIMA (one command per row, non-speculative into a queue),
//! - DROPLET (memory-side indirect prefetcher).
//!
//! Do-all, DROPLET, software prefetching and both decoupled variants run
//! the [`crate::slice`] builders, one [`QueryKind::SpmvSlice`] query per
//! thread or pair, so serving and the figures share one program set.
//! Only DeSC, LIMA and the asymmetric study build their own programs.

use maple_baselines::swdec::SwQueueLayout;
use maple_isa::builder::ProgramBuilder;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_soc::SocConfig;
use maple_vm::VAddr;

use crate::data::{dense_vector, Csr, Dataset};
use crate::harness::{
    alloc_u32, check_maple_queues, config_for, finish, partition, RunStats, Variant, MAX_CYCLES,
};
use crate::slice::{
    doall_query, maple_access_query, maple_execute_query, swdec_access_query, swdec_execute_query,
    upload_tenant, QueryKind, SliceQuery, SliceRegs, TenantArrays,
};

/// An SPMV problem instance.
#[derive(Debug, Clone)]
pub struct Spmv {
    /// The sparse matrix.
    pub a: Csr,
    /// The dense vector.
    pub x: Vec<u32>,
}

impl Spmv {
    /// Builds an instance from a dataset preset.
    #[must_use]
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let a = dataset.generate(seed);
        let x = dense_vector(a.ncols, seed ^ 0x5151);
        Spmv { a, x }
    }

    /// Host reference result (wrapping arithmetic, bit-comparable).
    #[must_use]
    pub fn reference(&self) -> Vec<u32> {
        (0..self.a.nrows)
            .map(|r| {
                self.a.row_range(r).fold(0u32, |acc, j| {
                    let prod = self.a.values[j].wrapping_mul(self.x[self.a.col_idx[j] as usize]);
                    acc.wrapping_add(prod)
                })
            })
            .collect()
    }

    /// One [`QueryKind::SpmvSlice`] query per part of the row partition.
    fn slices(&self, parts: usize) -> impl Iterator<Item = SliceQuery> {
        partition(self.a.nrows, parts)
            .into_iter()
            .map(|(lo, hi)| SliceQuery {
                kind: QueryKind::SpmvSlice,
                lo,
                hi,
            })
    }

    /// The thread counts SPMV runs on under `variant`; MAPLE-decoupled
    /// pairs must fit the queues of [`config_for`]`(variant, threads)`.
    ///
    /// # Errors
    ///
    /// Names the rule `threads` breaks.
    pub fn check_threads(variant: Variant, threads: usize) -> Result<(), String> {
        Self::check_threads_on(&config_for(variant, threads), variant, threads)
    }

    /// [`Spmv::check_threads`] against a tuned configuration: pairs are
    /// spread round-robin over every MAPLE instance, one queue each.
    fn check_threads_on(cfg: &SocConfig, variant: Variant, threads: usize) -> Result<(), String> {
        let rule = match variant {
            Variant::SwDecoupled | Variant::MapleDecoupled
                if threads < 2 || !threads.is_multiple_of(2) =>
            {
                "decoupling needs pairs (an even thread count)"
            }
            Variant::Desc if threads != 2 => "the DeSC comparison runs one Supply/Compute pair",
            Variant::MapleLima if threads != 1 => "the prefetch study runs single-threaded",
            Variant::MapleDecoupled => {
                let have = cfg.maples * cfg.maple.queues;
                return check_maple_queues("spmv", variant, threads, threads / 2, have);
            }
            _ => return Ok(()),
        };
        Err(format!(
            "spmv {}: {rule}, not {threads} threads",
            variant.label()
        ))
    }

    /// Runs the given variant on `threads` hardware threads and verifies
    /// the result against the host reference.
    ///
    /// # Panics
    ///
    /// Panics on a thread count [`Spmv::check_threads`] rejects.
    #[must_use]
    pub fn run(&self, variant: Variant, threads: usize) -> RunStats {
        self.run_tuned(variant, threads, |c| c)
    }

    /// Like [`Spmv::run`] but lets the caller adjust the SoC configuration
    /// (queue-size and communication-latency sweeps).
    #[must_use]
    pub fn run_tuned(
        &self,
        variant: Variant,
        threads: usize,
        tune: impl FnOnce(maple_soc::SocConfig) -> maple_soc::SocConfig,
    ) -> RunStats {
        self.run_observed(variant, threads, tune).0
    }

    /// Like [`Spmv::run_tuned`] but also returns the finished [`System`],
    /// giving callers the observability surface: captured trace records,
    /// the metrics snapshot, and per-core stall rows (see the
    /// `trace_spmv` example).
    #[must_use]
    pub fn run_observed(
        &self,
        variant: Variant,
        threads: usize,
        tune: impl FnOnce(maple_soc::SocConfig) -> maple_soc::SocConfig,
    ) -> (RunStats, System) {
        let cfg = tune(config_for(variant, threads));
        Self::check_threads_on(&cfg, variant, threads).unwrap_or_else(|e| panic!("{e}"));
        let mut sys = System::new(cfg);
        let arrays = upload_tenant(&mut sys, &self.a, &self.x);
        let yy = alloc_u32(&mut sys, self.a.nrows);
        let expected = self.reference();
        let out = |q: &SliceQuery| yy.offset(q.lo as u64 * 4);

        match variant {
            Variant::Doall | Variant::Droplet | Variant::SwPrefetch { .. } => {
                if variant == Variant::Droplet {
                    sys.droplet_watch(arrays.ci, (self.a.nnz() * 4) as u64, 4, arrays.xx, 4);
                }
                let prefetch = match variant {
                    Variant::SwPrefetch { dist } => Some((dist, self.a.nnz().saturating_sub(1))),
                    _ => None,
                };
                for q in self.slices(threads) {
                    let (p, b) = doall_query(&q, &arrays, out(&q), prefetch);
                    sys.load_program(p, &b);
                }
            }
            Variant::SwDecoupled => {
                let layout = SwQueueLayout::new(64);
                for q in self.slices(threads / 2) {
                    let ring = sys.alloc(layout.bytes());
                    let (ap, ab) = swdec_access_query(&q, &arrays, ring, &layout);
                    let (ep, eb) = swdec_execute_query(&q, &arrays, out(&q), ring, &layout);
                    sys.load_program(ap, &ab);
                    sys.load_program(ep, &eb);
                }
            }
            Variant::MapleDecoupled => {
                // Pairs are distributed round-robin over the configured
                // MAPLE instances (the paper's tiled scaling: "more units
                // can be employed for larger thread counts").
                let maples = sys.config().maples;
                let maple_vas: Vec<_> = (0..maples).map(|e| sys.map_maple(e)).collect();
                for (pair, q) in self.slices(threads / 2).enumerate() {
                    let va = maple_vas[pair % maples];
                    let queue = (pair / maples) as u8;
                    let (ap, ab) = maple_access_query(&q, &arrays, va, queue);
                    let (ep, eb) = maple_execute_query(&q, &arrays, out(&q), va, queue);
                    sys.load_program(ap, &ab);
                    sys.load_program(ep, &eb);
                }
            }
            Variant::Desc => self.load_desc(&mut sys, &arrays, yy),
            Variant::MapleLima => self.load_lima(&mut sys, &arrays, yy),
        }

        let outcome = sys.run(MAX_CYCLES);
        let stats = finish(&mut sys, outcome, yy, &expected);
        (stats, sys)
    }

    /// Asymmetric decoupling (paper §3.1): **one** Access thread supplies
    /// `executes` Execute threads through per-consumer queues — a relation
    /// prior DAE architectures, which scale only in Access/Execute pairs,
    /// cannot express. Rows are interleaved across Execute threads; the
    /// Access thread selects the destination queue at run time by forming
    /// the MMIO address in a register.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= executes <= 7` (queue-count bound).
    #[must_use]
    pub fn run_asymmetric(&self, executes: usize) -> RunStats {
        assert!((1..=7).contains(&executes), "one queue per Execute thread");
        let threads = 1 + executes;
        let mut sys = System::new(config_for(Variant::MapleDecoupled, threads));
        let arrays = upload_tenant(&mut sys, &self.a, &self.x);
        let yy = alloc_u32(&mut sys, self.a.nrows);
        let expected = self.reference();
        let maple_va = sys.map_maple(0);
        let nrows = self.a.nrows;

        // Access: walks every row, round-robining rows over the queues.
        {
            use maple_soc::mmio::{store_offset, StoreOp};
            let mut b = ProgramBuilder::new();
            let regs = SliceRegs::allocate(&mut b);
            let mbase = b.reg("maple");
            let r = b.reg("r");
            let j = b.reg("j");
            let jend = b.reg("jend");
            let c = b.reg("c");
            let ptr = b.reg("ptr");
            let qc = b.reg("qc");
            let qoff = b.reg("qoff");
            let tmp = b.reg("tmp");
            b.li(r, 0);
            b.li(qc, 0);
            let row = b.here("row");
            let done = b.label("done");
            b.bge(r, nrows as i64, done);
            // qoff = maple_base + (qc << 9): queue field of the MMIO page.
            b.slli(qoff, qc, 9);
            b.add(qoff, qoff, mbase);
            b.load_indexed(j, regs.rp, r, 2, 4, tmp);
            b.addi(tmp, r, 1);
            b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
            let inner = b.here("inner");
            let endrow = b.label("endrow");
            b.bge(j, jend, endrow);
            b.load_indexed(c, regs.ci, j, 2, 4, tmp);
            b.index_addr(ptr, regs.xx, c, 2);
            // PRODUCE_PTR with a runtime queue: static op bits, dynamic
            // queue bits.
            b.st(ptr, qoff, store_offset(StoreOp::ProducePtr, 0) as i64, 8);
            b.addi(j, j, 1);
            b.jump(inner);
            b.bind(endrow);
            // qc = (qc + 1) % executes
            let wrap = b.label("wrap");
            b.addi(qc, qc, 1);
            b.blt(qc, executes as i64, wrap);
            b.li(qc, 0);
            b.bind(wrap);
            b.addi(r, r, 1);
            b.jump(row);
            b.bind(done);
            b.halt();
            let mut binds = regs.bindings(&arrays, yy.0);
            binds.push((mbase, maple_va.0));
            sys.load_program(b.build().expect("asymmetric access builds"), &binds);
        }

        // Execute e: rows e, e+E, e+2E, … consuming from queue e.
        for e in 0..executes {
            let mut b = ProgramBuilder::new();
            let regs = SliceRegs::allocate(&mut b);
            let mbase = b.reg("maple");
            let api = MapleApi::new(mbase);
            let r = b.reg("r");
            let j = b.reg("j");
            let jend = b.reg("jend");
            let v = b.reg("v");
            let xv = b.reg("xv");
            let acc = b.reg("acc");
            let tmp = b.reg("tmp");
            b.li(r, e as u64);
            let row = b.here("row");
            let done = b.label("done");
            b.bge(r, nrows as i64, done);
            b.load_indexed(j, regs.rp, r, 2, 4, tmp);
            b.addi(tmp, r, 1);
            b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
            b.li(acc, 0);
            let inner = b.here("inner");
            let endrow = b.label("endrow");
            b.bge(j, jend, endrow);
            b.load_indexed(v, regs.vv, j, 2, 4, tmp);
            api.consume(&mut b, e as u8, xv, 4);
            b.mul(v, v, xv);
            b.add(acc, acc, v);
            b.addi(j, j, 1);
            b.jump(inner);
            b.bind(endrow);
            b.store_indexed(acc, regs.out, r, 2, 4, tmp);
            b.addi(r, r, executes as i64);
            b.jump(row);
            b.bind(done);
            b.halt();
            let mut binds = regs.bindings(&arrays, yy.0);
            binds.push((mbase, maple_va.0));
            sys.load_program(b.build().expect("asymmetric execute builds"), &binds);
        }

        let outcome = sys.run(MAX_CYCLES);
        finish(&mut sys, outcome, yy, &expected)
    }

    // --- DeSC ---------------------------------------------------------------

    fn load_desc(&self, sys: &mut System, arrays: &TenantArrays, yy: VAddr) {
        let (lo, hi) = (0, self.a.nrows);

        // Supply: streams structure, terminal-loads x and values; row
        // results return on the store-value queue (q2) and are stored
        // asynchronously (opportunistic drain + final flush).
        let mut b = ProgramBuilder::new();
        let regs = SliceRegs::allocate(&mut b);
        let r = b.reg("r");
        let r2 = b.reg("store_row");
        let j = b.reg("j");
        let jend = b.reg("jend");
        let c = b.reg("c");
        let ptr = b.reg("ptr");
        let len = b.reg("len");
        let acc = b.reg("acc");
        let tmp = b.reg("tmp");
        let empty = b.reg("empty");
        b.li(r, lo as u64);
        b.li(r2, lo as u64);
        b.li(empty, u64::MAX);
        let row = b.here("row");
        let done = b.label("done");
        b.bge(r, hi as i64, done);
        b.load_indexed(j, regs.rp, r, 2, 4, tmp);
        b.addi(tmp, r, 1);
        b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
        b.sub(len, jend, j);
        b.desc_produce(3, len);
        let inner = b.here("inner");
        let endrow = b.label("endrow");
        b.bge(j, jend, endrow);
        b.load_indexed(c, regs.ci, j, 2, 4, tmp);
        b.index_addr(ptr, regs.xx, c, 2);
        b.desc_produce_load(0, ptr, 0, 4);
        b.index_addr(ptr, regs.vv, j, 2);
        b.desc_produce_load(1, ptr, 0, 4);
        b.addi(j, j, 1);
        b.jump(inner);
        b.bind(endrow);
        // Drain at most one finished row without blocking.
        let no_out = b.label("no_out");
        b.desc_try_consume(acc, 2);
        b.beq(acc, maple_isa::Operand::Reg(empty), no_out);
        b.store_indexed(acc, regs.out, r2, 2, 4, tmp);
        b.addi(r2, r2, 1);
        b.bind(no_out);
        b.addi(r, r, 1);
        b.jump(row);
        b.bind(done);
        // Flush the remaining row results.
        let flush = b.here("flush");
        let flushed = b.label("flushed");
        b.bge(r2, hi as i64, flushed);
        b.desc_consume(acc, 2);
        b.store_indexed(acc, regs.out, r2, 2, 4, tmp);
        b.addi(r2, r2, 1);
        b.jump(flush);
        b.bind(flushed);
        b.halt();
        let supply = sys.load_program(
            b.build().expect("desc supply builds"),
            &regs.bindings(arrays, yy.0),
        );

        // Compute: no memory visibility; everything arrives on queues.
        let mut b = ProgramBuilder::new();
        let r = b.reg("r");
        let nrows = b.reg("nrows");
        let len = b.reg("len");
        let k = b.reg("k");
        let xv = b.reg("xv");
        let v = b.reg("v");
        let acc = b.reg("acc");
        b.li(r, 0);
        b.li(nrows, (hi - lo) as u64);
        let row = b.here("row");
        let done = b.label("done");
        b.bge(r, nrows, done);
        b.desc_consume(len, 3);
        b.li(acc, 0);
        b.li(k, 0);
        let inner = b.here("inner");
        let endrow = b.label("endrow");
        b.bge(k, len, endrow);
        b.desc_consume(xv, 0);
        b.desc_consume(v, 1);
        b.mul(v, v, xv);
        b.add(acc, acc, v);
        b.addi(k, k, 1);
        b.jump(inner);
        b.bind(endrow);
        // Mask to the stored width so the value can never alias the
        // try-consume empty marker (u64::MAX).
        b.alu(maple_isa::AluOp::And, acc, acc, 0xffff_ffffi64);
        b.desc_produce(2, acc);
        b.addi(r, r, 1);
        b.jump(row);
        b.bind(done);
        b.halt();
        let compute = sys.load_program(b.build().expect("desc compute builds"), &[]);
        sys.pair_desc(supply, compute, 4);
    }

    // --- MAPLE LIMA ----------------------------------------------------------

    fn load_lima(&self, sys: &mut System, arrays: &TenantArrays, yy: VAddr) {
        let maple_va = sys.map_maple(0);
        let (lo, hi) = (0usize, self.a.nrows);

        let mut b = ProgramBuilder::new();
        let regs = SliceRegs::allocate(&mut b);
        let mbase = b.reg("maple");
        let api = MapleApi::new(mbase);
        let r = b.reg("r");
        let rn = b.reg("rn");
        let j = b.reg("j");
        let jend = b.reg("jend");
        let lo2 = b.reg("lo2");
        let hi2 = b.reg("hi2");
        let v = b.reg("v");
        let xv = b.reg("xv");
        let acc = b.reg("acc");
        let tmp = b.reg("tmp");
        let tmp2 = b.reg("tmp2");

        // Prologue: LIMA for the first row.
        b.li(r, lo as u64);
        let start = b.label("start");
        if lo < hi {
            b.load_indexed(lo2, regs.rp, r, 2, 4, tmp);
            b.addi(tmp, r, 1);
            b.load_indexed(hi2, regs.rp, tmp, 2, 4, tmp);
            api.lima(
                &mut b, 0, regs.xx, regs.ci, lo2, hi2, false, 4, 4, tmp, tmp2,
            );
        }
        b.bind(start);
        let row = b.here("row");
        let done = b.label("done");
        b.bge(r, hi as i64, done);
        // Issue LIMA for row r+1 (one-row runahead, Figure 4's D).
        let no_next = b.label("no_next");
        b.addi(rn, r, 1);
        b.bge(rn, hi as i64, no_next);
        b.load_indexed(lo2, regs.rp, rn, 2, 4, tmp);
        b.addi(tmp, rn, 1);
        b.load_indexed(hi2, regs.rp, tmp, 2, 4, tmp);
        api.lima(
            &mut b, 0, regs.xx, regs.ci, lo2, hi2, false, 4, 4, tmp, tmp2,
        );
        b.bind(no_next);
        // Process row r, consuming the gathered x values.
        b.load_indexed(j, regs.rp, r, 2, 4, tmp);
        b.addi(tmp, r, 1);
        b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
        b.li(acc, 0);
        let inner = b.here("inner");
        let endrow = b.label("endrow");
        b.bge(j, jend, endrow);
        b.load_indexed(v, regs.vv, j, 2, 4, tmp);
        api.consume(&mut b, 0, xv, 4);
        b.mul(v, v, xv);
        b.add(acc, acc, v);
        b.addi(j, j, 1);
        b.jump(inner);
        b.bind(endrow);
        b.store_indexed(acc, regs.out, r, 2, 4, tmp);
        b.addi(r, r, 1);
        b.jump(row);
        b.bind(done);
        b.halt();
        let mut binds = regs.bindings(arrays, yy.0);
        binds.push((mbase, maple_va.0));
        sys.load_program(b.build().expect("lima builds"), &binds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::uniform_sparse;

    fn small_instance() -> Spmv {
        // x is 128 KB — far beyond L1+L2 — so the gather is genuinely
        // cache-averse, as in the evaluation.
        let a = uniform_sparse(48, 32 * 1024, 6, 9);
        let x = dense_vector(32 * 1024, 10);
        Spmv { a, x }
    }

    #[test]
    fn doall_single_thread_verifies() {
        let s = small_instance().run(Variant::Doall, 1);
        assert!(s.verified, "doall produced wrong results");
        assert!(s.loads > 0);
    }

    #[test]
    fn doall_two_threads_verifies() {
        assert!(small_instance().run(Variant::Doall, 2).verified);
    }

    #[test]
    fn maple_decoupled_verifies_and_speeds_up() {
        let inst = small_instance();
        let base = inst.run(Variant::Doall, 2);
        let maple = inst.run(Variant::MapleDecoupled, 2);
        assert!(maple.verified);
        assert!(
            maple.speedup_over(&base) > 1.1,
            "expected speedup, got {:.2}",
            maple.speedup_over(&base)
        );
    }

    #[test]
    fn sw_decoupled_verifies() {
        assert!(small_instance().run(Variant::SwDecoupled, 2).verified);
    }

    #[test]
    fn desc_verifies() {
        assert!(small_instance().run(Variant::Desc, 2).verified);
    }

    #[test]
    fn sw_prefetch_verifies_with_more_loads() {
        let inst = small_instance();
        let base = inst.run(Variant::Doall, 1);
        let pref = inst.run(Variant::SwPrefetch { dist: 16 }, 1);
        assert!(pref.verified);
        // SPMV's inner loop already has three loads, so the re-loaded
        // index adds a third more (flatter kernels like SDHP double).
        assert!(
            pref.loads as f64 > 1.25 * base.loads as f64,
            "software prefetching must add load instructions: {} vs {}",
            pref.loads,
            base.loads
        );
    }

    #[test]
    fn lima_verifies_and_cuts_load_latency() {
        let inst = small_instance();
        let base = inst.run(Variant::Doall, 1);
        let lima = inst.run(Variant::MapleLima, 1);
        assert!(lima.verified);
        assert!(
            lima.mean_load_latency < base.mean_load_latency,
            "LIMA should cut mean load latency: {:.1} vs {:.1}",
            lima.mean_load_latency,
            base.mean_load_latency
        );
        assert!(lima.speedup_over(&base) > 1.0);
    }

    #[test]
    fn droplet_verifies() {
        assert!(small_instance().run(Variant::Droplet, 2).verified);
    }

    #[test]
    fn asymmetric_one_access_many_executes_verifies() {
        let inst = small_instance();
        for executes in [1usize, 2, 3] {
            let s = inst.run_asymmetric(executes);
            assert!(s.verified, "asymmetric 1A+{executes}E failed");
        }
    }

    #[test]
    fn asymmetric_beats_symmetric_when_access_is_cheap() {
        // With a compute-heavier Execute side, one Access thread can feed
        // two Executes: 3 threads total vs the 2-thread symmetric pair.
        let inst = small_instance();
        let pair = inst.run(Variant::MapleDecoupled, 2);
        let asym = inst.run_asymmetric(2);
        assert!(asym.verified);
        assert!(
            (asym.cycles as f64) < 1.1 * pair.cycles as f64,
            "1A+2E ({}) should be competitive with 1A+1E ({})",
            asym.cycles,
            pair.cycles
        );
    }
}
