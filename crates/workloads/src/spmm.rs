//! Sparse Matrix–Matrix multiplication (SPMM), layer-wise.
//!
//! `C = A × B` with both operands sparse (CSC) and the output dense,
//! parallelized over the columns of `B` with a dense accumulator column
//! (Mofrad et al., the paper's reference implementation). The indirect
//! access is the accumulator update `Cc[r] += av*bv` — a **read-modify-
//! write**, which is why decoupling cannot hide it (Section 5.2): the
//! consumer immediately writes the location it just read.
//!
//! Variants:
//! - do-all over output columns;
//! - *partial* decoupling (software and MAPLE): the Access thread streams
//!   both sparse structures and ships `(row, product)` pairs; the Execute
//!   thread performs the RMW — the latency-bound part stays, which
//!   reproduces the paper's "decoupling is not effective for SPMM";
//! - DeSC: the slicer finds no decoupleable IMA and falls back to do-all
//!   (exactly what the paper reports for Figure 12);
//! - software prefetching and **speculative** LIMA into the LLC, which do
//!   help (the RMW is prefetchable even though it is not decoupleable);
//! - DROPLET.

use maple_baselines::swdec::{SwConsumer, SwProducer, SwQueueLayout};
use maple_isa::builder::ProgramBuilder;
use maple_isa::Reg;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_vm::VAddr;

use crate::data::{uniform_sparse, Csr};
use crate::harness::{
    alloc_u32, config_for, finish, partition, upload_u32, RunStats, Variant, MAX_CYCLES,
};

/// Column sentinel terminating a decoupled update stream.
const COL_SENTINEL: u32 = u32::MAX;

/// An SPMM instance: `A` is `n×n`, `B` is `n×m`, both column-compressed.
#[derive(Debug, Clone)]
pub struct Spmm {
    /// Left operand in CSC (stored transposed in [`Csr`] fields: "row"
    /// means column).
    pub a: Csr,
    /// Right operand in CSC.
    pub b: Csr,
    /// Dimension `n`.
    pub n: usize,
    /// Output columns `m`.
    pub m: usize,
}

impl Spmm {
    /// Builds a synthetic instance (riscv-tests style uniform sparsity).
    #[must_use]
    pub fn synthetic(n: usize, m: usize, nnz_per_col: usize, seed: u64) -> Self {
        Spmm {
            a: uniform_sparse(n, n, nnz_per_col, seed),
            b: uniform_sparse(m, n, nnz_per_col, seed ^ 0xB),
            n,
            m,
        }
    }

    /// Host reference: dense `n×m` output, column-major.
    #[must_use]
    pub fn reference(&self) -> Vec<u32> {
        let mut c = vec![0u32; self.n * self.m];
        for col in 0..self.m {
            for t in self.b.row_range(col) {
                let k = self.b.col_idx[t] as usize;
                let bv = self.b.values[t];
                for s in self.a.row_range(k) {
                    let r = self.a.col_idx[s] as usize;
                    let av = self.a.values[s];
                    let cell = &mut c[col * self.n + r];
                    *cell = cell.wrapping_add(av.wrapping_mul(bv));
                }
            }
        }
        c
    }

    /// The thread counts SPMM runs on under `variant`.
    ///
    /// # Errors
    ///
    /// Names the rule `threads` breaks.
    pub fn check_threads(variant: Variant, threads: usize) -> Result<(), String> {
        let rule = match variant {
            Variant::SwDecoupled if !threads.is_multiple_of(2) => {
                "partial decoupling needs pairs (an even thread count)"
            }
            Variant::MapleLima if threads != 1 => "LIMA runs single-threaded",
            _ => return Ok(()),
        };
        Err(format!(
            "spmm {}: {rule}, not {threads} threads",
            variant.label()
        ))
    }

    /// Runs a variant and verifies the dense output.
    ///
    /// # Panics
    ///
    /// Panics on a thread count [`Spmm::check_threads`] rejects.
    #[must_use]
    pub fn run(&self, variant: Variant, threads: usize) -> RunStats {
        Self::check_threads(variant, threads).unwrap_or_else(|e| panic!("{e}"));
        let mut sys = System::new(config_for(variant, threads));
        let arrays = Arrays {
            acp: upload_u32(&mut sys, &self.a.row_ptr),
            ari: upload_u32(&mut sys, &self.a.col_idx),
            avv: upload_u32(&mut sys, &self.a.values),
            bcp: upload_u32(&mut sys, &self.b.row_ptr),
            bri: upload_u32(&mut sys, &self.b.col_idx),
            bvv: upload_u32(&mut sys, &self.b.values),
            cc: alloc_u32(&mut sys, self.n * self.m),
        };
        let expected = self.reference();

        match variant {
            Variant::Doall | Variant::Desc | Variant::MapleDecoupled => {
                // The slicing compiler cannot decouple a read-modify-write:
                // both DeSC and MAPLE fall back to do-all (Section 5.2).
                for (lo, hi) in partition(self.m, threads) {
                    let (p, binds) = self.doall_program(&arrays, lo, hi, None);
                    sys.load_program(p, &binds);
                }
            }
            Variant::Droplet => {
                sys.droplet_watch(
                    arrays.ari,
                    (self.a.nnz() * 4) as u64,
                    4,
                    arrays.cc,
                    4,
                );
                for (lo, hi) in partition(self.m, threads) {
                    let (p, binds) = self.doall_program(&arrays, lo, hi, None);
                    sys.load_program(p, &binds);
                }
            }
            Variant::SwPrefetch { dist } => {
                for (lo, hi) in partition(self.m, threads) {
                    let (p, binds) = self.doall_program(&arrays, lo, hi, Some(dist));
                    sys.load_program(p, &binds);
                }
            }
            Variant::SwDecoupled => self.load_sw_partial(&mut sys, &arrays, threads),
            Variant::MapleLima => self.load_lima(&mut sys, &arrays),
        }

        let outcome = sys.run(MAX_CYCLES);
        finish(&mut sys, outcome, arrays.cc, &expected)
    }

    /// The streaming walk shared by every Access-side program: iterates
    /// `(col, k, s)` and calls `per_update` with `(r_reg, prod_reg)` live.
    #[allow(clippy::too_many_arguments)]
    fn emit_walk(
        &self,
        b: &mut ProgramBuilder,
        regs: &WalkRegs,
        lo: usize,
        hi: usize,
        mut per_column_start: impl FnMut(&mut ProgramBuilder, &WalkRegs),
        mut per_update: impl FnMut(&mut ProgramBuilder, &WalkRegs),
        mut per_column_end: impl FnMut(&mut ProgramBuilder, &WalkRegs),
    ) {
        let n = self.n as u64;
        b.li(regs.col, lo as u64);
        let col_loop = b.here("col");
        let done = b.label("done");
        b.bge(regs.col, hi as i64, done);
        // slab = C + col*n*4
        b.mul(regs.slab, regs.col, (n * 4) as i64);
        b.add(regs.slab, regs.slab, regs.cc);
        per_column_start(b, regs);
        b.load_indexed(regs.t, regs.bcp, regs.col, 2, 4, regs.tmp);
        b.addi(regs.tmp, regs.col, 1);
        b.load_indexed(regs.tend, regs.bcp, regs.tmp, 2, 4, regs.tmp);
        let t_loop = b.here("t");
        let t_done = b.label("t_done");
        b.bge(regs.t, regs.tend, t_done);
        b.load_indexed(regs.k, regs.bri, regs.t, 2, 4, regs.tmp);
        b.load_indexed(regs.bv, regs.bvv, regs.t, 2, 4, regs.tmp);
        b.load_indexed(regs.s, regs.acp, regs.k, 2, 4, regs.tmp);
        b.addi(regs.tmp, regs.k, 1);
        b.load_indexed(regs.send, regs.acp, regs.tmp, 2, 4, regs.tmp);
        let s_loop = b.here("s");
        let s_done = b.label("s_done");
        b.bge(regs.s, regs.send, s_done);
        b.load_indexed(regs.r, regs.ari, regs.s, 2, 4, regs.tmp);
        b.load_indexed(regs.av, regs.avv, regs.s, 2, 4, regs.tmp);
        b.mul(regs.prod, regs.av, regs.bv);
        per_update(b, regs);
        b.addi(regs.s, regs.s, 1);
        b.jump(s_loop);
        b.bind(s_done);
        b.addi(regs.t, regs.t, 1);
        b.jump(t_loop);
        b.bind(t_done);
        per_column_end(b, regs);
        b.addi(regs.col, regs.col, 1);
        b.jump(col_loop);
        b.bind(done);
        b.halt();
    }

    fn doall_program(
        &self,
        arrays: &Arrays,
        lo: usize,
        hi: usize,
        prefetch: Option<u32>,
    ) -> (maple_isa::Program, Vec<(Reg, u64)>) {
        let mut b = ProgramBuilder::new();
        let regs = WalkRegs::allocate(&mut b);
        let old = b.reg("old");
        let extra = prefetch.map(|_| (b.reg("sd"), b.reg("r2"), b.reg("ptmp")));
        let a_nnz = self.a.nnz() as i64;
        self.emit_walk(
            &mut b,
            &regs,
            lo,
            hi,
            |_, _| {},
            |b, regs| {
                // RMW: slab[r] += prod.
                b.index_addr(regs.tmp, regs.slab, regs.r, 2);
                b.ld(old, regs.tmp, 0, 4);
                b.add(old, old, regs.prod);
                b.st(old, regs.tmp, 0, 4);
                if let Some((sd, r2, ptmp)) = extra {
                    let dist = prefetch.expect("extra implies prefetch");
                    // Prefetch the accumulator line for a future row index.
                    b.addi(sd, regs.s, i64::from(dist));
                    b.alu(maple_isa::AluOp::MinU, sd, sd, a_nnz - 1);
                    b.load_indexed(r2, regs.ari, sd, 2, 4, ptmp);
                    b.index_addr(ptmp, regs.slab, r2, 2);
                    b.prefetch(ptmp, 0);
                }
            },
            |_, _| {},
        );
        (b.build().expect("spmm doall builds"), regs.bindings(arrays))
    }

    /// Runs the *forced* MAPLE partial decoupling (what a programmer could
    /// hand-write against the API despite the compiler's fallback): the
    /// Access thread streams and produces packed `(prod, r)` updates; the
    /// Execute thread wide-consumes and performs the RMW. Exists to
    /// demonstrate *why* the compiler falls back — the latency-bound RMW
    /// stays on the Execute side.
    #[must_use]
    pub fn run_forced_partial_decoupling(&self, threads: usize) -> RunStats {
        let mut sys = System::new(config_for(Variant::MapleDecoupled, threads));
        let arrays = Arrays {
            acp: upload_u32(&mut sys, &self.a.row_ptr),
            ari: upload_u32(&mut sys, &self.a.col_idx),
            avv: upload_u32(&mut sys, &self.a.values),
            bcp: upload_u32(&mut sys, &self.b.row_ptr),
            bri: upload_u32(&mut sys, &self.b.col_idx),
            bvv: upload_u32(&mut sys, &self.b.values),
            cc: alloc_u32(&mut sys, self.n * self.m),
        };
        let expected = self.reference();
        self.load_maple_partial(&mut sys, &arrays, threads);
        let outcome = sys.run(MAX_CYCLES);
        finish(&mut sys, outcome, arrays.cc, &expected)
    }

    fn load_maple_partial(&self, sys: &mut System, arrays: &Arrays, threads: usize) {
        assert!(threads.is_multiple_of(2));
        let maple_va = sys.map_maple(0);
        for (pair, (lo, hi)) in partition(self.m, threads / 2).into_iter().enumerate() {
            let q = pair as u8;

            // Access.
            let mut b = ProgramBuilder::new();
            let regs = WalkRegs::allocate(&mut b);
            let mbase = b.reg("maple");
            let api = MapleApi::new(mbase);
            let sent = b.reg("sent");
            b.li(sent, u64::from(COL_SENTINEL));
            self.emit_walk(
                &mut b,
                &regs,
                lo,
                hi,
                |_, _| {},
                |b, regs| {
                    // Two 4-byte produces: r then prod.
                    api.produce(b, q, regs.r);
                    api.produce(b, q, regs.prod);
                },
                |b, _| {
                    api.produce(b, q, sent);
                    api.produce(b, q, sent);
                },
            );
            let mut binds = regs.bindings(arrays);
            binds.push((mbase, maple_va.0));
            sys.load_program(b.build().expect("spmm maple access"), &binds);

            // Execute: wide consume pops (prod<<32)|r.
            let mut b = ProgramBuilder::new();
            let cc = b.reg("cc");
            let mbase = b.reg("maple");
            let api = MapleApi::new(mbase);
            let col = b.reg("col");
            let slab = b.reg("slab");
            let pair_reg = b.reg("pair");
            let r = b.reg("r");
            let prod = b.reg("prod");
            let old = b.reg("old");
            let tmp = b.reg("tmp");
            let mask = b.reg("mask");
            b.li(mask, 0xffff_ffff);
            b.li(col, lo as u64);
            let col_loop = b.here("col");
            let done = b.label("done");
            b.bge(col, hi as i64, done);
            b.mul(slab, col, (self.n * 4) as i64);
            b.add(slab, slab, cc);
            let upd = b.here("upd");
            let col_end = b.label("col_end");
            api.consume(&mut b, q, pair_reg, 8);
            b.alu(maple_isa::AluOp::And, r, pair_reg, maple_isa::Operand::Reg(mask));
            b.beq(r, u64::from(COL_SENTINEL) as i64, col_end);
            b.alu(maple_isa::AluOp::Srl, prod, pair_reg, 32);
            b.index_addr(tmp, slab, r, 2);
            b.ld(old, tmp, 0, 4);
            b.add(old, old, prod);
            b.st(old, tmp, 0, 4);
            b.jump(upd);
            b.bind(col_end);
            b.addi(col, col, 1);
            b.jump(col_loop);
            b.bind(done);
            b.halt();
            sys.load_program(
                b.build().expect("spmm maple execute"),
                &[(cc, arrays.cc.0), (mbase, maple_va.0)],
            );
        }
    }

    /// Software partial decoupling through a shared-memory ring.
    fn load_sw_partial(&self, sys: &mut System, arrays: &Arrays, threads: usize) {
        let layout = SwQueueLayout::new(64);
        for (lo, hi) in partition(self.m, threads / 2) {
            let qva = sys.alloc(layout.bytes());

            // Access: packs (prod << 32) | r into one u64.
            let mut b = ProgramBuilder::new();
            let regs = WalkRegs::allocate(&mut b);
            let qbase = b.reg("qbase");
            let prodq = SwProducer::new(&mut b, qbase, layout.capacity);
            let packed = b.reg("packed");
            let sent = b.reg("sent");
            b.li(sent, u64::from(COL_SENTINEL));
            self.emit_walk(
                &mut b,
                &regs,
                lo,
                hi,
                |_, _| {},
                |b, regs| {
                    b.slli(packed, regs.prod, 32);
                    b.add(packed, packed, regs.r);
                    prodq.emit_produce(b, packed);
                },
                |b, _| {
                    prodq.emit_produce(b, sent);
                },
            );
            let mut binds = regs.bindings(arrays);
            binds.push((qbase, qva.0));
            sys.load_program(b.build().expect("spmm sw access"), &binds);

            // Execute.
            let mut b = ProgramBuilder::new();
            let cc = b.reg("cc");
            let qbase = b.reg("qbase");
            let cons = SwConsumer::new(&mut b, qbase, layout.capacity);
            let col = b.reg("col");
            let slab = b.reg("slab");
            let packed = b.reg("packed");
            let r = b.reg("r");
            let prod = b.reg("prod");
            let old = b.reg("old");
            let tmp = b.reg("tmp");
            let mask = b.reg("mask");
            b.li(mask, 0xffff_ffff);
            b.li(col, lo as u64);
            let col_loop = b.here("col");
            let done = b.label("done");
            b.bge(col, hi as i64, done);
            b.mul(slab, col, (self.n * 4) as i64);
            b.add(slab, slab, cc);
            let upd = b.here("upd");
            let col_end = b.label("col_end");
            cons.emit_consume(&mut b, packed);
            b.alu(maple_isa::AluOp::And, r, packed, maple_isa::Operand::Reg(mask));
            b.beq(r, u64::from(COL_SENTINEL) as i64, col_end);
            b.alu(maple_isa::AluOp::Srl, prod, packed, 32);
            b.index_addr(tmp, slab, r, 2);
            b.ld(old, tmp, 0, 4);
            b.add(old, old, prod);
            b.st(old, tmp, 0, 4);
            b.jump(upd);
            b.bind(col_end);
            b.addi(col, col, 1);
            b.jump(col_loop);
            b.bind(done);
            b.halt();
            sys.load_program(
                b.build().expect("spmm sw execute"),
                &[(cc, arrays.cc.0), (qbase, qva.0)],
            );
        }
    }

    /// Speculative LIMA: prefetch the next A-column segment's accumulator
    /// lines into the LLC while the current segment's RMWs execute.
    fn load_lima(&self, sys: &mut System, arrays: &Arrays) {
        let maple_va = sys.map_maple(0);
        let (lo, hi) = (0usize, self.m);

        // Custom walk with one-segment LIMA runahead.
        let mut b = ProgramBuilder::new();
        let regs = WalkRegs::allocate(&mut b);
        let mbase = b.reg("maple");
        let api2 = MapleApi::new(mbase);
        let old = b.reg("old");
        let t2 = b.reg("t2");
        let k2 = b.reg("k2");
        let s2 = b.reg("s2");
        let s2e = b.reg("s2e");
        let ltmp = b.reg("ltmp");
        let ltmp2 = b.reg("ltmp2");
        b.li(regs.col, lo as u64);
        let col_loop = b.here("col");
        let done = b.label("done");
        b.bge(regs.col, hi as i64, done);
        b.mul(regs.slab, regs.col, (self.n * 4) as i64);
        b.add(regs.slab, regs.slab, regs.cc);
        b.load_indexed(regs.t, regs.bcp, regs.col, 2, 4, regs.tmp);
        b.addi(regs.tmp, regs.col, 1);
        b.load_indexed(regs.tend, regs.bcp, regs.tmp, 2, 4, regs.tmp);
        let t_loop = b.here("t");
        let t_done = b.label("t_done");
        b.bge(regs.t, regs.tend, t_done);
        // LIMA runahead: prefetch segment t+1's accumulator lines.
        let no_next = b.label("no_next");
        b.addi(t2, regs.t, 1);
        b.bge(t2, regs.tend, no_next);
        b.load_indexed(k2, regs.bri, t2, 2, 4, ltmp);
        b.load_indexed(s2, regs.acp, k2, 2, 4, ltmp);
        b.addi(ltmp, k2, 1);
        b.load_indexed(s2e, regs.acp, ltmp, 2, 4, ltmp);
        api2.lima(&mut b, 0, regs.slab, regs.ari, s2, s2e, true, 4, 4, ltmp, ltmp2);
        b.bind(no_next);
        b.load_indexed(regs.k, regs.bri, regs.t, 2, 4, regs.tmp);
        b.load_indexed(regs.bv, regs.bvv, regs.t, 2, 4, regs.tmp);
        b.load_indexed(regs.s, regs.acp, regs.k, 2, 4, regs.tmp);
        b.addi(regs.tmp, regs.k, 1);
        b.load_indexed(regs.send, regs.acp, regs.tmp, 2, 4, regs.tmp);
        let s_loop = b.here("s");
        let s_done = b.label("s_done");
        b.bge(regs.s, regs.send, s_done);
        b.load_indexed(regs.r, regs.ari, regs.s, 2, 4, regs.tmp);
        b.load_indexed(regs.av, regs.avv, regs.s, 2, 4, regs.tmp);
        b.mul(regs.prod, regs.av, regs.bv);
        b.index_addr(regs.tmp, regs.slab, regs.r, 2);
        b.ld(old, regs.tmp, 0, 4);
        b.add(old, old, regs.prod);
        b.st(old, regs.tmp, 0, 4);
        b.addi(regs.s, regs.s, 1);
        b.jump(s_loop);
        b.bind(s_done);
        b.addi(regs.t, regs.t, 1);
        b.jump(t_loop);
        b.bind(t_done);
        b.addi(regs.col, regs.col, 1);
        b.jump(col_loop);
        b.bind(done);
        b.halt();
        let mut binds = regs.bindings(arrays);
        binds.push((mbase, maple_va.0));
        sys.load_program(b.build().expect("spmm lima"), &binds);
    }
}

struct Arrays {
    acp: VAddr,
    ari: VAddr,
    avv: VAddr,
    bcp: VAddr,
    bri: VAddr,
    bvv: VAddr,
    cc: VAddr,
}

struct WalkRegs {
    acp: Reg,
    ari: Reg,
    avv: Reg,
    bcp: Reg,
    bri: Reg,
    bvv: Reg,
    cc: Reg,
    col: Reg,
    slab: Reg,
    t: Reg,
    tend: Reg,
    k: Reg,
    bv: Reg,
    s: Reg,
    send: Reg,
    r: Reg,
    av: Reg,
    prod: Reg,
    tmp: Reg,
}

impl WalkRegs {
    fn allocate(b: &mut ProgramBuilder) -> Self {
        WalkRegs {
            acp: b.reg("acp"),
            ari: b.reg("ari"),
            avv: b.reg("avv"),
            bcp: b.reg("bcp"),
            bri: b.reg("bri"),
            bvv: b.reg("bvv"),
            cc: b.reg("cc"),
            col: b.reg("col"),
            slab: b.reg("slab"),
            t: b.reg("t"),
            tend: b.reg("tend"),
            k: b.reg("k"),
            bv: b.reg("bv"),
            s: b.reg("s"),
            send: b.reg("send"),
            r: b.reg("r"),
            av: b.reg("av"),
            prod: b.reg("prod"),
            tmp: b.reg("tmp"),
        }
    }

    fn bindings(&self, a: &Arrays) -> Vec<(Reg, u64)> {
        vec![
            (self.acp, a.acp.0),
            (self.ari, a.ari.0),
            (self.avv, a.avv.0),
            (self.bcp, a.bcp.0),
            (self.bri, a.bri.0),
            (self.bvv, a.bvv.0),
            (self.cc, a.cc.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Spmm {
        Spmm::synthetic(128, 4, 6, 13)
    }

    #[test]
    fn doall_verifies() {
        assert!(small().run(Variant::Doall, 1).verified);
        assert!(small().run(Variant::Doall, 2).verified);
    }

    #[test]
    fn partial_decoupling_verifies() {
        assert!(small().run_forced_partial_decoupling(2).verified);
        assert!(small().run(Variant::SwDecoupled, 2).verified);
    }

    #[test]
    fn desc_and_maple_fall_back_to_doall() {
        let inst = small();
        let doall = inst.run(Variant::Doall, 2);
        for v in [Variant::Desc, Variant::MapleDecoupled] {
            let s = inst.run(v, 2);
            assert!(s.verified);
            assert_eq!(s.cycles, doall.cycles, "fallback is exactly do-all");
        }
    }

    #[test]
    fn forced_partial_decoupling_shows_why_the_compiler_falls_back() {
        let inst = small();
        let doall = inst.run(Variant::Doall, 2);
        let forced = inst.run_forced_partial_decoupling(2);
        assert!(forced.verified);
        // The RMW stays latency-bound on the Execute thread: no big win.
        assert!(
            (forced.cycles as f64) > 0.7 * doall.cycles as f64,
            "partial decoupling must not hide the RMW: {} vs {}",
            forced.cycles,
            doall.cycles
        );
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
}
