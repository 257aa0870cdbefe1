//! Sparse–Dense Hadamard Product (SDHP).
//!
//! Element-wise product of a sparse matrix and a dense matrix: for each
//! stored element `k` at `(r, c)`, `out[k] = values[k] * D[r*ncols + c]`.
//! The host linearizes the dense-index array `lin[k] = r*ncols + c`, so
//! the kernel is exactly the paper's running example
//! `res[i] = A[B[i]] * C[i]` — and the decoupled variants are produced by
//! the automatic slicing compiler of
//! [`maple_soc::compiler`] (Section 3.3), not by hand.

use maple_baselines::swdec::{SwConsumer, SwProducer, SwQueueLayout};
use maple_isa::builder::ProgramBuilder;
use maple_soc::compiler;
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_soc::SocConfig;
use maple_vm::VAddr;

use crate::data::{dense_vector, Csr, Dataset};
use crate::harness::{
    alloc_u32, check_maple_queues, config_for, finish, partition, upload_u32, RunStats, Variant,
    MAX_CYCLES,
};

/// An SDHP problem instance (already linearized).
#[derive(Debug, Clone)]
pub struct Sdhp {
    /// Dense matrix, flattened (`A`).
    pub dense: Vec<u32>,
    /// Linearized dense indices per stored element (`B`).
    pub lin: Vec<u32>,
    /// Sparse values (`C`).
    pub values: Vec<u32>,
}

impl Sdhp {
    /// Builds an instance from a sparse dataset; the dense matrix gets
    /// random contents.
    #[must_use]
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let s = dataset.generate(seed);
        Self::from_sparse(&s, seed)
    }

    /// Builds from an explicit sparse matrix.
    #[must_use]
    pub fn from_sparse(s: &Csr, seed: u64) -> Self {
        let dense = dense_vector(s.nrows * s.ncols.min(2048), seed ^ 0xD);
        let ncols = s.ncols.min(2048);
        let mut lin = Vec::with_capacity(s.nnz());
        for r in 0..s.nrows {
            for j in s.row_range(r) {
                let c = (s.col_idx[j] as usize) % ncols;
                lin.push((r * ncols + c) as u32 % dense.len() as u32);
            }
        }
        Sdhp {
            dense,
            lin,
            values: s.values.clone(),
        }
    }

    /// Element count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.lin.len()
    }

    /// Host reference.
    #[must_use]
    pub fn reference(&self) -> Vec<u32> {
        self.lin
            .iter()
            .zip(&self.values)
            .map(|(&b, &c)| self.dense[b as usize].wrapping_mul(c))
            .collect()
    }

    /// The thread counts SDHP runs on under `variant`; MAPLE-decoupled
    /// pairs must fit the queues of [`config_for`]`(variant, threads)`.
    ///
    /// # Errors
    ///
    /// Names the rule `threads` breaks.
    pub fn check_threads(variant: Variant, threads: usize) -> Result<(), String> {
        Self::check_threads_on(&config_for(variant, threads), variant, threads)
    }

    /// [`Sdhp::check_threads`] against a tuned configuration: every pair
    /// takes one queue of MAPLE instance 0.
    fn check_threads_on(cfg: &SocConfig, variant: Variant, threads: usize) -> Result<(), String> {
        let rule = match variant {
            Variant::MapleDecoupled | Variant::SwDecoupled if !threads.is_multiple_of(2) => {
                "decoupling needs pairs (an even thread count)"
            }
            Variant::Desc if threads != 2 => "DeSC runs one Supply/Compute pair",
            Variant::SwPrefetch { .. } | Variant::MapleLima if threads != 1 => {
                "the prefetch study runs single-threaded"
            }
            Variant::MapleDecoupled => {
                let have = cfg.maple.queues;
                return check_maple_queues("sdhp", variant, threads, threads / 2, have);
            }
            _ => return Ok(()),
        };
        Err(format!(
            "sdhp {}: {rule}, not {threads} threads",
            variant.label()
        ))
    }

    /// Runs a variant and verifies against the reference.
    ///
    /// # Panics
    ///
    /// Panics on a thread count [`Sdhp::check_threads`] rejects.
    #[must_use]
    pub fn run(&self, variant: Variant, threads: usize) -> RunStats {
        self.run_tuned(variant, threads, |c| c)
    }

    /// Like [`Sdhp::run`] with a configuration hook for sweeps.
    #[must_use]
    pub fn run_tuned(
        &self,
        variant: Variant,
        threads: usize,
        tune: impl FnOnce(maple_soc::SocConfig) -> maple_soc::SocConfig,
    ) -> RunStats {
        let cfg = tune(config_for(variant, threads));
        Self::check_threads_on(&cfg, variant, threads).unwrap_or_else(|e| panic!("{e}"));
        let mut sys = System::new(cfg);
        let a = upload_u32(&mut sys, &self.dense);
        let bb = upload_u32(&mut sys, &self.lin);
        let c = upload_u32(&mut sys, &self.values);
        let res = alloc_u32(&mut sys, self.n());
        let expected = self.reference();

        match variant {
            Variant::Doall | Variant::Droplet => {
                if matches!(variant, Variant::Droplet) {
                    sys.droplet_watch(bb, (self.n() * 4) as u64, 4, a, 4);
                }
                for (lo, hi) in partition(self.n(), threads) {
                    let (prog, args) = compiler::gen_doall();
                    sys.load_program(
                        prog,
                        &[
                            (args.a, a.0),
                            (args.b, bb.0 + lo as u64 * 4),
                            (args.c, c.0 + lo as u64 * 4),
                            (args.res, res.0 + lo as u64 * 4),
                            (args.n, (hi - lo) as u64),
                        ],
                    );
                }
            }
            Variant::MapleDecoupled => {
                let maple_va = sys.map_maple(0);
                for (pair, (lo, hi)) in partition(self.n(), threads / 2).into_iter().enumerate() {
                    let p = compiler::gen_maple_pair(pair as u8);
                    sys.load_program(
                        p.access,
                        &[
                            (p.access_args.a, a.0),
                            (p.access_args.b, bb.0 + lo as u64 * 4),
                            (p.access_args.n, (hi - lo) as u64),
                            (p.access_maple, maple_va.0),
                        ],
                    );
                    sys.load_program(
                        p.execute,
                        &[
                            (p.execute_args.c, c.0 + lo as u64 * 4),
                            (p.execute_args.res, res.0 + lo as u64 * 4),
                            (p.execute_args.n, (hi - lo) as u64),
                            (p.execute_maple, maple_va.0),
                        ],
                    );
                }
            }
            Variant::Desc => {
                let p = compiler::gen_desc_pair();
                let supply = sys.load_program(
                    p.access,
                    &[
                        (p.access_args.a, a.0),
                        (p.access_args.b, bb.0),
                        (p.access_args.c, c.0),
                        (p.access_args.res, res.0),
                        (p.access_args.n, self.n() as u64),
                    ],
                );
                let compute = sys.load_program(p.execute, &[(p.execute_args.n, self.n() as u64)]);
                sys.pair_desc(supply, compute, 3);
            }
            Variant::SwDecoupled => self.load_swdec(&mut sys, a, bb, c, res, threads),
            Variant::SwPrefetch { dist } => self.load_swpref(&mut sys, a, bb, c, res, dist),
            Variant::MapleLima => self.load_lima(&mut sys, a, bb, c, res),
        }

        let outcome = sys.run(MAX_CYCLES);
        finish(&mut sys, outcome, res, &expected)
    }

    fn load_swdec(
        &self,
        sys: &mut System,
        a: VAddr,
        bb: VAddr,
        c: VAddr,
        res: VAddr,
        threads: usize,
    ) {
        let layout = SwQueueLayout::new(64);
        for (lo, hi) in partition(self.n(), threads / 2) {
            let qva = sys.alloc(layout.bytes());
            let n = (hi - lo) as u64;

            // Access: loads A[B[i]] (blocking) and pushes the value.
            let mut b = ProgramBuilder::new();
            let ra = b.reg("a");
            let rb = b.reg("b");
            let qbase = b.reg("q");
            let prod = SwProducer::new(&mut b, qbase, layout.capacity);
            let i = b.reg("i");
            let idx = b.reg("idx");
            let xv = b.reg("xv");
            let tmp = b.reg("tmp");
            b.li(i, 0);
            let top = b.here("top");
            let done = b.label("done");
            b.bge(i, n as i64, done);
            b.load_indexed(idx, rb, i, 2, 4, tmp);
            b.load_indexed(xv, ra, idx, 2, 4, tmp);
            prod.emit_produce(&mut b, xv);
            b.addi(i, i, 1);
            b.jump(top);
            b.bind(done);
            b.halt();
            sys.load_program(
                b.build().expect("sdhp sw access"),
                &[(ra, a.0), (rb, bb.0 + lo as u64 * 4), (qbase, qva.0)],
            );

            // Execute: pops, multiplies with C, stores.
            let mut b = ProgramBuilder::new();
            let rc = b.reg("c");
            let rr = b.reg("res");
            let qbase = b.reg("q");
            let cons = SwConsumer::new(&mut b, qbase, layout.capacity);
            let i = b.reg("i");
            let xv = b.reg("xv");
            let cv = b.reg("cv");
            let tmp = b.reg("tmp");
            b.li(i, 0);
            let top = b.here("top");
            let done = b.label("done");
            b.bge(i, n as i64, done);
            cons.emit_consume(&mut b, xv);
            b.load_indexed(cv, rc, i, 2, 4, tmp);
            b.mul(xv, xv, cv);
            b.store_indexed(xv, rr, i, 2, 4, tmp);
            b.addi(i, i, 1);
            b.jump(top);
            b.bind(done);
            b.halt();
            sys.load_program(
                b.build().expect("sdhp sw execute"),
                &[
                    (rc, c.0 + lo as u64 * 4),
                    (rr, res.0 + lo as u64 * 4),
                    (qbase, qva.0),
                ],
            );
        }
    }

    fn load_swpref(&self, sys: &mut System, a: VAddr, bb: VAddr, c: VAddr, res: VAddr, dist: u32) {
        let n = self.n() as u64;
        let mut b = ProgramBuilder::new();
        let ra = b.reg("a");
        let rb = b.reg("b");
        let rc = b.reg("c");
        let rr = b.reg("res");
        let i = b.reg("i");
        let idx = b.reg("idx");
        let xv = b.reg("xv");
        let cv = b.reg("cv");
        let jd = b.reg("jd");
        let idx2 = b.reg("idx2");
        let tmp = b.reg("tmp");
        b.li(i, 0);
        let top = b.here("top");
        let done = b.label("done");
        b.bge(i, n as i64, done);
        b.load_indexed(idx, rb, i, 2, 4, tmp);
        b.load_indexed(xv, ra, idx, 2, 4, tmp);
        b.load_indexed(cv, rc, i, 2, 4, tmp);
        b.mul(xv, xv, cv);
        b.store_indexed(xv, rr, i, 2, 4, tmp);
        // Prefetch A[B[i+dist]] (re-loads B: the code-bloat overhead).
        b.addi(jd, i, i64::from(dist));
        b.alu(maple_isa::AluOp::MinU, jd, jd, (n as i64) - 1);
        b.load_indexed(idx2, rb, jd, 2, 4, tmp);
        b.index_addr(tmp, ra, idx2, 2);
        b.prefetch(tmp, 0);
        b.addi(i, i, 1);
        b.jump(top);
        b.bind(done);
        b.halt();
        sys.load_program(
            b.build().expect("sdhp sw prefetch"),
            &[(ra, a.0), (rb, bb.0), (rc, c.0), (rr, res.0)],
        );
    }

    fn load_lima(&self, sys: &mut System, a: VAddr, bb: VAddr, c: VAddr, res: VAddr) {
        let maple_va = sys.map_maple(0);
        let n = self.n() as u64;
        const CHUNK: u64 = 64;

        let mut b = ProgramBuilder::new();
        let ra = b.reg("a");
        let rb = b.reg("b");
        let rc = b.reg("c");
        let rr = b.reg("res");
        let mbase = b.reg("maple");
        let api = MapleApi::new(mbase);
        let i = b.reg("i");
        let chunk_end = b.reg("chunk_end");
        let next_lo = b.reg("next_lo");
        let next_hi = b.reg("next_hi");
        let xv = b.reg("xv");
        let cv = b.reg("cv");
        let tmp = b.reg("tmp");
        let tmp2 = b.reg("tmp2");

        // Prologue: LIMA for chunk 0.
        b.li(i, 0);
        b.li(next_lo, 0);
        b.li(next_hi, CHUNK.min(n));
        api.lima(&mut b, 0, ra, rb, next_lo, next_hi, false, 4, 4, tmp, tmp2);
        let chunk_top = b.here("chunk");
        let done = b.label("done");
        b.bge(i, n as i64, done);
        // chunk_end = min(i + CHUNK, n); issue LIMA for the next chunk.
        b.addi(chunk_end, i, CHUNK as i64);
        b.alu(maple_isa::AluOp::MinU, chunk_end, chunk_end, n as i64);
        let no_next = b.label("no_next");
        b.bge(chunk_end, n as i64, no_next);
        b.mv(next_lo, chunk_end);
        b.addi(next_hi, chunk_end, CHUNK as i64);
        b.alu(maple_isa::AluOp::MinU, next_hi, next_hi, n as i64);
        api.lima(&mut b, 0, ra, rb, next_lo, next_hi, false, 4, 4, tmp, tmp2);
        b.bind(no_next);
        // Consume the current chunk.
        let inner = b.here("inner");
        let endchunk = b.label("endchunk");
        b.bge(i, chunk_end, endchunk);
        api.consume(&mut b, 0, xv, 4);
        b.load_indexed(cv, rc, i, 2, 4, tmp);
        b.mul(xv, xv, cv);
        b.store_indexed(xv, rr, i, 2, 4, tmp);
        b.addi(i, i, 1);
        b.jump(inner);
        b.bind(endchunk);
        b.jump(chunk_top);
        b.bind(done);
        b.halt();
        sys.load_program(
            b.build().expect("sdhp lima"),
            &[
                (ra, a.0),
                (rb, bb.0),
                (rc, c.0),
                (rr, res.0),
                (mbase, maple_va.0),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::uniform_sparse;

    fn small() -> Sdhp {
        Sdhp::from_sparse(&uniform_sparse(32, 512, 8, 21), 5)
    }

    #[test]
    fn all_variants_verify() {
        let inst = small();
        for (variant, threads) in [
            (Variant::Doall, 1),
            (Variant::Doall, 2),
            (Variant::SwDecoupled, 2),
            (Variant::MapleDecoupled, 2),
            (Variant::Desc, 2),
            (Variant::SwPrefetch { dist: 16 }, 1),
            (Variant::MapleLima, 1),
            (Variant::Droplet, 2),
        ] {
            let s = inst.run(variant, threads);
            assert!(
                s.verified,
                "{} with {threads} threads failed verification",
                variant.label()
            );
        }
    }

    #[test]
    fn maple_decoupling_beats_software_decoupling() {
        let inst = small();
        let sw = inst.run(Variant::SwDecoupled, 2);
        let hw = inst.run(Variant::MapleDecoupled, 2);
        assert!(
            hw.cycles < sw.cycles,
            "MAPLE {} should beat software {}",
            hw.cycles,
            sw.cycles
        );
    }
}
