//! Short request kernels for multi-tenant serving.
//!
//! A serving request is a small slice of work against a tenant's resident
//! dataset: an SPMV row slice (`y[r] = Σ values[j] * x[col_idx[j]]` over a
//! row range) or a BFS-style neighbor-gather query (`out[u] = Σ (x[c] ^ c)`
//! over `u`'s neighbors `c` — a one-hop frontier-expansion aggregate).
//! Both center on the same cache-averse indirect gather `x[col_idx[j]]`
//! the full kernels exercise, so every ladder rung applies: MAPLE
//! decoupling, software decoupling through shared-memory rings, and plain
//! do-all.
//!
//! The builders here are pure: they turn a query plus device addresses
//! into a [`Program`] and its register bindings without touching the
//! [`System`], so the serving scheduler can build programs for any core,
//! engine, or queue assignment at dispatch time.
//!
//! They are also SPMV's only program builders: a full-kernel run
//! ([`crate::spmv::Spmv::run`]) builds its do-all, DROPLET,
//! software-prefetch, software-decoupled and MAPLE-decoupled programs as
//! [`QueryKind::SpmvSlice`] queries over its row partition, so serving
//! and the figures run the same instruction streams.

use maple_baselines::swdec::{SwConsumer, SwProducer, SwQueueLayout};
use maple_isa::builder::ProgramBuilder;
use maple_isa::{Program, Reg};
use maple_soc::runtime::MapleApi;
use maple_soc::system::System;
use maple_vm::VAddr;

use crate::data::Csr;
use crate::harness::upload_u32;

/// What a serving request computes over its row range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// SPMV row slice: `out[r-lo] = Σ_j values[j] * x[col_idx[j]]`.
    SpmvSlice,
    /// Neighbor-gather query: `out[u-lo] = Σ_c (x[c] ^ c)` over the
    /// neighbors `c` of vertex `u` — the per-vertex aggregate of a BFS
    /// frontier expansion reading a vertex-label array `x`.
    NeighborSum,
}

impl QueryKind {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::SpmvSlice => "spmv-slice",
            QueryKind::NeighborSum => "neighbor-sum",
        }
    }
}

/// One serving request: a query kind over rows `lo..hi` of the tenant's
/// CSR dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceQuery {
    /// What to compute.
    pub kind: QueryKind,
    /// First row (inclusive).
    pub lo: usize,
    /// Last row (exclusive).
    pub hi: usize,
}

impl SliceQuery {
    /// Number of output words the query produces.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.hi - self.lo
    }

    /// Host reference result (wrapping arithmetic, bit-comparable with
    /// the simulated output).
    #[must_use]
    pub fn reference(&self, a: &Csr, x: &[u32]) -> Vec<u32> {
        (self.lo..self.hi)
            .map(|r| {
                a.row_range(r).fold(0u32, |acc, j| {
                    let c = a.col_idx[j];
                    let xv = x[c as usize];
                    let term = match self.kind {
                        QueryKind::SpmvSlice => a.values[j].wrapping_mul(xv),
                        QueryKind::NeighborSum => xv ^ c,
                    };
                    acc.wrapping_add(term)
                })
            })
            .collect()
    }
}

/// Device-side addresses of one tenant's resident dataset.
#[derive(Debug, Clone, Copy)]
pub struct TenantArrays {
    /// CSR row pointers.
    pub rp: VAddr,
    /// CSR column indices.
    pub ci: VAddr,
    /// CSR values (SPMV slices only; neighbor sums ignore it).
    pub vv: VAddr,
    /// The dense vector / vertex-label array the gather reads.
    pub xx: VAddr,
}

/// Uploads a tenant's dataset into device memory once; every request
/// against this tenant then references the resident arrays.
pub fn upload_tenant(sys: &mut System, a: &Csr, x: &[u32]) -> TenantArrays {
    TenantArrays {
        rp: upload_u32(sys, &a.row_ptr),
        ci: upload_u32(sys, &a.col_idx),
        vv: upload_u32(sys, &a.values),
        xx: upload_u32(sys, x),
    }
}

/// The register set every SPMV-family program binds: the tenant arrays
/// plus an output base.
pub(crate) struct SliceRegs {
    pub(crate) rp: Reg,
    pub(crate) ci: Reg,
    pub(crate) vv: Reg,
    pub(crate) xx: Reg,
    pub(crate) out: Reg,
}

impl SliceRegs {
    pub(crate) fn allocate(b: &mut ProgramBuilder) -> Self {
        SliceRegs {
            rp: b.reg("rp"),
            ci: b.reg("ci"),
            vv: b.reg("vv"),
            xx: b.reg("xx"),
            out: b.reg("out"),
        }
    }

    /// The bindings with the `out` register holding `out`.
    pub(crate) fn bindings(&self, t: &TenantArrays, out: u64) -> Vec<(Reg, u64)> {
        vec![
            (self.rp, t.rp.0),
            (self.ci, t.ci.0),
            (self.vv, t.vv.0),
            (self.xx, t.xx.0),
            (self.out, out),
        ]
    }

    /// The bindings of a program that stores row `r` at `out[r]`: the
    /// `out` register holds `out - 4·lo` (ISA adds wrap), so the query's
    /// first row lands on `out`, its first output word.
    fn row_bindings(&self, t: &TenantArrays, q: &SliceQuery, out: VAddr) -> Vec<(Reg, u64)> {
        self.bindings(t, out.0.wrapping_sub(q.lo as u64 * 4))
    }
}

/// Single-core do-all shape: the whole query on one core, blocking
/// gathers. The bottom rung of the ladder — no engine, no partner core.
///
/// `prefetch` is `Some((dist, last))` for software prefetching: each
/// nonzero `j` also prefetches `&x[col_idx[min(j + dist, last)]]`.
#[must_use]
pub fn doall_query(
    q: &SliceQuery,
    arrays: &TenantArrays,
    out: VAddr,
    prefetch: Option<(u32, usize)>,
) -> (Program, Vec<(Reg, u64)>) {
    let mut b = ProgramBuilder::new();
    let regs = SliceRegs::allocate(&mut b);
    let r = b.reg("r");
    let j = b.reg("j");
    let jend = b.reg("jend");
    let c = b.reg("c");
    let v = b.reg("v");
    let xv = b.reg("xv");
    let acc = b.reg("acc");
    let tmp = b.reg("tmp");
    b.li(r, q.lo as u64);
    let row = b.here("row");
    let done = b.label("done");
    b.bge(r, q.hi as i64, done);
    b.load_indexed(j, regs.rp, r, 2, 4, tmp);
    b.addi(tmp, r, 1);
    b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
    b.li(acc, 0);
    let inner = b.here("inner");
    let endrow = b.label("endrow");
    b.bge(j, jend, endrow);
    b.load_indexed(c, regs.ci, j, 2, 4, tmp);
    match q.kind {
        QueryKind::SpmvSlice => {
            b.load_indexed(v, regs.vv, j, 2, 4, tmp);
            b.load_indexed(xv, regs.xx, c, 2, 4, tmp);
            b.mul(v, v, xv);
        }
        QueryKind::NeighborSum => {
            b.load_indexed(xv, regs.xx, c, 2, 4, tmp);
            b.alu(maple_isa::AluOp::Xor, v, xv, maple_isa::Operand::Reg(c));
        }
    }
    b.add(acc, acc, v);
    if let Some((dist, last)) = prefetch {
        // jd = min(j + dist, last); prefetch &x[ci[jd]]. The re-load of
        // ci[jd] and the address arithmetic are the instruction overhead
        // Figure 10 charges to software prefetching.
        let jd = b.reg("jd");
        let c2 = b.reg("c2");
        b.addi(jd, j, i64::from(dist));
        b.alu(
            maple_isa::AluOp::MinU,
            jd,
            jd,
            maple_isa::Operand::Imm(last as i64),
        );
        b.load_indexed(c2, regs.ci, jd, 2, 4, tmp);
        b.index_addr(tmp, regs.xx, c2, 2);
        b.prefetch(tmp, 0);
    }
    b.addi(j, j, 1);
    b.jump(inner);
    b.bind(endrow);
    b.store_indexed(acc, regs.out, r, 2, 4, tmp);
    b.addi(r, r, 1);
    b.jump(row);
    b.bind(done);
    b.halt();
    let p = b.build().expect("doall slice builds");
    (p, regs.row_bindings(arrays, q, out))
}

/// MAPLE-decoupled Access shape: walks the query's rows producing
/// `&x[col_idx[j]]` pointers into engine queue `queue` of the instance
/// mapped at `maple_va`. Pairs with [`maple_execute_query`].
#[must_use]
pub fn maple_access_query(
    q: &SliceQuery,
    arrays: &TenantArrays,
    maple_va: VAddr,
    queue: u8,
) -> (Program, Vec<(Reg, u64)>) {
    let mut b = ProgramBuilder::new();
    let regs = SliceRegs::allocate(&mut b);
    let mbase = b.reg("maple");
    let api = MapleApi::new(mbase);
    let r = b.reg("r");
    let j = b.reg("j");
    let jend = b.reg("jend");
    let c = b.reg("c");
    let ptr = b.reg("ptr");
    let tmp = b.reg("tmp");
    let open = b.here("open");
    api.open(&mut b, queue, tmp);
    b.beq(tmp, 0i64, open);
    b.li(r, q.lo as u64);
    let row = b.here("row");
    let done = b.label("done");
    b.bge(r, q.hi as i64, done);
    b.load_indexed(j, regs.rp, r, 2, 4, tmp);
    b.addi(tmp, r, 1);
    b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
    let inner = b.here("inner");
    let endrow = b.label("endrow");
    b.bge(j, jend, endrow);
    b.load_indexed(c, regs.ci, j, 2, 4, tmp);
    b.index_addr(ptr, regs.xx, c, 2);
    api.produce_ptr(&mut b, queue, ptr);
    b.addi(j, j, 1);
    b.jump(inner);
    b.bind(endrow);
    b.addi(r, r, 1);
    b.jump(row);
    b.bind(done);
    api.close(&mut b, queue);
    b.halt();
    let mut binds = regs.bindings(arrays, 0);
    binds.push((mbase, maple_va.0));
    (b.build().expect("slice access builds"), binds)
}

/// MAPLE-decoupled Execute shape: consumes gathered `x` values from
/// engine queue `queue`, combines per [`QueryKind`], and stores the
/// per-row results into `out`. Pairs with [`maple_access_query`].
#[must_use]
pub fn maple_execute_query(
    q: &SliceQuery,
    arrays: &TenantArrays,
    out: VAddr,
    maple_va: VAddr,
    queue: u8,
) -> (Program, Vec<(Reg, u64)>) {
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
    b.li(r, q.lo as u64);
    let row = b.here("row");
    let done = b.label("done");
    b.bge(r, q.hi as i64, done);
    b.load_indexed(j, regs.rp, r, 2, 4, tmp);
    b.addi(tmp, r, 1);
    b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
    b.li(acc, 0);
    let inner = b.here("inner");
    let endrow = b.label("endrow");
    b.bge(j, jend, endrow);
    match q.kind {
        QueryKind::SpmvSlice => b.load_indexed(v, regs.vv, j, 2, 4, tmp),
        QueryKind::NeighborSum => b.load_indexed(v, regs.ci, j, 2, 4, tmp),
    }
    api.consume(&mut b, queue, xv, 4);
    match q.kind {
        QueryKind::SpmvSlice => b.mul(v, v, xv),
        QueryKind::NeighborSum => {
            b.alu(maple_isa::AluOp::Xor, v, v, maple_isa::Operand::Reg(xv));
        }
    }
    b.add(acc, acc, v);
    b.addi(j, j, 1);
    b.jump(inner);
    b.bind(endrow);
    b.store_indexed(acc, regs.out, r, 2, 4, tmp);
    b.addi(r, r, 1);
    b.jump(row);
    b.bind(done);
    b.halt();
    let mut binds = regs.row_bindings(arrays, q, out);
    binds.push((mbase, maple_va.0));
    (b.build().expect("slice execute builds"), binds)
}

/// Software-decoupled Access shape: performs the gather itself
/// (blocking) and pushes values through a shared-memory ring at `qva`.
/// Pairs with [`swdec_execute_query`]; the middle rung of the ladder —
/// decoupled, but no engine.
#[must_use]
pub fn swdec_access_query(
    q: &SliceQuery,
    arrays: &TenantArrays,
    qva: VAddr,
    layout: &SwQueueLayout,
) -> (Program, Vec<(Reg, u64)>) {
    let mut b = ProgramBuilder::new();
    let regs = SliceRegs::allocate(&mut b);
    let qbase = b.reg("qbase");
    let prod = SwProducer::new(&mut b, qbase, layout.capacity);
    let r = b.reg("r");
    let j = b.reg("j");
    let jend = b.reg("jend");
    let c = b.reg("c");
    let xv = b.reg("xv");
    let tmp = b.reg("tmp");
    b.li(r, q.lo as u64);
    let row = b.here("row");
    let done = b.label("done");
    b.bge(r, q.hi as i64, done);
    b.load_indexed(j, regs.rp, r, 2, 4, tmp);
    b.addi(tmp, r, 1);
    b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
    let inner = b.here("inner");
    let endrow = b.label("endrow");
    b.bge(j, jend, endrow);
    b.load_indexed(c, regs.ci, j, 2, 4, tmp);
    b.load_indexed(xv, regs.xx, c, 2, 4, tmp); // blocking IMA
    prod.emit_produce(&mut b, xv);
    b.addi(j, j, 1);
    b.jump(inner);
    b.bind(endrow);
    b.addi(r, r, 1);
    b.jump(row);
    b.bind(done);
    b.halt();
    let mut binds = regs.bindings(arrays, 0);
    binds.push((qbase, qva.0));
    (b.build().expect("slice sw access builds"), binds)
}

/// Software-decoupled Execute shape: pops gathered values from the ring
/// at `qva`, combines per [`QueryKind`], stores into `out`. Pairs with
/// [`swdec_access_query`].
#[must_use]
pub fn swdec_execute_query(
    q: &SliceQuery,
    arrays: &TenantArrays,
    out: VAddr,
    qva: VAddr,
    layout: &SwQueueLayout,
) -> (Program, Vec<(Reg, u64)>) {
    let mut b = ProgramBuilder::new();
    let regs = SliceRegs::allocate(&mut b);
    let qbase = b.reg("qbase");
    let cons = SwConsumer::new(&mut b, qbase, layout.capacity);
    let r = b.reg("r");
    let j = b.reg("j");
    let jend = b.reg("jend");
    let v = b.reg("v");
    let xv = b.reg("xv");
    let acc = b.reg("acc");
    let tmp = b.reg("tmp");
    b.li(r, q.lo as u64);
    let row = b.here("row");
    let done = b.label("done");
    b.bge(r, q.hi as i64, done);
    b.load_indexed(j, regs.rp, r, 2, 4, tmp);
    b.addi(tmp, r, 1);
    b.load_indexed(jend, regs.rp, tmp, 2, 4, tmp);
    b.li(acc, 0);
    let inner = b.here("inner");
    let endrow = b.label("endrow");
    b.bge(j, jend, endrow);
    match q.kind {
        QueryKind::SpmvSlice => b.load_indexed(v, regs.vv, j, 2, 4, tmp),
        QueryKind::NeighborSum => b.load_indexed(v, regs.ci, j, 2, 4, tmp),
    }
    cons.emit_consume(&mut b, xv);
    match q.kind {
        QueryKind::SpmvSlice => b.mul(v, v, xv),
        QueryKind::NeighborSum => {
            b.alu(maple_isa::AluOp::Xor, v, v, maple_isa::Operand::Reg(xv));
        }
    }
    b.add(acc, acc, v);
    b.addi(j, j, 1);
    b.jump(inner);
    b.bind(endrow);
    b.store_indexed(acc, regs.out, r, 2, 4, tmp);
    b.addi(r, r, 1);
    b.jump(row);
    b.bind(done);
    b.halt();
    let mut binds = regs.row_bindings(arrays, q, out);
    binds.push((qbase, qva.0));
    (b.build().expect("slice sw execute builds"), binds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{dense_vector, uniform_sparse};
    use crate::harness::{alloc_u32, config_for, Variant, MAX_CYCLES};

    const GUARD: u32 = 0xDEAD_BEEF;

    fn instance() -> (Csr, Vec<u32>) {
        let a = uniform_sparse(64, 8 * 1024, 5, 11);
        let x = dense_vector(8 * 1024, 12);
        (a, x)
    }

    fn queries() -> Vec<SliceQuery> {
        vec![
            SliceQuery {
                kind: QueryKind::SpmvSlice,
                lo: 3,
                hi: 19,
            },
            SliceQuery {
                kind: QueryKind::NeighborSum,
                lo: 40,
                hi: 64,
            },
            SliceQuery {
                kind: QueryKind::SpmvSlice,
                lo: 0,
                hi: 0,
            },
        ]
    }

    /// Allocates the query's output between two guard words and returns
    /// `out`, its first word.
    fn guarded_out(sys: &mut System, q: &SliceQuery) -> VAddr {
        let buf = alloc_u32(sys, q.rows() + 2);
        sys.write_slice_u32(buf, &[GUARD]);
        sys.write_slice_u32(buf.offset(4 * (q.rows() as u64 + 1)), &[GUARD]);
        buf.offset(4)
    }

    /// Checks the output against the host reference, and that the
    /// programs (whose `out` register is biased by `-4·lo`) left both
    /// guard words alone.
    fn check(sys: &mut System, q: &SliceQuery, out: VAddr, a: &Csr, x: &[u32]) {
        let words = sys.read_slice_u32(VAddr(out.0 - 4), q.rows() + 2);
        let what = format!("{} {}..{}", q.kind.label(), q.lo, q.hi);
        assert_eq!(words[1..=q.rows()], q.reference(a, x)[..], "{what}");
        assert_eq!(
            [words[0], words[q.rows() + 1]],
            [GUARD; 2],
            "{what}: guard written"
        );
    }

    #[test]
    fn doall_query_matches_reference() {
        let (a, x) = instance();
        for q in queries() {
            let mut sys = System::new(config_for(Variant::Doall, 1));
            let arrays = upload_tenant(&mut sys, &a, &x);
            let out = guarded_out(&mut sys, &q);
            let (prog, binds) = doall_query(&q, &arrays, out, None);
            sys.load_program(prog, &binds);
            assert!(sys.run(MAX_CYCLES).is_finished());
            check(&mut sys, &q, out, &a, &x);
        }
    }

    #[test]
    fn maple_query_pair_matches_reference() {
        let (a, x) = instance();
        for q in queries() {
            let mut sys = System::new(config_for(Variant::MapleDecoupled, 2));
            let arrays = upload_tenant(&mut sys, &a, &x);
            let out = guarded_out(&mut sys, &q);
            let maple_va = sys.map_maple(0);
            let (ap, ab) = maple_access_query(&q, &arrays, maple_va, 0);
            let (ep, eb) = maple_execute_query(&q, &arrays, out, maple_va, 0);
            sys.load_program(ap, &ab);
            sys.load_program(ep, &eb);
            assert!(sys.run(MAX_CYCLES).is_finished());
            check(&mut sys, &q, out, &a, &x);
        }
    }

    #[test]
    fn swdec_query_pair_matches_reference() {
        let (a, x) = instance();
        for q in queries() {
            let mut sys = System::new(config_for(Variant::SwDecoupled, 2));
            let arrays = upload_tenant(&mut sys, &a, &x);
            let out = guarded_out(&mut sys, &q);
            let layout = SwQueueLayout::new(64);
            let qva = sys.alloc(layout.bytes());
            let (ap, ab) = swdec_access_query(&q, &arrays, qva, &layout);
            let (ep, eb) = swdec_execute_query(&q, &arrays, out, qva, &layout);
            sys.load_program(ap, &ab);
            sys.load_program(ep, &eb);
            assert!(sys.run(MAX_CYCLES).is_finished());
            check(&mut sys, &q, out, &a, &x);
        }
    }
}
