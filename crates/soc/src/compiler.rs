//! Automatic program slicing for decoupled execution (Section 3.3).
//!
//! The paper adapts the DeSC/DEC++ LLVM flow: a kernel is sliced into an
//! Access program (address computation and loads) and an Execute program
//! (value computation and stores), with indirect loads rewritten into
//! `PRODUCE_PTR`/`CONSUME` pairs. This module slices one kernel, the
//! paper's running example and SDHP's loop:
//! `for i in 0..n { res[i] = A[B[i]] * C[i] }` over `u32` elements, with
//! `B` holding `u32` indices into `A`.
//!
//! Three backends emit it:
//!
//! - [`gen_doall`]: the baseline single-thread loop.
//! - [`gen_maple_pair`]: Access + Execute programs targeting a MAPLE queue
//!   (`PRODUCE_PTR` on the Access side, `CONSUME` on the Execute side).
//! - [`gen_desc_pair`]: Access + Execute using DeSC coupled queues
//!   (terminal loads; every Execute input flows through queues because
//!   the DeSC Compute core has no memory visibility).

use maple_isa::builder::ProgramBuilder;
use maple_isa::{Program, Reg};

use crate::runtime::MapleApi;

/// Register arguments every generated program expects (set via
/// [`crate::system::System::load_program`]).
#[derive(Debug, Clone, Copy)]
pub struct KernelArgs {
    /// Base of `A` (data array, u32).
    pub a: Reg,
    /// Base of `B` (index array, u32).
    pub b: Reg,
    /// Base of `C` (streamed array, u32).
    pub c: Reg,
    /// Base of `res` (output array, u32).
    pub res: Reg,
    /// Element count.
    pub n: Reg,
    /// Running sum of the stored values (zero-initialized).
    pub acc: Reg,
}

impl KernelArgs {
    /// Allocates the six argument registers in a builder.
    pub fn allocate(b: &mut ProgramBuilder) -> Self {
        KernelArgs {
            a: b.reg("arg_a"),
            b: b.reg("arg_b"),
            c: b.reg("arg_c"),
            res: b.reg("arg_res"),
            n: b.reg("arg_n"),
            acc: b.reg("arg_acc"),
        }
    }
}

/// Generates the single-thread do-all loop; returns the program and its
/// argument registers.
#[must_use]
pub fn gen_doall() -> (Program, KernelArgs) {
    let mut b = ProgramBuilder::new();
    let args = KernelArgs::allocate(&mut b);
    let i = b.reg("i");
    let idx = b.reg("idx");
    let val = b.reg("val");
    let sv = b.reg("sv");
    let tmp = b.reg("tmp");
    b.li(i, 0);
    b.li(args.acc, 0);
    let top = b.here("loop");
    let done = b.label("done");
    b.bge(i, args.n, done);
    // idx = B[i]; val = A[idx] * C[i]; res[i] = val
    b.load_indexed(idx, args.b, i, 2, 4, tmp);
    b.load_indexed(val, args.a, idx, 2, 4, tmp);
    b.load_indexed(sv, args.c, i, 2, 4, tmp);
    b.mul(val, val, sv);
    b.store_indexed(val, args.res, i, 2, 4, tmp);
    b.add(args.acc, args.acc, val);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    (b.build().expect("doall builds"), args)
}

/// Generates the MAPLE-decoupled pair for queue `q`: the Access program
/// walks `B` and issues `PRODUCE_PTR`; the Execute program consumes
/// gathered values, streams `C`, computes and stores.
///
/// Both programs expect an extra register holding the MAPLE page address,
/// returned alongside the argument sets.
#[must_use]
pub fn gen_maple_pair(q: u8) -> MaplePair {
    // --- Access slice ---
    let mut b = ProgramBuilder::new();
    let a_args = KernelArgs::allocate(&mut b);
    let a_maple = b.reg("maple");
    let api = MapleApi::new(a_maple);
    let i = b.reg("i");
    let idx = b.reg("idx");
    let ptr = b.reg("ptr");
    let tmp = b.reg("tmp");
    b.li(i, 0);
    let top = b.here("loop");
    let done = b.label("done");
    b.bge(i, a_args.n, done);
    // idx = B[i] (streaming, cache-friendly)
    b.load_indexed(idx, a_args.b, i, 2, 4, tmp);
    // ptr = &A[idx]; PRODUCE_PTR — MAPLE fetches asynchronously.
    b.index_addr(ptr, a_args.a, idx, 2);
    api.produce_ptr(&mut b, q, ptr);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    let access = b.build().expect("access slice builds");

    // --- Execute slice ---
    let mut b = ProgramBuilder::new();
    let e_args = KernelArgs::allocate(&mut b);
    let e_maple = b.reg("maple");
    let api = MapleApi::new(e_maple);
    let i = b.reg("i");
    let val = b.reg("val");
    let sv = b.reg("sv");
    let tmp = b.reg("tmp");
    b.li(i, 0);
    b.li(e_args.acc, 0);
    let top = b.here("loop");
    let done = b.label("done");
    b.bge(i, e_args.n, done);
    api.consume(&mut b, q, val, 4);
    b.load_indexed(sv, e_args.c, i, 2, 4, tmp);
    b.mul(val, val, sv);
    b.store_indexed(val, e_args.res, i, 2, 4, tmp);
    b.add(e_args.acc, e_args.acc, val);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    let execute = b.build().expect("execute slice builds");

    MaplePair {
        access,
        access_args: a_args,
        access_maple: a_maple,
        execute,
        execute_args: e_args,
        execute_maple: e_maple,
    }
}

/// Generates the DeSC pair: terminal loads feed coupled queue 0; the
/// streamed input flows through coupled queue 1 because the DeSC Compute
/// core has no memory visibility (the restriction that costs DeSC
/// runahead on BFS). Computed results return on queue 2 — DeSC's
/// store-value queue — which the Supply core drains *asynchronously*
/// (opportunistically in the loop, then fully at the end), so neither
/// core ever blocks on the other in the steady state.
#[must_use]
pub fn gen_desc_pair() -> DescPair {
    // --- Supply (Access) ---
    let mut b = ProgramBuilder::new();
    let a_args = KernelArgs::allocate(&mut b);
    let i = b.reg("i");
    let is = b.reg("store_idx");
    let idx = b.reg("idx");
    let ptr = b.reg("ptr");
    let tmp = b.reg("tmp");
    let outv = b.reg("outv");
    let empty = b.reg("empty");
    b.li(i, 0);
    b.li(is, 0);
    b.li(empty, u64::MAX);
    let top = b.here("loop");
    let done = b.label("done");
    b.bge(i, a_args.n, done);
    // Drain one pending result from the store-value queue without
    // blocking; results arrive in order, so the store index is a simple
    // counter.
    let no_out = b.label("no_out");
    b.desc_try_consume(outv, 2);
    b.beq(outv, maple_isa::Operand::Reg(empty), no_out);
    b.store_indexed(outv, a_args.res, is, 2, 4, tmp);
    b.addi(is, is, 1);
    b.bind(no_out);
    b.load_indexed(idx, a_args.b, i, 2, 4, tmp);
    b.index_addr(ptr, a_args.a, idx, 2);
    // Terminal loads: non-blocking, A[B[i]] flows to Compute on q0 and
    // C[i] on q1.
    b.desc_produce_load(0, ptr, 0, 4);
    b.index_addr(ptr, a_args.c, i, 2);
    b.desc_produce_load(1, ptr, 0, 4);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    // Flush the remaining results.
    let flush = b.here("flush");
    let flushed = b.label("flushed");
    b.bge(is, a_args.n, flushed);
    b.desc_consume(outv, 2);
    b.store_indexed(outv, a_args.res, is, 2, 4, tmp);
    b.addi(is, is, 1);
    b.jump(flush);
    b.bind(flushed);
    b.halt();
    let access = b.build().expect("supply slice builds");

    // --- Compute (Execute) ---
    let mut b = ProgramBuilder::new();
    let e_args = KernelArgs::allocate(&mut b);
    let i = b.reg("i");
    let val = b.reg("val");
    let sv = b.reg("sv");
    b.li(i, 0);
    b.li(e_args.acc, 0);
    let top = b.here("loop");
    let done = b.label("done");
    b.bge(i, e_args.n, done);
    b.desc_consume(val, 0);
    b.desc_consume(sv, 1);
    b.mul(val, val, sv);
    b.desc_produce(2, val);
    b.add(e_args.acc, e_args.acc, val);
    b.addi(i, i, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    let execute = b.build().expect("compute slice builds");

    DescPair {
        access,
        access_args: a_args,
        execute,
        execute_args: e_args,
    }
}

/// Output of [`gen_maple_pair`].
#[derive(Debug, Clone)]
pub struct MaplePair {
    /// The Access program.
    pub access: Program,
    /// Argument registers of the Access program.
    pub access_args: KernelArgs,
    /// Register that must hold the MAPLE page address (Access).
    pub access_maple: Reg,
    /// The Execute program.
    pub execute: Program,
    /// Argument registers of the Execute program.
    pub execute_args: KernelArgs,
    /// Register that must hold the MAPLE page address (Execute).
    pub execute_maple: Reg,
}

/// Output of [`gen_desc_pair`]. Requires the two cores to be
/// joined with [`crate::system::System::pair_desc`] over ≥3 queues.
#[derive(Debug, Clone)]
pub struct DescPair {
    /// The Supply (Access) program.
    pub access: Program,
    /// Argument registers of the Supply program.
    pub access_args: KernelArgs,
    /// The Compute (Execute) program.
    pub execute: Program,
    /// Argument registers of the Compute program.
    pub execute_args: KernelArgs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_build() {
        let (p, _) = gen_doall();
        assert!(p.len() > 5);
        let mp = gen_maple_pair(0);
        assert!(mp.access.len() > 5);
        assert!(mp.execute.len() > 5);
        let dp = gen_desc_pair();
        assert!(dp.access.len() > 5);
        assert!(dp.execute.len() > 5);
    }

    #[test]
    fn access_slice_contains_no_indirect_blocking_load() {
        // In the MAPLE slice, the only loads are the streaming B[i] walk;
        // the indirect A load became a PRODUCE_PTR store.
        let mp = gen_maple_pair(0);
        let loads = mp.access.iter().filter(|i| i.is_load()).count();
        let stores = mp
            .access
            .iter()
            .filter(|i| matches!(i, maple_isa::Inst::St { .. }))
            .count();
        assert!(loads >= 1, "B[i] stream remains");
        assert!(stores >= 1, "PRODUCE_PTR store present");
    }

    #[test]
    fn desc_slices_use_extension_instructions() {
        let dp = gen_desc_pair();
        let uses_ext = |p: &Program| {
            p.iter().any(|i| {
                matches!(
                    i,
                    maple_isa::Inst::DescProduce { .. }
                        | maple_isa::Inst::DescConsume { .. }
                        | maple_isa::Inst::DescProduceLoad { .. }
                )
            })
        };
        assert!(uses_ext(&dp.access));
        assert!(uses_ext(&dp.execute));
        // MAPLE slices never use the DeSC extension.
        let mp = gen_maple_pair(0);
        assert!(!uses_ext(&mp.access));
        assert!(!uses_ext(&mp.execute));
    }
}
