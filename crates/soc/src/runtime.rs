//! The user-level MAPLE API and SMP runtime helpers, as code generators.
//!
//! [`MapleApi`] is the paper's Section 3.1–3.2 API: every operation
//! compiles to an ordinary load or store against the instance's mapped
//! page — `INIT`, `OPEN`/`CLOSE`, `PRODUCE`, `PRODUCE_PTR`, `CONSUME`,
//! `PREFETCH`, the `LIMA` family, and the performance-counter reads used
//! by the sensitivity studies. [`Barrier`] provides the OpenMP-style
//! epoch barrier the multithreaded kernels synchronize with.

use maple_core::mmio::{lima_go_payload, load_offset, store_offset, LoadOp, StoreOp};
use maple_isa::builder::ProgramBuilder;
use maple_isa::{AtomicOp, Reg, ZERO};

/// Code generator for one mapped MAPLE instance.
///
/// `base` holds the user virtual address of the instance page (from
/// [`crate::system::System::map_maple`]).
#[derive(Debug, Clone, Copy)]
pub struct MapleApi {
    /// Register holding the instance page base address.
    pub base: Reg,
}

impl MapleApi {
    /// Wraps an instance whose page address lives in `base`.
    #[must_use]
    pub fn new(base: Reg) -> Self {
        MapleApi { base }
    }

    /// `PRODUCE(q, v)` — one store.
    pub fn produce(&self, b: &mut ProgramBuilder, q: u8, v: Reg) {
        b.st(v, self.base, store_offset(StoreOp::Produce, q) as i64, 8);
    }

    /// `PRODUCE_PTR(q, ptr)` — one store; MAPLE fetches non-coherently.
    pub fn produce_ptr(&self, b: &mut ProgramBuilder, q: u8, ptr: Reg) {
        b.st(
            ptr,
            self.base,
            store_offset(StoreOp::ProducePtr, q) as i64,
            8,
        );
    }

    /// `PRODUCE_PTR` via the coherent LLC path.
    pub fn produce_ptr_llc(&self, b: &mut ProgramBuilder, q: u8, ptr: Reg) {
        b.st(
            ptr,
            self.base,
            store_offset(StoreOp::ProducePtrLlc, q) as i64,
            8,
        );
    }

    /// `CONSUME(q)` — one load of `size` bytes (8-byte loads on 4-byte
    /// queues pop two entries).
    pub fn consume(&self, b: &mut ProgramBuilder, q: u8, rd: Reg, size: u8) {
        b.ld(rd, self.base, load_offset(LoadOp::Consume, q) as i64, size);
    }

    /// `PREFETCH(ptr)` — speculative prefetch into the LLC.
    pub fn prefetch(&self, b: &mut ProgramBuilder, ptr: Reg) {
        b.st(ptr, self.base, store_offset(StoreOp::Prefetch, 0) as i64, 8);
    }

    /// `OPEN(q)` — returns 1 in `rd` when the queue is granted.
    pub fn open(&self, b: &mut ProgramBuilder, q: u8, rd: Reg) {
        b.ld(rd, self.base, load_offset(LoadOp::Open, q) as i64, 8);
    }

    /// `CLOSE(q)`.
    pub fn close(&self, b: &mut ProgramBuilder, q: u8) {
        b.st(ZERO, self.base, store_offset(StoreOp::Close, q) as i64, 8);
    }

    /// `INIT` — reset the engine (queues drained, counters kept).
    pub fn init(&self, b: &mut ProgramBuilder) {
        b.st(ZERO, self.base, store_offset(StoreOp::Reset, 0) as i64, 8);
    }

    /// `LIMA(A, B, lo, hi)` (Figure 4): four stores programming the unit,
    /// with `lo`/`hi` packed from registers. Non-speculative commands
    /// gather into queue `q`; speculative ones prefetch into the LLC.
    #[allow(clippy::too_many_arguments)]
    pub fn lima(
        &self,
        b: &mut ProgramBuilder,
        q: u8,
        a_base: Reg,
        b_base: Reg,
        lo: Reg,
        hi: Reg,
        speculative: bool,
        b_elem: u8,
        a_elem: u8,
        tmp: Reg,
        tmp2: Reg,
    ) {
        b.st(
            a_base,
            self.base,
            store_offset(StoreOp::LimaABase, q) as i64,
            8,
        );
        b.st(
            b_base,
            self.base,
            store_offset(StoreOp::LimaBBase, q) as i64,
            8,
        );
        // range payload = lo | hi << 32
        b.slli(tmp2, hi, 32);
        b.alu(maple_isa::AluOp::Or, tmp, lo, tmp2);
        b.st(
            tmp,
            self.base,
            store_offset(StoreOp::LimaRange, q) as i64,
            8,
        );
        b.li(tmp, lima_go_payload(speculative, b_elem, a_elem));
        b.st(tmp, self.base, store_offset(StoreOp::LimaGo, q) as i64, 8);
    }

    /// Reads a performance counter into `rd`.
    pub fn stat(&self, b: &mut ProgramBuilder, q: u8, which: LoadOp, rd: Reg) {
        b.ld(rd, self.base, load_offset(which, q) as i64, 8);
    }

    // --- RMW-produce extension (paper §3 future work) ---------------------

    /// Sets queue `q`'s atomic operand register.
    pub fn set_amo_operand(&self, b: &mut ProgramBuilder, q: u8, operand: Reg) {
        b.st(
            operand,
            self.base,
            store_offset(StoreOp::SetAmoOperand, q) as i64,
            8,
        );
    }

    /// `PRODUCE_AMO_ADD(q, ptr)`: MAPLE atomically fetch-adds the queue's
    /// operand at `*ptr` and enqueues the old value in program order.
    pub fn produce_amo_add(&self, b: &mut ProgramBuilder, q: u8, ptr: Reg) {
        b.st(
            ptr,
            self.base,
            store_offset(StoreOp::ProduceAmoAdd, q) as i64,
            8,
        );
    }
}

/// Byte offset of the arrival counter in a barrier block.
pub const BARRIER_COUNT_OFFSET: i64 = 0;
/// Byte offset of the generation counter (separate cache line).
pub const BARRIER_GEN_OFFSET: i64 = 64;
/// Bytes to allocate for one barrier block.
pub const BARRIER_BYTES: u64 = 128;

/// Code generator for an OpenMP-style epoch barrier over `nthreads`
/// threads. Each participating program creates its own `Barrier` (they
/// share the same memory block) and calls [`Barrier::emit`] at every
/// synchronization point.
#[derive(Debug, Clone, Copy)]
pub struct Barrier {
    /// Register holding the barrier block's address.
    pub base: Reg,
    /// Number of participating threads.
    pub nthreads: u64,
    my_gen: Reg,
    tmp: Reg,
    one: Reg,
}

impl Barrier {
    /// Allocates the barrier's registers. `base` must hold the block
    /// address at run time; `my_gen` starts at zero.
    pub fn new(b: &mut ProgramBuilder, base: Reg, nthreads: u64) -> Self {
        assert!(nthreads >= 1);
        let my_gen = b.reg("bar_gen");
        let tmp = b.reg("bar_tmp");
        let one = b.reg("bar_one");
        Barrier {
            base,
            nthreads,
            my_gen,
            tmp,
            one,
        }
    }

    /// Emits one barrier episode.
    pub fn emit(&self, b: &mut ProgramBuilder) {
        let wait = b.label("bar_wait");
        let done = b.label("bar_done");
        b.li(self.one, 1);
        // old = fetch_add(count, 1)
        b.amo(
            AtomicOp::Add,
            self.tmp,
            self.base,
            BARRIER_COUNT_OFFSET,
            8,
            self.one,
            ZERO,
        );
        b.addi(self.my_gen, self.my_gen, 1);
        b.bne(self.tmp, (self.nthreads - 1) as i64, wait);
        // Last arriver: reset the count, publish the new generation.
        b.st(ZERO, self.base, BARRIER_COUNT_OFFSET, 8);
        b.amo(
            AtomicOp::Add,
            self.tmp,
            self.base,
            BARRIER_GEN_OFFSET,
            8,
            self.one,
            ZERO,
        );
        b.jump(done);
        b.bind(wait);
        let spin = b.here("bar_spin");
        b.ld_volatile(self.tmp, self.base, BARRIER_GEN_OFFSET, 8);
        b.blt(self.tmp, self.my_gen, spin);
        b.bind(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_operations_are_single_memory_instructions() {
        let mut b = ProgramBuilder::new();
        let base = b.reg("maple");
        let v = b.reg("v");
        let api = MapleApi::new(base);
        let before = b.len();
        api.produce(&mut b, 0, v);
        assert_eq!(b.len(), before + 1, "PRODUCE is exactly one store");
        api.produce_ptr(&mut b, 1, v);
        api.consume(&mut b, 0, v, 4);
        assert_eq!(b.len(), before + 3);
        b.halt();
        assert!(b.build().is_ok());
    }

    #[test]
    fn lima_is_four_stores_plus_packing() {
        let mut b = ProgramBuilder::new();
        let base = b.reg("maple");
        let a = b.reg("a");
        let bb = b.reg("b");
        let lo = b.reg("lo");
        let hi = b.reg("hi");
        let t1 = b.reg("t1");
        let t2 = b.reg("t2");
        let api = MapleApi::new(base);
        let before = b.len();
        api.lima(&mut b, 2, a, bb, lo, hi, false, 4, 4, t1, t2);
        // 4 stores + 2 packing ALU ops + 1 li.
        assert_eq!(b.len(), before + 7);
        b.halt();
        assert!(b.build().is_ok());
    }

    #[test]
    fn barrier_emits_and_builds() {
        let mut b = ProgramBuilder::new();
        let base = b.reg("bar");
        let bar = Barrier::new(&mut b, base, 4);
        bar.emit(&mut b);
        bar.emit(&mut b); // reusable across episodes
        b.halt();
        assert!(b.build().is_ok());
    }
}
