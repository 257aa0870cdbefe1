//! Software-only decoupling: shared-memory SPSC ring buffers.
//!
//! The paper's Figure 8 baseline. The Access and Execute threads
//! communicate through a ring buffer in ordinary memory: the producer
//! publishes a `tail` index, the consumer a `head` index, and each side
//! polls the other's index at the L2 coherence point (volatile loads —
//! the model's stand-in for the coherence misses such polling causes on
//! real hardware). No hardware assists: the Access thread still blocks on
//! every indirect load, which is precisely why software decoupling loses
//! runahead on a 1-deep in-order core.
//!
//! Memory layout of a queue control block (allocated zeroed):
//!
//! ```text
//! +0    head  (u64, written by consumer)
//! +64   tail  (u64, written by producer)   [separate line]
//! +128  data[capacity] (u64 each)
//! ```

use maple_isa::builder::ProgramBuilder;
use maple_isa::Reg;

/// Byte offset of the consumer index.
pub const HEAD_OFFSET: i64 = 0;
/// Byte offset of the producer index.
pub const TAIL_OFFSET: i64 = 64;
/// Byte offset of the data array.
pub const DATA_OFFSET: i64 = 128;

/// Ring capacity and sizing helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwQueueLayout {
    /// Entries in the ring (must be a power of two).
    pub capacity: u64,
}

impl SwQueueLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is a nonzero power of two.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        SwQueueLayout { capacity }
    }

    /// Bytes to allocate for the control block plus data.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        DATA_OFFSET as u64 + self.capacity * 8
    }
}

/// Producer-side code generator. Holds the registers that carry the
/// producer's local state across [`SwProducer::emit_produce`] calls.
#[derive(Debug, Clone, Copy)]
pub struct SwProducer {
    /// Queue control-block base address.
    pub qbase: Reg,
    /// Producer's local tail index (must start at 0).
    pub my_tail: Reg,
    /// Cached copy of the consumer's head index.
    pub head_cache: Reg,
    /// Scratch.
    pub tmp: Reg,
    /// Scratch.
    pub tmp2: Reg,
    /// Ring capacity.
    pub capacity: u64,
}

impl SwProducer {
    /// Allocates the registers this producer needs.
    pub fn new(b: &mut ProgramBuilder, qbase: Reg, capacity: u64) -> Self {
        assert!(capacity.is_power_of_two());
        SwProducer {
            qbase,
            my_tail: b.reg("swq_tail"),
            head_cache: b.reg("swq_headc"),
            tmp: b.reg("swq_ptmp"),
            tmp2: b.reg("swq_ptmp2"),
            capacity,
        }
    }

    /// Emits code pushing the value in `v` into the ring, spinning while
    /// full. Common case (room in the ring): 6 instructions.
    pub fn emit_produce(&self, b: &mut ProgramBuilder, v: Reg) {
        let ok = b.label("swq_prod_ok");
        // Common case: room against the cached head.
        b.sub(self.tmp, self.my_tail, self.head_cache);
        b.blt(self.tmp, self.capacity as i64, ok);
        // Slow path: refresh head from the coherence point and spin.
        let spin = b.here("swq_prod_spin");
        b.ld_volatile(self.head_cache, self.qbase, HEAD_OFFSET, 8);
        b.sub(self.tmp, self.my_tail, self.head_cache);
        b.bge(self.tmp, self.capacity as i64, spin);
        b.bind(ok);
        // data[tail & (cap-1)] = v
        b.alu(
            maple_isa::AluOp::And,
            self.tmp2,
            self.my_tail,
            (self.capacity - 1) as i64,
        );
        b.slli(self.tmp2, self.tmp2, 3);
        b.add(self.tmp2, self.tmp2, self.qbase);
        b.st(v, self.tmp2, DATA_OFFSET, 8);
        // Publish the new tail.
        b.addi(self.my_tail, self.my_tail, 1);
        b.st(self.my_tail, self.qbase, TAIL_OFFSET, 8);
    }
}

/// Consumer-side code generator.
#[derive(Debug, Clone, Copy)]
pub struct SwConsumer {
    /// Queue control-block base address.
    pub qbase: Reg,
    /// Consumer's local head index (must start at 0).
    pub my_head: Reg,
    /// Cached copy of the producer's tail index.
    pub tail_cache: Reg,
    /// Scratch.
    pub tmp: Reg,
    /// Ring capacity.
    pub capacity: u64,
}

impl SwConsumer {
    /// Allocates the registers this consumer needs.
    pub fn new(b: &mut ProgramBuilder, qbase: Reg, capacity: u64) -> Self {
        assert!(capacity.is_power_of_two());
        SwConsumer {
            qbase,
            my_head: b.reg("swq_head"),
            tail_cache: b.reg("swq_tailc"),
            tmp: b.reg("swq_ctmp"),
            capacity,
        }
    }

    /// Emits code popping the ring head into `rd`, spinning while empty.
    pub fn emit_consume(&self, b: &mut ProgramBuilder, rd: Reg) {
        let ok = b.label("swq_cons_ok");
        b.blt(self.my_head, self.tail_cache, ok);
        let spin = b.here("swq_cons_spin");
        b.ld_volatile(self.tail_cache, self.qbase, TAIL_OFFSET, 8);
        b.bge(self.my_head, self.tail_cache, spin);
        b.bind(ok);
        // rd = data[head & (cap-1)]
        b.alu(
            maple_isa::AluOp::And,
            self.tmp,
            self.my_head,
            (self.capacity - 1) as i64,
        );
        b.slli(self.tmp, self.tmp, 3);
        b.add(self.tmp, self.tmp, self.qbase);
        b.ld(rd, self.tmp, DATA_OFFSET, 8);
        // Publish the new head.
        b.addi(self.my_head, self.my_head, 1);
        b.st(self.my_head, self.qbase, HEAD_OFFSET, 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_sizing() {
        let l = SwQueueLayout::new(64);
        assert_eq!(l.bytes(), 128 + 64 * 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn capacity_must_be_pow2() {
        let _ = SwQueueLayout::new(48);
    }

    #[test]
    fn emitters_build_valid_programs() {
        let mut b = ProgramBuilder::new();
        let qbase = b.reg("qbase");
        let v = b.reg("v");
        let prod = SwProducer::new(&mut b, qbase, 32);
        prod.emit_produce(&mut b, v);
        prod.emit_produce(&mut b, v);
        b.halt();
        let p = b.build().expect("labels resolve per emission");
        assert!(p.len() > 10);

        let mut b = ProgramBuilder::new();
        let qbase = b.reg("qbase");
        let rd = b.reg("rd");
        let cons = SwConsumer::new(&mut b, qbase, 32);
        cons.emit_consume(&mut b, rd);
        b.halt();
        assert!(b.build().is_ok());
    }
}
