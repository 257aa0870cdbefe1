//! A minimal RISC-style instruction set for the simulated in-order cores.
//!
//! The paper's premise is that MAPLE needs **no new ISA instructions**: the
//! whole API is plain loads and stores to memory-mapped pages. This IR
//! honours that — there is one generic [`Inst::Ld`]/[`Inst::St`] pair, and
//! whether an access reaches DRAM, the shared L2, or a MAPLE instance is
//! decided by the *page flags* the TLB returns, exactly as on the real SoC.
//! (The one modelling concession is [`LdClass::Volatile`], a hint standing
//! in for the coherence misses that shared-flag polling incurs on real
//! hardware.)
//!
//! Programs are built with [`builder::ProgramBuilder`], which resolves
//! labels and allocates registers:
//!
//! ```
//! use maple_isa::builder::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! let x = b.reg("x");
//! b.li(x, 5);
//! b.addi(x, x, 1);
//! b.halt();
//! let prog = b.build().unwrap();
//! assert_eq!(prog.len(), 3);
//! ```
//!
//! # Execution model: instruction classes
//!
//! The in-order core executes one instruction per cycle gated by each
//! instruction's latency; from the simulator's perspective the IR splits
//! into three classes:
//!
//! - **Compute** — [`Inst::Li`], [`Inst::Alu`], [`Inst::Nop`]. Read and
//!   write only the core-private register file (`r0` hardwired to zero)
//!   and advance `pc` by one. Latency is static ([`AluOp::latency`]:
//!   3 cycles for `Mul`, 1 otherwise).
//! - **Memory / queue** — [`Inst::Ld`], [`Inst::St`], [`Inst::Amo`],
//!   [`Inst::Prefetch`], and the DeSC baseline ops
//!   ([`Inst::DescProduce`], [`Inst::DescConsume`],
//!   [`Inst::DescTryConsume`], [`Inst::DescProduceLoad`]). Latency is
//!   dynamic (cache state, NoC contention, device occupancy, queue
//!   backpressure), and whether an access is plain memory or a MAPLE
//!   MMIO command is decided by page flags at translation time.
//! - **Control** — [`Inst::Branch`], [`Inst::Jump`], [`Inst::Halt`].
//!   The next pc is data-dependent (or execution stops).

#![deny(missing_docs)]

pub mod builder;

/// Number of architectural registers.
pub const NUM_REGS: usize = 64;

/// An architectural register. `Reg(0)` is hardwired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// The always-zero register.
pub const ZERO: Reg = Reg(0);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Second ALU operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register value.
    Reg(Reg),
    /// A sign-extended immediate.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Two-source ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (3-cycle latency on the modelled core).
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (amount masked to 6 bits).
    Sll,
    /// Logical shift right (amount masked to 6 bits).
    Srl,
    /// Unsigned set-less-than (1 or 0).
    SltU,
    /// Unsigned minimum.
    MinU,
    /// Unsigned maximum.
    MaxU,
}

impl AluOp {
    /// Execution latency of this operation on the in-order core.
    #[must_use]
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul => 3,
            _ => 1,
        }
    }

    /// Applies the operation.
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a << (b & 63),
            AluOp::Srl => a >> (b & 63),
            AluOp::SltU => u64::from(a < b),
            AluOp::MinU => a.min(b),
            AluOp::MaxU => a.max(b),
        }
    }
}

/// Branch conditions (unsigned comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
}

impl Cond {
    /// Evaluates the condition.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::LtU => a < b,
            Cond::GeU => a >= b,
        }
    }
}

/// Load cacheability class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdClass {
    /// Ordinary cacheable load.
    Normal,
    /// Served at the L2 coherence point every time — the model's stand-in
    /// for loads of actively-shared data (software queue indices, flags)
    /// that miss due to coherence invalidations on real hardware.
    Volatile,
}

/// Atomic operations (mirror of the memory system's AMO kinds; `expected`
/// for CAS comes from a register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// Fetch-and-add.
    Add,
    /// Swap.
    Swap,
    /// Compare-and-swap; `expected` is read from the instruction's second
    /// source register.
    Cas,
    /// Unsigned fetch-min.
    MinU,
    /// Unsigned fetch-max.
    MaxU,
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Load immediate.
    Li {
        /// Destination.
        rd: Reg,
        /// Value.
        imm: u64,
    },
    /// Register-register / register-immediate ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Operand,
    },
    /// Load `size` bytes from `[base + offset]` into `rd`.
    ///
    /// Page flags decide the path: normal memory goes through the L1,
    /// MMIO pages are routed over the NoC to the owning device (this is a
    /// MAPLE `CONSUME`/config read when the page maps a MAPLE instance).
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width (1, 2, 4, 8).
        size: u8,
        /// Cacheability class.
        class: LdClass,
    },
    /// Store the low `size` bytes of `rs` to `[base + offset]`.
    ///
    /// On an MMIO page this is a MAPLE `PRODUCE`/`PRODUCE_PTR`/config write;
    /// the core retires it when the device acknowledges (paper step 4).
    St {
        /// Value source.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        size: u8,
    },
    /// Atomic read-modify-write on `[base + offset]`; old value into `rd`.
    Amo {
        /// Atomic operation.
        op: AtomicOp,
        /// Destination for the old value.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Width (4 or 8).
        size: u8,
        /// Operand register (new value / addend). For CAS this is the new
        /// value and `rs2` the expected value.
        rs: Reg,
        /// CAS expected-value register (ignored otherwise).
        rs2: Reg,
    },
    /// Software prefetch of the line at `[base + offset]` into the L1.
    Prefetch {
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Conditional branch to the resolved instruction index `target`.
    Branch {
        /// Condition.
        cond: Cond,
        /// First comparand.
        rs1: Reg,
        /// Second comparand.
        rs2: Operand,
        /// Destination instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Destination instruction index.
        target: usize,
    },
    /// No operation (one cycle).
    Nop,
    /// Stop the hardware thread.
    Halt,

    // --- DeSC baseline extension -----------------------------------------
    //
    // The DeSC comparator (Ham et al.) requires new ISA instructions and
    // core-coupled architectural queues — precisely the modification MAPLE
    // avoids (Table 1 of the paper). These three instructions exist so the
    // baseline can be modelled honestly; MAPLE program variants never emit
    // them.
    /// DeSC: enqueue `rs` into coupled queue `q` (blocking when full).
    DescProduce {
        /// Queue index.
        q: u8,
        /// Value source.
        rs: Reg,
    },
    /// DeSC: dequeue from coupled queue `q` into `rd` (blocking when
    /// empty).
    DescConsume {
        /// Destination.
        rd: Reg,
        /// Queue index.
        q: u8,
    },
    /// DeSC: non-blocking dequeue — `rd` receives the head of queue `q`,
    /// or `u64::MAX` when the queue is empty (models the Supply core
    /// opportunistically draining the store queue).
    DescTryConsume {
        /// Destination.
        rd: Reg,
        /// Queue index.
        q: u8,
    },
    /// DeSC terminal load: load `[base + offset]` *without blocking* and
    /// deliver the value into queue `q` in program order (the Supply core's
    /// early-commit side structure).
    DescProduceLoad {
        /// Queue index.
        q: u8,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        size: u8,
    },
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inst::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Alu { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}").map(|()| ()),
            Inst::Ld {
                rd,
                base,
                offset,
                size,
                class,
            } => {
                let suffix = match class {
                    LdClass::Normal => "",
                    LdClass::Volatile => ".v",
                };
                write!(f, "ld{size}{suffix} {rd}, {offset}({base})")
            }
            Inst::St {
                rs,
                base,
                offset,
                size,
            } => write!(f, "st{size} {rs}, {offset}({base})"),
            Inst::Amo {
                op,
                rd,
                base,
                offset,
                size,
                rs,
                ..
            } => write!(f, "amo.{op:?}{size} {rd}, {rs}, {offset}({base})"),
            Inst::Prefetch { base, offset } => write!(f, "prefetch {offset}({base})"),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "b{cond:?} {rs1}, {rs2} -> @{target}"),
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::DescProduce { q, rs } => write!(f, "desc.produce q{q}, {rs}"),
            Inst::DescConsume { rd, q } => write!(f, "desc.consume {rd}, q{q}"),
            Inst::DescTryConsume { rd, q } => write!(f, "desc.try_consume {rd}, q{q}"),
            Inst::DescProduceLoad {
                q,
                base,
                offset,
                size,
            } => write!(f, "desc.produce_ld{size} q{q}, {offset}({base})"),
        }
    }
}

impl Inst {
    /// Whether this instruction reads or writes memory.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Inst::Ld { .. }
                | Inst::St { .. }
                | Inst::Amo { .. }
                | Inst::Prefetch { .. }
                | Inst::DescProduceLoad { .. }
        )
    }

    /// Whether this instruction counts as a load in the performance
    /// counters (Figure 10 counts these).
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Ld { .. })
    }
}

/// A complete program: a linear instruction sequence with resolved branch
/// targets, starting at index 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Wraps a raw instruction vector.
    ///
    /// # Panics
    ///
    /// Panics if any branch target is out of range (a builder bug).
    #[must_use]
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        for (i, inst) in insts.iter().enumerate() {
            if let Inst::Branch { target, .. } | Inst::Jump { target } = inst {
                assert!(
                    *target < insts.len(),
                    "instruction {i} targets out-of-range index {target}"
                );
            }
        }
        Program { insts }
    }

    /// The instruction at `pc`, or `None` past the end.
    #[must_use]
    pub fn fetch(&self, pc: usize) -> Option<&Inst> {
        self.insts.get(pc)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// A human-readable disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(s, "{i:5}: {inst}");
        }
        s
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Inst;
    type IntoIter = std::slice::Iter<'a, Inst>;
    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.apply(4, 5), 20);
        assert_eq!(AluOp::Sll.apply(1, 3), 8);
        assert_eq!(AluOp::Srl.apply(8, 3), 1);
        assert_eq!(AluOp::SltU.apply(1, 2), 1);
        assert_eq!(AluOp::SltU.apply(2, 1), 0);
        assert_eq!(AluOp::MinU.apply(7, 3), 3);
        assert_eq!(AluOp::MaxU.apply(7, 3), 7);
        assert_eq!(AluOp::And.apply(0b110, 0b011), 0b010);
        assert_eq!(AluOp::Or.apply(0b110, 0b011), 0b111);
        assert_eq!(AluOp::Xor.apply(0b110, 0b011), 0b101);
    }

    #[test]
    fn mul_has_longer_latency() {
        assert_eq!(AluOp::Mul.latency(), 3);
        assert_eq!(AluOp::Add.latency(), 1);
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::LtU.eval(5, 6));
        assert!(Cond::GeU.eval(6, 6));
        assert!(!Cond::LtU.eval(6, 5));
    }

    #[test]
    fn shift_masks_amount() {
        assert_eq!(AluOp::Sll.apply(1, 64), 1, "shift amount wraps at 64");
    }

    #[test]
    fn program_validates_targets() {
        let p = Program::from_insts(vec![Inst::Jump { target: 1 }, Inst::Halt]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.fetch(1), Some(&Inst::Halt));
        assert_eq!(p.fetch(2), None);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn program_rejects_bad_target() {
        let _ = Program::from_insts(vec![Inst::Jump { target: 5 }]);
    }

    #[test]
    fn classification() {
        let ld = Inst::Ld {
            rd: Reg(1),
            base: Reg(2),
            offset: 0,
            size: 8,
            class: LdClass::Normal,
        };
        assert!(ld.is_memory());
        assert!(ld.is_load());
        assert!(!Inst::Nop.is_memory());
        let pf = Inst::Prefetch {
            base: Reg(1),
            offset: 0,
        };
        assert!(pf.is_memory());
        assert!(!pf.is_load());
    }

    #[test]
    fn disassembly_is_nonempty_and_indexed() {
        let p = Program::from_insts(vec![
            Inst::Li { rd: Reg(1), imm: 9 },
            Inst::Halt,
        ]);
        let d = p.disassemble();
        assert!(d.contains("0: li r1, 9"));
        assert!(d.contains("1: halt"));
    }

    #[test]
    fn operand_conversions() {
        let o: Operand = Reg(3).into();
        assert_eq!(o, Operand::Reg(Reg(3)));
        let o: Operand = 7i64.into();
        assert_eq!(o, Operand::Imm(7));
        assert_eq!(Operand::Imm(-2).to_string(), "-2");
        assert_eq!(Operand::Reg(Reg(4)).to_string(), "r4");
    }
}
