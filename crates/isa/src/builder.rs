//! Program construction with labels and named registers.
//!
//! The builder is the workspace's "assembler": workload kernels and the
//! decoupling compiler emit instructions through it, and it resolves
//! forward branches at [`ProgramBuilder::build`] time. Compound helpers
//! such as [`ProgramBuilder::load_indexed`] expand to the same address
//! arithmetic a compiler would emit, so instruction-count comparisons
//! (Figure 10's software-prefetch overhead) are honest.

use crate::{AluOp, AtomicOp, Cond, Inst, LdClass, Operand, Program, Reg, NUM_REGS, ZERO};

/// A branch target, created by [`ProgramBuilder::label`] and positioned by
/// [`ProgramBuilder::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Error returned by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced but never bound to a position.
    UnboundLabel(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnboundLabel(name) => write!(f, "label `{name}` was never bound"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental program builder. See the crate docs for an example.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    label_pos: Vec<Option<usize>>,
    label_names: Vec<String>,
    /// (instruction index, label) pairs to patch at build time.
    fixups: Vec<(usize, Label)>,
    next_reg: u8,
}

impl ProgramBuilder {
    /// Creates an empty builder. Register 0 is reserved as the zero
    /// register.
    #[must_use]
    pub fn new() -> Self {
        ProgramBuilder {
            insts: Vec::new(),
            label_pos: Vec::new(),
            label_names: Vec::new(),
            fixups: Vec::new(),
            next_reg: 1,
        }
    }

    /// Allocates a fresh register. The name is used in panics only.
    ///
    /// # Panics
    ///
    /// Panics when all registers are in use.
    pub fn reg(&mut self, name: &str) -> Reg {
        assert!(
            (self.next_reg as usize) < NUM_REGS,
            "out of registers allocating `{name}`"
        );
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// The zero register.
    #[must_use]
    pub fn zero(&self) -> Reg {
        ZERO
    }

    /// Creates a label to be bound later.
    pub fn label(&mut self, name: &str) -> Label {
        self.label_pos.push(None);
        self.label_names.push(name.to_owned());
        Label(self.label_pos.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.label_pos[label.0].is_none(),
            "label `{}` bound twice",
            self.label_names[label.0]
        );
        self.label_pos[label.0] = Some(self.insts.len());
    }

    /// Creates a label bound to the current position.
    pub fn here(&mut self, name: &str) -> Label {
        let l = self.label(name);
        self.bind(l);
        l
    }

    /// Current instruction count (useful for size assertions in tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instructions have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    // --- basic emitters -------------------------------------------------

    /// `rd = imm`
    pub fn li(&mut self, rd: Reg, imm: u64) {
        self.insts.push(Inst::Li { rd, imm });
    }

    /// `rd = rs`
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.alu(AluOp::Add, rd, rs, Operand::Imm(0));
    }

    /// Generic ALU emitter.
    pub fn alu(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: impl Into<Operand>) {
        self.insts.push(Inst::Alu {
            op,
            rd,
            rs1,
            rs2: rs2.into(),
        });
    }

    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Operand>) {
        self.alu(AluOp::Add, rd, rs1, rs2);
    }

    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i64) {
        self.alu(AluOp::Add, rd, rs1, Operand::Imm(imm));
    }

    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Operand>) {
        self.alu(AluOp::Sub, rd, rs1, rs2);
    }

    /// `rd = rs1 * rs2`
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: impl Into<Operand>) {
        self.alu(AluOp::Mul, rd, rs1, rs2);
    }

    /// `rd = rs1 << shamt`
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: i64) {
        self.alu(AluOp::Sll, rd, rs1, Operand::Imm(shamt));
    }

    /// Cacheable load.
    pub fn ld(&mut self, rd: Reg, base: Reg, offset: i64, size: u8) {
        self.insts.push(Inst::Ld {
            rd,
            base,
            offset,
            size,
            class: LdClass::Normal,
        });
    }

    /// Volatile (coherence-point) load.
    pub fn ld_volatile(&mut self, rd: Reg, base: Reg, offset: i64, size: u8) {
        self.insts.push(Inst::Ld {
            rd,
            base,
            offset,
            size,
            class: LdClass::Volatile,
        });
    }

    /// Store.
    pub fn st(&mut self, rs: Reg, base: Reg, offset: i64, size: u8) {
        self.insts.push(Inst::St {
            rs,
            base,
            offset,
            size,
        });
    }

    /// Atomic; `rd` receives the old value. For [`AtomicOp::Cas`], `rs` is
    /// the new value and `rs2` the expected value.
    #[allow(clippy::too_many_arguments)]
    pub fn amo(
        &mut self,
        op: AtomicOp,
        rd: Reg,
        base: Reg,
        offset: i64,
        size: u8,
        rs: Reg,
        rs2: Reg,
    ) {
        self.insts.push(Inst::Amo {
            op,
            rd,
            base,
            offset,
            size,
            rs,
            rs2,
        });
    }

    /// Software prefetch into the L1.
    pub fn prefetch(&mut self, base: Reg, offset: i64) {
        self.insts.push(Inst::Prefetch { base, offset });
    }

    /// Conditional branch.
    pub fn br(&mut self, cond: Cond, rs1: Reg, rs2: impl Into<Operand>, target: Label) {
        self.fixups.push((self.insts.len(), target));
        self.insts.push(Inst::Branch {
            cond,
            rs1,
            rs2: rs2.into(),
            target: usize::MAX,
        });
    }

    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: impl Into<Operand>, target: Label) {
        self.br(Cond::Eq, rs1, rs2, target);
    }

    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: impl Into<Operand>, target: Label) {
        self.br(Cond::Ne, rs1, rs2, target);
    }

    /// Branch if unsigned less-than.
    pub fn blt(&mut self, rs1: Reg, rs2: impl Into<Operand>, target: Label) {
        self.br(Cond::LtU, rs1, rs2, target);
    }

    /// Branch if unsigned greater-or-equal.
    pub fn bge(&mut self, rs1: Reg, rs2: impl Into<Operand>, target: Label) {
        self.br(Cond::GeU, rs1, rs2, target);
    }

    /// Unconditional jump.
    pub fn jump(&mut self, target: Label) {
        self.fixups.push((self.insts.len(), target));
        self.insts.push(Inst::Jump { target: usize::MAX });
    }

    /// One-cycle no-op.
    pub fn nop(&mut self) {
        self.insts.push(Inst::Nop);
    }

    /// Stop the thread.
    pub fn halt(&mut self) {
        self.insts.push(Inst::Halt);
    }

    // --- compound helpers (expand to real instructions) ------------------

    /// `tmp = base + (idx << scale)` — the address arithmetic for
    /// `base[idx]` with `1 << scale`-byte elements.
    pub fn index_addr(&mut self, tmp: Reg, base: Reg, idx: Reg, scale: i64) {
        self.slli(tmp, idx, scale);
        self.add(tmp, tmp, base);
    }

    /// `rd = base[idx]` for `1 << scale`-byte elements, via `tmp`.
    /// Expands to three instructions (shift, add, load).
    #[allow(clippy::too_many_arguments)]
    pub fn load_indexed(&mut self, rd: Reg, base: Reg, idx: Reg, scale: i64, size: u8, tmp: Reg) {
        self.index_addr(tmp, base, idx, scale);
        self.ld(rd, tmp, 0, size);
    }

    /// `base[idx] = rs` for `1 << scale`-byte elements, via `tmp`.
    #[allow(clippy::too_many_arguments)]
    pub fn store_indexed(&mut self, rs: Reg, base: Reg, idx: Reg, scale: i64, size: u8, tmp: Reg) {
        self.index_addr(tmp, base, idx, scale);
        self.st(rs, tmp, 0, size);
    }

    // --- DeSC baseline extension -----------------------------------------

    /// DeSC: enqueue `rs` into coupled queue `q`.
    pub fn desc_produce(&mut self, q: u8, rs: Reg) {
        self.insts.push(Inst::DescProduce { q, rs });
    }

    /// DeSC: dequeue from coupled queue `q` into `rd`.
    pub fn desc_consume(&mut self, rd: Reg, q: u8) {
        self.insts.push(Inst::DescConsume { rd, q });
    }

    /// DeSC: non-blocking dequeue (`u64::MAX` when empty).
    pub fn desc_try_consume(&mut self, rd: Reg, q: u8) {
        self.insts.push(Inst::DescTryConsume { rd, q });
    }

    /// DeSC terminal load into queue `q`.
    pub fn desc_produce_load(&mut self, q: u8, base: Reg, offset: i64, size: u8) {
        self.insts.push(Inst::DescProduceLoad {
            q,
            base,
            offset,
            size,
        });
    }

    /// Finishes the program, resolving all branch targets.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if any referenced label was
    /// never bound.
    pub fn build(mut self) -> Result<Program, BuildError> {
        for (idx, label) in &self.fixups {
            let pos = self.label_pos[label.0]
                .ok_or_else(|| BuildError::UnboundLabel(self.label_names[label.0].clone()))?;
            match &mut self.insts[*idx] {
                Inst::Branch { target, .. } | Inst::Jump { target } => *target = pos,
                other => unreachable!("fixup points at non-branch {other:?}"),
            }
        }
        Ok(Program::from_insts(self.insts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let i = b.reg("i");
        let n = b.reg("n");
        b.li(i, 0);
        b.li(n, 10);
        let top = b.here("top");
        let done = b.label("done");
        b.bge(i, n, done); // forward
        b.addi(i, i, 1);
        b.jump(top); // backward
        b.bind(done);
        b.halt();
        let p = b.build().unwrap();
        // bge at index 2 targets halt at index 5; jump at 4 targets 2.
        assert_eq!(
            p.fetch(2),
            Some(&Inst::Branch {
                cond: Cond::GeU,
                rs1: Reg(1),
                rs2: Operand::Reg(Reg(2)),
                target: 5,
            })
        );
        assert_eq!(p.fetch(4), Some(&Inst::Jump { target: 2 }));
    }

    #[test]
    fn unbound_label_errors() {
        let mut b = ProgramBuilder::new();
        let l = b.label("nowhere");
        b.jump(l);
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::UnboundLabel("nowhere".into()));
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label("l");
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn register_allocation_is_fresh() {
        let mut b = ProgramBuilder::new();
        let a = b.reg("a");
        let c = b.reg("c");
        assert_ne!(a, c);
        assert_ne!(a, b.zero());
    }

    #[test]
    #[should_panic(expected = "out of registers")]
    fn register_exhaustion_panics() {
        let mut b = ProgramBuilder::new();
        for i in 0..NUM_REGS {
            let _ = b.reg(&format!("r{i}"));
        }
    }

    #[test]
    fn compound_helpers_expand_honestly() {
        let mut b = ProgramBuilder::new();
        let rd = b.reg("rd");
        let base = b.reg("base");
        let idx = b.reg("idx");
        let tmp = b.reg("tmp");
        b.load_indexed(rd, base, idx, 3, 8, tmp);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 4, "shift + add + load + halt");
    }

    #[test]
    fn mv_is_add_zero_imm() {
        let mut b = ProgramBuilder::new();
        let a = b.reg("a");
        let c = b.reg("c");
        b.mv(a, c);
        let p = b.build().unwrap();
        assert_eq!(
            p.fetch(0),
            Some(&Inst::Alu {
                op: AluOp::Add,
                rd: a,
                rs1: c,
                rs2: Operand::Imm(0)
            })
        );
    }

    #[test]
    fn empty_builder_builds_empty_program() {
        let b = ProgramBuilder::new();
        assert!(b.is_empty());
        let p = b.build().unwrap();
        assert!(p.is_empty());
    }
}
