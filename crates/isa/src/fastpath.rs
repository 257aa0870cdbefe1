//! Straight-line micro-op runs: the decode layer of the compiled core
//! fast-path (DESIGN.md §12).
//!
//! Between two events that can touch shared state — a memory access, an
//! MMIO transaction, a DeSC queue operation, a branch, or a halt — an
//! in-order core's behaviour is fully determined by its private register
//! file. This module pre-decodes those compute-bounded stretches into
//! [`Run`]s of [`MicroOp`]s so the core can execute an entire stretch in
//! one `tick` call with cycle accounting applied in bulk, the compute-side
//! dual of the event-horizon stall skipping in `System::run`.
//!
//! **Run-eligible** instructions are exactly [`Inst::Li`], [`Inst::Alu`]
//! and [`Inst::Nop`]: they read and write only core-private architectural
//! registers and carry a static latency. Every other instruction class
//! **terminates** a run and is left to the interpreter: memory ops
//! ([`Inst::Ld`]/[`Inst::St`]/[`Inst::Amo`]/[`Inst::Prefetch`]), DeSC
//! queue ops ([`Inst::DescProduce`]/[`Inst::DescConsume`]/
//! [`Inst::DescTryConsume`]/[`Inst::DescProduceLoad`]), control flow
//! ([`Inst::Branch`]/[`Inst::Jump`]) and [`Inst::Halt`].
//!
//! The [`BlockCache`] memoizes runs per start-pc and is keyed on a
//! structural fingerprint of the whole program: rebinding the same cache
//! to a different program (or a program edited in place) invalidates every
//! memoized run. Lookups on ineligible pcs are memoized too, so the
//! decode cost of a taken branch target is paid once, not per visit.

use crate::{AluOp, Inst, Operand, Program, Reg};

/// Upper bound on the number of micro-ops in one run.
///
/// A cap keeps worst-case memoization memory linear-ish for pathological
/// straight-line programs (every pc can start a run, and uncapped runs
/// overlap quadratically). Splitting a run at the cap is timing-neutral:
/// the follow-on run begins exactly at the cycle the capped run retires.
pub const MAX_RUN_LEN: usize = 1024;

/// One pre-decoded compute micro-op. Fields are public so the executing
/// core can apply them directly to its register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Load immediate (`rd <- imm`), 1 cycle.
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// Register-register ALU op (`rd <- op(rs1, rs2)`).
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// Register-immediate ALU op (`rd <- op(rs1, imm)`).
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Immediate operand (the sign-extended `i64` reinterpreted as the
        /// `u64` the ALU consumes, matching the interpreter).
        imm: u64,
    },
    /// No operation, 1 cycle.
    Nop,
}

impl MicroOp {
    /// Issue-to-issue latency of this micro-op on the in-order core —
    /// identical to what the interpreter charges for the source
    /// instruction.
    #[must_use]
    pub fn latency(self) -> u64 {
        match self {
            MicroOp::Li { .. } | MicroOp::Nop => 1,
            MicroOp::AluRR { op, .. } | MicroOp::AluRI { op, .. } => op.latency(),
        }
    }

    /// Decodes a run-eligible instruction, or `None` for a run terminator.
    #[must_use]
    pub fn decode(inst: &Inst) -> Option<MicroOp> {
        match *inst {
            Inst::Li { rd, imm } => Some(MicroOp::Li { rd, imm }),
            Inst::Alu { op, rd, rs1, rs2 } => Some(match rs2 {
                Operand::Reg(rs2) => MicroOp::AluRR { op, rd, rs1, rs2 },
                #[allow(clippy::cast_sign_loss)]
                Operand::Imm(v) => MicroOp::AluRI {
                    op,
                    rd,
                    rs1,
                    imm: v as u64,
                },
            }),
            Inst::Nop => Some(MicroOp::Nop),
            _ => None,
        }
    }
}

/// A maximal (cap-bounded) straight-line stretch of run-eligible
/// micro-ops starting at some pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    ops: Vec<MicroOp>,
    cycles: u64,
}

impl Run {
    /// The micro-ops, in program order.
    #[must_use]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of micro-ops in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the run is empty (never memoized; see [`BlockCache`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total cycle cost of the run: the sum of every micro-op's latency.
    /// Executing the run at cycle `c` leaves the core next ready at
    /// `c + cycles()` — the bulk cycle-accounting identity of DESIGN.md
    /// §12c.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// Per-pc memoization slot.
#[derive(Debug, Clone)]
enum Slot {
    /// Not decoded yet.
    Unknown,
    /// The instruction at this pc terminates a run (or the pc is past the
    /// end): there is nothing to batch here.
    Terminal,
    /// A memoized run of at least one micro-op.
    Cached(Run),
}

/// Per-core lazy cache of decoded [`Run`]s, keyed by a structural
/// fingerprint of the bound [`Program`].
///
/// The cache starts unbound; the first [`BlockCache::run_for`] call binds
/// it to the program's `(len, fingerprint)` key. A later call with a
/// program whose key differs — a different program object, or the same
/// slot reloaded with new code — clears every memoized slot and rebinds,
/// so stale runs can never execute (the "self-modifying config" edge in
/// DESIGN.md §12a).
///
/// Re-validation is O(1) on the hot path: alongside the structural key
/// the cache remembers the bound program's instruction-buffer address and
/// length, and a lookup whose program matches both skips the fingerprint
/// entirely. [`Program`] is immutable and a core owns its program for its
/// whole lifetime, so address + length equality implies structural
/// identity while the bound program is alive; callers that drop the bound
/// program and want to reuse the cache across allocations should start
/// from a fresh cache. The address is stored as a `usize`, never a
/// pointer — the cache must stay `Send` (whole systems, cores included,
/// run on the fleet pool's worker threads) and is never dereferenced
/// through it.
#[derive(Debug, Clone, Default)]
pub struct BlockCache {
    key: Option<(usize, u64)>,
    /// `(buffer address, len)` of the program the key was computed from.
    bound: (usize, usize),
    slots: Vec<Slot>,
}

impl BlockCache {
    /// An empty, unbound cache.
    #[must_use]
    pub fn new() -> Self {
        BlockCache::default()
    }

    /// The run starting at `pc`, decoding and memoizing on first use.
    ///
    /// Returns `None` when the instruction at `pc` terminates a run
    /// (memory/MMIO/queue op, branch, jump, halt) or `pc` is past the end
    /// of the program — the interpreter path handles those.
    pub fn run_for(&mut self, program: &Program, pc: usize) -> Option<&Run> {
        let bound = (program.insts.as_ptr() as usize, program.len());
        if self.key.is_none() || self.bound != bound {
            let key = (program.len(), fingerprint(program));
            if self.key != Some(key) {
                self.key = Some(key);
                self.slots.clear();
                self.slots.resize(program.len(), Slot::Unknown);
            }
            self.bound = bound;
        }
        if pc >= self.slots.len() {
            return None;
        }
        if matches!(self.slots[pc], Slot::Unknown) {
            self.slots[pc] = decode_run(program, pc);
        }
        match &self.slots[pc] {
            Slot::Cached(run) => Some(run),
            _ => None,
        }
    }

    /// Number of memoized (non-empty) runs — exposed for tests.
    #[must_use]
    pub fn cached_runs(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Cached(_)))
            .count()
    }
}

/// Decodes the maximal run starting at `pc` (bounded by [`MAX_RUN_LEN`]).
fn decode_run(program: &Program, pc: usize) -> Slot {
    let mut ops = Vec::new();
    let mut cycles = 0u64;
    while ops.len() < MAX_RUN_LEN {
        let Some(inst) = program.fetch(pc + ops.len()) else {
            break;
        };
        let Some(op) = MicroOp::decode(inst) else {
            break;
        };
        cycles += op.latency();
        ops.push(op);
    }
    if ops.is_empty() {
        Slot::Terminal
    } else {
        ops.shrink_to_fit();
        Slot::Cached(Run { ops, cycles })
    }
}

/// Structural FNV-1a fingerprint of a program: every instruction's
/// discriminant and every field participates, so any in-place edit —
/// changed immediate, retargeted branch, swapped register — changes the
/// key. This doubles as the §12a block-cache keying spec: two programs
/// share cached runs iff they are structurally identical.
#[must_use]
pub fn fingerprint(program: &Program) -> u64 {
    let mut h = Fnv::new();
    h.u64(program.len() as u64);
    for inst in program {
        hash_inst(&mut h, inst);
    }
    h.finish()
}

#[allow(clippy::cast_sign_loss)]
fn hash_inst(h: &mut Fnv, inst: &Inst) {
    match *inst {
        Inst::Li { rd, imm } => {
            h.u64(0);
            h.u64(u64::from(rd.0));
            h.u64(imm);
        }
        Inst::Alu { op, rd, rs1, rs2 } => {
            h.u64(1);
            h.u64(op as u64);
            h.u64(u64::from(rd.0));
            h.u64(u64::from(rs1.0));
            match rs2 {
                Operand::Reg(r) => {
                    h.u64(0);
                    h.u64(u64::from(r.0));
                }
                Operand::Imm(v) => {
                    h.u64(1);
                    h.u64(v as u64);
                }
            }
        }
        Inst::Ld {
            rd,
            base,
            offset,
            size,
            class,
        } => {
            h.u64(2);
            h.u64(u64::from(rd.0));
            h.u64(u64::from(base.0));
            h.u64(offset as u64);
            h.u64(u64::from(size));
            h.u64(class as u64);
        }
        Inst::St {
            rs,
            base,
            offset,
            size,
        } => {
            h.u64(3);
            h.u64(u64::from(rs.0));
            h.u64(u64::from(base.0));
            h.u64(offset as u64);
            h.u64(u64::from(size));
        }
        Inst::Amo {
            op,
            rd,
            base,
            offset,
            size,
            rs,
            rs2,
        } => {
            h.u64(4);
            h.u64(op as u64);
            h.u64(u64::from(rd.0));
            h.u64(u64::from(base.0));
            h.u64(offset as u64);
            h.u64(u64::from(size));
            h.u64(u64::from(rs.0));
            h.u64(u64::from(rs2.0));
        }
        Inst::Prefetch { base, offset } => {
            h.u64(5);
            h.u64(u64::from(base.0));
            h.u64(offset as u64);
        }
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            h.u64(6);
            h.u64(cond as u64);
            h.u64(u64::from(rs1.0));
            match rs2 {
                Operand::Reg(r) => {
                    h.u64(0);
                    h.u64(u64::from(r.0));
                }
                Operand::Imm(v) => {
                    h.u64(1);
                    h.u64(v as u64);
                }
            }
            h.u64(target as u64);
        }
        Inst::Jump { target } => {
            h.u64(7);
            h.u64(target as u64);
        }
        Inst::Nop => h.u64(8),
        Inst::Halt => h.u64(9),
        Inst::DescProduce { q, rs } => {
            h.u64(10);
            h.u64(u64::from(q));
            h.u64(u64::from(rs.0));
        }
        Inst::DescConsume { rd, q } => {
            h.u64(11);
            h.u64(u64::from(rd.0));
            h.u64(u64::from(q));
        }
        Inst::DescTryConsume { rd, q } => {
            h.u64(12);
            h.u64(u64::from(rd.0));
            h.u64(u64::from(q));
        }
        Inst::DescProduceLoad {
            q,
            base,
            offset,
            size,
        } => {
            h.u64(13);
            h.u64(u64::from(q));
            h.u64(u64::from(base.0));
            h.u64(offset as u64);
            h.u64(u64::from(size));
        }
    }
}

/// Minimal FNV-1a 64-bit hasher (the workspace is hermetic: no external
/// hash crates).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn compute_then_halt() -> Program {
        let mut b = ProgramBuilder::new();
        let x = b.reg("x");
        let y = b.reg("y");
        b.li(x, 5);
        b.addi(x, x, 1);
        b.add(y, x, x);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn decodes_maximal_run() {
        let p = compute_then_halt();
        let mut cache = BlockCache::new();
        let run = cache.run_for(&p, 0).expect("run at pc 0");
        assert_eq!(run.len(), 3, "li + addi + add, halt terminates");
        assert_eq!(run.cycles(), 3, "three 1-cycle ops");
        assert!(!run.is_empty());
    }

    #[test]
    fn terminators_yield_no_run() {
        let p = compute_then_halt();
        let mut cache = BlockCache::new();
        assert!(cache.run_for(&p, 3).is_none(), "halt is a terminator");
        assert!(cache.run_for(&p, 99).is_none(), "past the end");
        // Memoized terminal slots do not count as cached runs.
        assert_eq!(cache.cached_runs(), 0);
    }

    #[test]
    fn mul_latency_is_charged() {
        let p = Program::from_insts(vec![
            Inst::Alu {
                op: AluOp::Mul,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Operand::Imm(3),
            },
            Inst::Nop,
            Inst::Halt,
        ]);
        let mut cache = BlockCache::new();
        let run = cache.run_for(&p, 0).unwrap();
        assert_eq!(run.len(), 2);
        assert_eq!(run.cycles(), AluOp::Mul.latency() + 1);
    }

    #[test]
    fn memoizes_per_pc() {
        let p = compute_then_halt();
        let mut cache = BlockCache::new();
        let a = cache.run_for(&p, 0).unwrap().clone();
        let b = cache.run_for(&p, 0).unwrap().clone();
        assert_eq!(a, b);
        assert_eq!(cache.cached_runs(), 1);
        // A mid-run entry point (e.g. a branch target) gets its own run.
        let mid = cache.run_for(&p, 1).unwrap();
        assert_eq!(mid.len(), 2);
        assert_eq!(cache.cached_runs(), 2);
    }

    #[test]
    fn rebind_invalidates_stale_runs() {
        let p1 = compute_then_halt();
        let p2 = Program::from_insts(vec![Inst::Nop, Inst::Halt]);
        let mut cache = BlockCache::new();
        assert_eq!(cache.run_for(&p1, 0).unwrap().len(), 3);
        // Same cache, different program: the old run must not leak.
        assert_eq!(cache.run_for(&p2, 0).unwrap().len(), 1);
        assert_eq!(cache.cached_runs(), 1, "p1's runs were dropped");
        // And back again — re-decoded from scratch, same result.
        assert_eq!(cache.run_for(&p1, 0).unwrap().len(), 3);
    }

    #[test]
    fn alternating_programs_rebind_every_switch() {
        // Two structurally different programs of different lengths bounce
        // through one cache: every switch must re-validate (the addresses
        // differ, so the O(1) bound check falls through to the
        // fingerprint) and the right runs must come back each time.
        let p1 = compute_then_halt();
        let p2 = Program::from_insts(vec![Inst::Nop, Inst::Nop, Inst::Halt]);
        let mut cache = BlockCache::new();
        for _ in 0..4 {
            assert_eq!(cache.run_for(&p1, 0).unwrap().len(), 3);
            assert_eq!(cache.run_for(&p2, 0).unwrap().len(), 2);
        }
        assert_eq!(cache.cached_runs(), 1, "only p2's run survives");
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let base = compute_then_halt();
        let fp = fingerprint(&base);
        // Change one immediate deep in an instruction.
        let mut edited: Vec<Inst> = base.iter().copied().collect();
        edited[0] = Inst::Li { rd: Reg(1), imm: 6 };
        assert_ne!(fp, fingerprint(&Program::from_insts(edited)));
        // Same instruction count, different discriminant.
        let mut swapped: Vec<Inst> = base.iter().copied().collect();
        swapped[3] = Inst::Nop;
        assert_ne!(fp, fingerprint(&Program::from_insts(swapped)));
        // Identity: structurally equal programs share the key.
        assert_eq!(fp, fingerprint(&compute_then_halt()));
    }

    #[test]
    fn run_cap_splits_long_blocks() {
        let insts: Vec<Inst> = std::iter::repeat_n(Inst::Nop, MAX_RUN_LEN + 10)
            .chain(std::iter::once(Inst::Halt))
            .collect();
        let p = Program::from_insts(insts);
        let mut cache = BlockCache::new();
        let head = cache.run_for(&p, 0).unwrap();
        assert_eq!(head.len(), MAX_RUN_LEN);
        let head_cycles = head.cycles();
        let tail = cache.run_for(&p, MAX_RUN_LEN).unwrap();
        assert_eq!(tail.len(), 10);
        // Cap-splitting is timing-neutral: the two runs together cost
        // exactly what one uncapped run would.
        assert_eq!(head_cycles + tail.cycles(), (MAX_RUN_LEN + 10) as u64);
    }

    #[test]
    fn imm_operand_matches_interpreter_cast() {
        // The interpreter reads Operand::Imm(v) as `v as u64`; the decoder
        // must bake the identical bit pattern.
        let p = Program::from_insts(vec![
            Inst::Alu {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Operand::Imm(-1),
            },
            Inst::Halt,
        ]);
        let mut cache = BlockCache::new();
        let run = cache.run_for(&p, 0).unwrap();
        assert_eq!(
            run.ops()[0],
            MicroOp::AluRI {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(1),
                imm: u64::MAX,
            }
        );
    }
}
