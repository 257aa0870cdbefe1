//! Property test: the core's functional interpretation of straight-line
//! ALU programs matches a host-side model exactly, for random programs.

#![allow(clippy::explicit_counter_loop)]

use maple_cpu::{Core, CpuConfig};
use maple_isa::builder::ProgramBuilder;
use maple_isa::{AluOp, Operand, Program, Reg};
use maple_mem::phys::{PAddr, PhysMem};
use maple_sim::Cycle;
use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen, SimRng};
use maple_vm::page_table::{FrameAllocator, PageTable};

const WORK_REGS: u8 = 6;

const OPS: [AluOp; 11] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::SltU,
    AluOp::MinU,
    AluOp::MaxU,
];

#[derive(Debug, Clone, Copy)]
struct RandInst {
    op: AluOp,
    rd: u8,
    rs1: u8,
    rs2_reg: bool,
    rs2: u8,
    imm: i64,
}

/// Generates one random instruction; shrinks the opcode toward `Add`, the
/// immediate toward zero, and register numbers toward r1.
struct InstGen;

impl Gen for InstGen {
    type Value = RandInst;

    fn generate(&self, rng: &mut SimRng) -> RandInst {
        RandInst {
            op: OPS[rng.below(OPS.len() as u64) as usize],
            rd: 1 + rng.below(u64::from(WORK_REGS)) as u8,
            rs1: 1 + rng.below(u64::from(WORK_REGS)) as u8,
            rs2_reg: rng.chance(0.5),
            rs2: 1 + rng.below(u64::from(WORK_REGS)) as u8,
            imm: rng.range(0, 128) as i64 - 64,
        }
    }

    fn shrink(&self, i: &RandInst) -> Vec<RandInst> {
        let mut out = Vec::new();
        if i.op != AluOp::Add {
            out.push(RandInst { op: AluOp::Add, ..*i });
        }
        for imm in gen::shrink_i64_toward(i.imm, 0).into_iter().take(3) {
            out.push(RandInst { imm, ..*i });
        }
        for (field, get) in [(0u8, i.rd), (1, i.rs1), (2, i.rs2)] {
            if get > 1 {
                let mut next = *i;
                match field {
                    0 => next.rd = 1,
                    1 => next.rs1 = 1,
                    _ => next.rs2 = 1,
                }
                out.push(next);
            }
        }
        if i.rs2_reg {
            out.push(RandInst { rs2_reg: false, ..*i });
        }
        out
    }
}

fn build(seeds: &[u64], insts: &[RandInst]) -> Program {
    let mut b = ProgramBuilder::new();
    let regs: Vec<Reg> = (0..WORK_REGS).map(|i| b.reg(&format!("r{i}"))).collect();
    for (r, &s) in regs.iter().zip(seeds) {
        b.li(*r, s);
    }
    for i in insts {
        let rs2 = if i.rs2_reg {
            Operand::Reg(regs[usize::from(i.rs2 - 1)])
        } else {
            Operand::Imm(i.imm)
        };
        b.alu(i.op, regs[usize::from(i.rd - 1)], regs[usize::from(i.rs1 - 1)], rs2);
    }
    b.halt();
    b.build().expect("random straight-line program builds")
}

fn model(seeds: &[u64], insts: &[RandInst]) -> Vec<u64> {
    let mut r: Vec<u64> = seeds.to_vec();
    for i in insts {
        let a = r[usize::from(i.rs1 - 1)];
        let b = if i.rs2_reg {
            r[usize::from(i.rs2 - 1)]
        } else {
            i.imm as u64
        };
        r[usize::from(i.rd - 1)] = i.op.apply(a, b);
    }
    r
}

#[test]
fn core_matches_host_model() {
    let inputs = (
        gen::vec_of(gen::u64_any(), WORK_REGS as usize, WORK_REGS as usize),
        gen::vec_of(InstGen, 0, 60),
    );
    check(&Config::new("core_matches_host_model"), &inputs, |(seeds, insts)| {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(PAddr(0x100_0000), 4 << 20);
        let pt = PageTable::new(&mut mem, &mut frames);
        let mut core = Core::new(0, CpuConfig::default(), build(seeds, insts), pt);
        let mut now = Cycle::ZERO;
        let mut stage = maple_mem::WriteStage::new();
        for _ in 0..(insts.len() * 8 + 100) {
            core.tick(now, &mem, &mut stage, None);
            stage.apply(&mut mem);
            if core.is_halted() {
                break;
            }
            now += 1;
        }
        tk_assert!(core.is_halted(), "ALU program must halt");
        let expect = model(seeds, insts);
        for (i, e) in expect.iter().enumerate() {
            // Builder allocates work registers starting at r1.
            tk_assert_eq!(core.reg(Reg(i as u8 + 1)), *e, "register {i}");
        }
        // Instruction count: seeds + insts + halt.
        tk_assert_eq!(
            core.stats().instructions.get(),
            (seeds.len() + insts.len() + 1) as u64
        );
        Ok(())
    });
}
