//! Property test: a full L1 + L2 + DRAM stack, driven with random loads
//! and stores, always returns the values a simple memory model predicts
//! (read-your-writes, arbitrary hit/miss interleavings, MSHR merging).

#![allow(clippy::explicit_counter_loop)]

use maple_mem::dram::DramConfig;
use maple_mem::l1::{CoreOp, CoreReq, L1Cache, L1Config};
use maple_mem::l2::{L2Config, SharedL2};
use maple_mem::phys::{PAddr, PhysMem, WriteStage};
use maple_sim::Cycle;
use maple_testkit::{check, gen, tk_assert, Config, Gen, SimRng};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
enum MemOp {
    Load(u64),
    Store(u64, u64),
    VolatileLoad(u64),
    Prefetch(u64),
}

impl MemOp {
    fn addr(self) -> u64 {
        match self {
            MemOp::Load(a) | MemOp::VolatileLoad(a) | MemOp::Prefetch(a) | MemOp::Store(a, _) => a,
        }
    }
}

/// Generates 8-byte-aligned traffic over a small (16 KiB) window to force
/// aliasing, eviction and MSHR merging. Shrinks by demoting every op to a
/// plain `Load`, collapsing addresses toward zero, and zeroing store data.
struct MemOpGen;

impl Gen for MemOpGen {
    type Value = MemOp;

    fn generate(&self, rng: &mut SimRng) -> MemOp {
        let a = rng.below(2048) * 8;
        match rng.below(4) {
            0 => MemOp::Load(a),
            1 => MemOp::Store(a, rng.next_u64()),
            2 => MemOp::VolatileLoad(a),
            _ => MemOp::Prefetch(a),
        }
    }

    fn shrink(&self, op: &MemOp) -> Vec<MemOp> {
        let mut out = Vec::new();
        if !matches!(op, MemOp::Load(_)) {
            out.push(MemOp::Load(op.addr()));
        }
        // Keep candidates aligned the way generation aligns them.
        for a in gen::shrink_u64(op.addr() / 8).into_iter().take(3) {
            out.push(match *op {
                MemOp::Load(_) => MemOp::Load(a * 8),
                MemOp::Store(_, v) => MemOp::Store(a * 8, v),
                MemOp::VolatileLoad(_) => MemOp::VolatileLoad(a * 8),
                MemOp::Prefetch(_) => MemOp::Prefetch(a * 8),
            });
        }
        if let MemOp::Store(a, v) = *op {
            out.extend(
                gen::shrink_u64(v)
                    .into_iter()
                    .take(2)
                    .map(|v| MemOp::Store(a, v)),
            );
        }
        out
    }
}

#[test]
fn l1_l2_stack_is_read_your_writes() {
    // Full-stack runs are slow; 32 cases still exercise every structural
    // corner thanks to the tiny L1.
    let ops_gen = gen::vec_of(MemOpGen, 0, 150);
    let cfg = Config::new("l1_l2_stack_is_read_your_writes").with_cases(32);
    check(&cfg, &ops_gen, |ops| {
        // Tiny L1 to maximize evictions.
        let mut l1 = L1Cache::new(L1Config {
            size_bytes: 512,
            ways: 2,
            ..L1Config::default()
        });
        let mut l2 = SharedL2::new(
            L2Config {
                size_bytes: 2048,
                ..L2Config::default()
            },
            DramConfig {
                latency: 20,
                ..DramConfig::default()
            },
        );
        let mut mem = PhysMem::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut now = Cycle::ZERO;
        let mut expecting: HashMap<u64, u64> = HashMap::new(); // req id -> value

        let pump = |l1: &mut L1Cache,
                    l2: &mut SharedL2,
                    mem: &mut PhysMem,
                    now: &mut Cycle,
                    expecting: &mut HashMap<u64, u64>,
                    cycles: u64| {
            for _ in 0..cycles {
                while let Some(req) = l1.pop_outgoing() {
                    l2.accept(*now, req);
                }
                l2.tick(*now, mem);
                while let Some(out) = l2.pop_outgoing() {
                    l1.on_mem_resp(*now, out.resp, mem);
                }
                while let Some(resp) = l1.pop_core_resp(*now) {
                    if let Some(expect) = expecting.remove(&resp.id) {
                        assert_eq!(resp.data, expect, "load {} returned wrong data", resp.id);
                    }
                }
                *now = now.plus(1);
            }
        };

        let mut next_id = 0u64;
        for op in ops {
            let id = next_id;
            next_id += 1;
            let (addr, core_op) = match *op {
                MemOp::Load(a) => (a, CoreOp::Load { size: 8 }),
                MemOp::VolatileLoad(a) => (a, CoreOp::LoadVolatile { size: 8 }),
                MemOp::Store(a, v) => (a, CoreOp::Store { size: 8, data: v }),
                MemOp::Prefetch(a) => (a, CoreOp::Prefetch),
            };
            // Retry until the L1 accepts (structural stalls resolve as the
            // pipeline drains).
            let mut tries = 0;
            let mut stage = WriteStage::new();
            loop {
                match l1.access(
                    now,
                    CoreReq {
                        id,
                        addr: PAddr(addr),
                        op: core_op,
                    },
                    &mem,
                    &mut stage,
                ) {
                    Ok(()) => {
                        // Single-core test: end-of-cycle apply collapses to
                        // an immediate apply (nobody else reads this cycle).
                        stage.apply(&mut mem);
                        break;
                    }
                    Err(_) => {
                        pump(&mut l1, &mut l2, &mut mem, &mut now, &mut expecting, 5);
                        tries += 1;
                        tk_assert!(tries < 10_000, "L1 wedged");
                    }
                }
            }
            match *op {
                MemOp::Store(a, v) => {
                    model.insert(a, v);
                }
                MemOp::Load(a) | MemOp::VolatileLoad(a) => {
                    expecting.insert(id, model.get(&a).copied().unwrap_or(0));
                    // Loads are blocking on the in-order core this L1
                    // serves: drain before issuing anything younger.
                    let mut waited = 0;
                    while expecting.contains_key(&id) {
                        pump(&mut l1, &mut l2, &mut mem, &mut now, &mut expecting, 5);
                        waited += 1;
                        tk_assert!(waited < 10_000, "load never completed");
                    }
                }
                MemOp::Prefetch(_) => {}
            }
        }
        // Drain everything.
        pump(&mut l1, &mut l2, &mut mem, &mut now, &mut expecting, 2000);
        tk_assert!(expecting.is_empty(), "some loads never completed");
        tk_assert!(l1.is_idle(), "L1 left with in-flight state");
        tk_assert!(l2.is_idle(), "L2 left with in-flight state");
        Ok(())
    });
}
