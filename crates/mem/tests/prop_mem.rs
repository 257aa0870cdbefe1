//! Property tests for the memory substrate: the cache tag array against a
//! reference LRU model, and the physical store against a byte map.

use maple_mem::cache::{CacheArray, CacheGeometry};
use maple_mem::phys::{AmoKind, PAddr, PhysMem};
use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen, SimRng};
use std::collections::HashMap;

/// Reference model of a set-associative LRU cache.
struct RefCache {
    sets: usize,
    ways: usize,
    /// Per set: line base addresses, most-recent last.
    content: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            sets,
            ways,
            content: vec![Vec::new(); sets],
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line / 64) as usize % self.sets
    }

    fn access(&mut self, line: u64) -> bool {
        let s = self.set_of(line);
        if let Some(pos) = self.content[s].iter().position(|&l| l == line) {
            let l = self.content[s].remove(pos);
            self.content[s].push(l);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, line: u64) -> Option<u64> {
        let s = self.set_of(line);
        if self.access(line) {
            return None;
        }
        let evicted = if self.content[s].len() == self.ways {
            Some(self.content[s].remove(0))
        } else {
            None
        };
        self.content[s].push(line);
        evicted
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access(u64),
    Fill(u64),
    Invalidate(u64),
}

impl CacheOp {
    fn addr(self) -> u64 {
        match self {
            CacheOp::Access(a) | CacheOp::Fill(a) | CacheOp::Invalidate(a) => a,
        }
    }

    fn with_addr(self, a: u64) -> CacheOp {
        match self {
            CacheOp::Access(_) => CacheOp::Access(a),
            CacheOp::Fill(_) => CacheOp::Fill(a),
            CacheOp::Invalidate(_) => CacheOp::Invalidate(a),
        }
    }
}

/// Generates cache operations over a 16 KiB address window; shrinks
/// addresses toward zero (collapsing traffic onto one set) and demotes
/// fills/invalidates to plain accesses.
struct CacheOpGen;

impl Gen for CacheOpGen {
    type Value = CacheOp;

    fn generate(&self, rng: &mut SimRng) -> CacheOp {
        let a = rng.below(1 << 14);
        match rng.below(3) {
            0 => CacheOp::Access(a),
            1 => CacheOp::Fill(a),
            _ => CacheOp::Invalidate(a),
        }
    }

    fn shrink(&self, op: &CacheOp) -> Vec<CacheOp> {
        let mut out = Vec::new();
        if !matches!(op, CacheOp::Access(_)) {
            out.push(CacheOp::Access(op.addr()));
        }
        out.extend(
            gen::shrink_u64(op.addr())
                .into_iter()
                .take(3)
                .map(|a| op.with_addr(a)),
        );
        out
    }
}

#[test]
fn cache_array_matches_lru_model() {
    let ops = gen::vec_of(CacheOpGen, 0, 300);
    check(&Config::new("cache_array_matches_lru_model"), &ops, |ops| {
        // 8 sets × 2 ways.
        let mut dut = CacheArray::new(CacheGeometry::new(8 * 2 * 64, 2));
        let mut model = RefCache::new(8, 2);
        for op in ops {
            match *op {
                CacheOp::Access(a) => {
                    let line = a & !63;
                    tk_assert_eq!(dut.access(PAddr(a)), model.access(line));
                }
                CacheOp::Fill(a) => {
                    let line = a & !63;
                    let ev = dut.fill(PAddr(a));
                    let ev_model = model.fill(line);
                    tk_assert_eq!(ev.map(|p| p.0), ev_model);
                }
                CacheOp::Invalidate(a) => {
                    let line = a & !63;
                    let s = model.set_of(line);
                    let had = model.content[s].iter().position(|&l| l == line);
                    if let Some(pos) = had {
                        model.content[s].remove(pos);
                    }
                    tk_assert_eq!(dut.invalidate(PAddr(a)), had.is_some());
                }
            }
        }
        let resident: usize = model.content.iter().map(Vec::len).sum();
        tk_assert_eq!(dut.resident_lines(), resident);
        Ok(())
    });
}

#[test]
fn phys_mem_matches_byte_map() {
    let writes = gen::vec_of(
        (
            gen::u64_in(0..(1 << 16)),
            gen::choice(vec![1u8, 2, 4, 8]),
            gen::u64_any(),
        ),
        0,
        200,
    );
    check(
        &Config::new("phys_mem_matches_byte_map"),
        &writes,
        |writes| {
            let mut dut = PhysMem::new();
            let mut model: HashMap<u64, u8> = HashMap::new();
            for (addr, size, value) in writes {
                dut.write_uint(PAddr(*addr), *size, *value);
                for i in 0..u64::from(*size) {
                    model.insert(addr + i, (value >> (8 * i)) as u8);
                }
            }
            // Every byte agrees with the model (absent = 0).
            for (addr, size, _) in writes {
                let mut expect = 0u64;
                for i in (0..u64::from(*size)).rev() {
                    expect = (expect << 8) | u64::from(*model.get(&(addr + i)).unwrap_or(&0));
                }
                tk_assert_eq!(dut.read_uint(PAddr(*addr), *size), expect);
            }
            Ok(())
        },
    );
}

#[test]
fn amo_sequences_preserve_sum() {
    let increments = gen::vec_of(gen::u64_in(1..100), 1, 49);
    check(
        &Config::new("amo_sequences_preserve_sum"),
        &increments,
        |increments| {
            // Fetch-add returns each intermediate value exactly once and the
            // final cell equals the sum — atomicity over any schedule.
            let mut mem = PhysMem::new();
            let addr = PAddr(0x400);
            let mut olds = Vec::new();
            for &inc in increments {
                olds.push(mem.amo(addr, 8, AmoKind::Add, inc));
            }
            let total: u64 = increments.iter().sum();
            tk_assert_eq!(mem.read_u64(addr), total);
            // The observed old values are the strictly increasing prefix sums.
            let mut acc = 0;
            for (old, inc) in olds.iter().zip(increments) {
                tk_assert_eq!(*old, acc);
                acc += inc;
            }
            tk_assert!(acc == total);
            Ok(())
        },
    );
}
