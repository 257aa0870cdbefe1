//! Micro-benchmarks: simulator throughput on small kernel instances and
//! hot component paths.
//!
//! These benchmark the *simulator itself* (host wall-clock per simulated
//! workload), complementing the `fig*` binaries that report simulated
//! cycles. Useful for catching performance regressions in the timing
//! models.
//!
//! By default the in-tree timing harness below runs (plain `main`, no
//! external crates, works offline). Building with
//! `--features bench-external` switches to criterion for statistically
//! rigorous sampling; that path needs the network and a manually added
//! dev-dependency (`criterion = "0.5"`) — see crates/bench/Cargo.toml.

#![allow(clippy::explicit_counter_loop)]

use maple_core::engine::{Engine, MapleConfig};
use maple_core::mmio::{store_offset, StoreOp};
use maple_mem::msg::{MemReq, MemReqKind};
use maple_mem::phys::{PAddr, PhysMem};
use maple_noc::{Coord, Fabric, MeshConfig};
use maple_sim::Cycle;
use maple_workloads::data::uniform_sparse;
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

// --- the workloads under measurement (shared by both harnesses) ---------

fn spmv_instance() -> Spmv {
    let a = uniform_sparse(24, 8192, 4, 3);
    let x = maple_workloads::data::dense_vector(8192, 4);
    Spmv { a, x }
}

fn run_spmv_doall_1t(inst: &Spmv) -> u64 {
    let s = inst.run(Variant::Doall, 1);
    assert!(s.verified);
    s.cycles
}

fn run_spmv_maple_dec_2t(inst: &Spmv) -> u64 {
    let s = inst.run(Variant::MapleDecoupled, 2);
    assert!(s.verified);
    s.cycles
}

fn sdhp_instance() -> Sdhp {
    Sdhp::from_sparse(&uniform_sparse(16, 512, 8, 7), 8)
}

fn run_sdhp_lima_1t(inst: &Sdhp) -> u64 {
    let s = inst.run(Variant::MapleLima, 1);
    assert!(s.verified);
    s.cycles
}

fn run_noc_4x4_saturated_1k_ticks() -> u64 {
    let mut mesh: Fabric<u32> = Fabric::flat(MeshConfig::new(4, 4));
    let mut now = Cycle::ZERO;
    let mut delivered = 0u64;
    for step in 0..1000u64 {
        let src = Coord::new((step % 4) as u16, ((step / 4) % 4) as u16);
        let dst = Coord::new(((step + 2) % 4) as u16, ((step / 2) % 4) as u16);
        let _ = mesh.inject(now, src, dst, 2, step as u32);
        mesh.tick(now);
        for y in 0..4 {
            for x in 0..4 {
                delivered += mesh.take_delivered(Coord::new(x, y)).len() as u64;
            }
        }
        now += 1;
    }
    delivered
}

fn run_engine_1k_data_produces() -> u64 {
    let mut engine = Engine::new(MapleConfig::default());
    let mem = PhysMem::new();
    let mut now = Cycle::ZERO;
    let mut acks = 0u64;
    for i in 0..1000u64 {
        // Round-robin the 8 queues; reset before any fills
        // (8 × 32 = 256 entries per engine lifetime).
        if i % 256 == 0 && i > 0 {
            engine = Engine::new(MapleConfig::default());
        }
        let q = (i % 8) as u8;
        engine.accept(
            now,
            MemReq {
                id: i,
                addr: PAddr(0xF000_0000 + store_offset(StoreOp::Produce, q)),
                kind: MemReqKind::Write {
                    size: 8,
                    data: i,
                    ack: true,
                },
                reply_to: Coord::default(),
            },
        );
        engine.tick(now, &mem);
        while engine.pop_response(now).is_some() {
            acks += 1;
        }
        now += 1;
    }
    acks
}

// --- default harness: in-tree timing, zero dependencies -----------------

#[cfg(not(feature = "bench-external"))]
mod harness {
    use std::hint::black_box;
    use std::time::Instant;

    /// Times `f` over `iters` iterations after one warmup run; prints
    /// mean and minimum wall-clock per iteration.
    pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
        black_box(f()); // warmup: page in code and data
        let mut total = std::time::Duration::ZERO;
        let mut best = std::time::Duration::MAX;
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            total += dt;
            best = best.min(dt);
        }
        let mean = total / iters;
        println!("{name:<32} mean {mean:>12.3?}   min {best:>12.3?}   ({iters} iters)");
    }
}

#[cfg(not(feature = "bench-external"))]
fn main() {
    println!("in-tree micro-bench (use --features bench-external for criterion)");
    let spmv = spmv_instance();
    harness::bench("spmv/doall_1t", 10, || run_spmv_doall_1t(&spmv));
    harness::bench("spmv/maple_dec_2t", 10, || run_spmv_maple_dec_2t(&spmv));
    let sdhp = sdhp_instance();
    harness::bench("sdhp/lima_1t", 10, || run_sdhp_lima_1t(&sdhp));
    harness::bench("noc_4x4_saturated_1k_ticks", 20, run_noc_4x4_saturated_1k_ticks);
    harness::bench("engine_1k_data_produces", 20, run_engine_1k_data_produces);
}

// --- optional harness: criterion (network + manual dep required) --------

#[cfg(feature = "bench-external")]
mod external {
    use super::*;
    use criterion::{criterion_group, criterion_main, Criterion};

    fn bench_spmv(c: &mut Criterion) {
        let inst = spmv_instance();
        let mut g = c.benchmark_group("spmv");
        g.sample_size(10);
        g.bench_function("doall_1t", |b| b.iter(|| run_spmv_doall_1t(&inst)));
        g.bench_function("maple_dec_2t", |b| b.iter(|| run_spmv_maple_dec_2t(&inst)));
        g.finish();
    }

    fn bench_sdhp_lima(c: &mut Criterion) {
        let inst = sdhp_instance();
        let mut g = c.benchmark_group("sdhp");
        g.sample_size(10);
        g.bench_function("lima_1t", |b| b.iter(|| run_sdhp_lima_1t(&inst)));
        g.finish();
    }

    fn bench_noc(c: &mut Criterion) {
        c.bench_function("noc_4x4_saturated_1k_ticks", |b| {
            b.iter(run_noc_4x4_saturated_1k_ticks);
        });
    }

    fn bench_engine_produce(c: &mut Criterion) {
        c.bench_function("engine_1k_data_produces", |b| {
            b.iter(run_engine_1k_data_produces);
        });
    }

    criterion_group!(
        benches,
        bench_spmv,
        bench_sdhp_lima,
        bench_noc,
        bench_engine_produce
    );
    criterion_main!(benches);
}

#[cfg(feature = "bench-external")]
fn main() {
    external::benches();
}
