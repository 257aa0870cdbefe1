//! Evaluation-grade problem instances.
//!
//! Sizes are chosen so the indirectly-accessed array decisively exceeds
//! the cache hierarchy (8 KB L1 + 64 KB L2) — the regime the paper's
//! datasets put the FPGA in — while keeping single-thread runs around a
//! few million simulated cycles.
//!
//! Each table pairs a dataset label with the function that builds it, so
//! a run builds only the instance it simulates.

use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, rmat, uniform_sparse, Dataset};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmm::Spmm;
use maple_workloads::spmv::Spmv;

/// A dataset label and the function that builds its instance.
pub type Named<T> = (&'static str, fn() -> T);

fn spmv(rows: usize, xlen: usize, nnz: usize, seed: u64) -> Spmv {
    let a = uniform_sparse(rows, xlen, nnz, seed);
    let x = dense_vector(xlen, seed ^ 0x1234);
    Spmv { a, x }
}

/// SPMV instances (riscv-tests-style synthetic matrices, as in the
/// paper).
pub const SPMV: [Named<Spmv>; 2] = [
    ("riscv-s", || spmv(256, 64 * 1024, 8, 41)),
    ("riscv-l", || spmv(384, 128 * 1024, 8, 42)),
];

/// SDHP instances (SuiteSparse-like and Kronecker, as in the paper).
pub const SDHP: [Named<Sdhp>; 2] = [
    ("suitesparse", || {
        Sdhp::from_sparse(&uniform_sparse(256, 2048, 16, 51), 52)
    }),
    ("kron", || {
        Sdhp::from_sparse(&rmat(9, 10, (0.57, 0.19, 0.19, 0.05), 53), 54)
    }),
];

/// SPMM instances (riscv-tests-style).
pub const SPMM: [Named<Spmm>; 1] = [("riscv", || Spmm::synthetic(4096, 4, 12, 61))];

/// BFS instances (wiki/youtube/livejournal-like R-MAT graphs).
pub const BFS: [Named<Bfs>; 3] = [
    ("wiki", || Bfs::new(Dataset::WikiLike, 71)),
    ("youtube", || Bfs::new(Dataset::YoutubeLike, 72)),
    ("livejournal", || Bfs::new(Dataset::LiveJournalLike, 73)),
];
