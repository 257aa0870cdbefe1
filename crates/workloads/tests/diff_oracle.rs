//! The randomized differential oracle: for randomly generated CSR /
//! vector / graph instances, run every oracle variant through the full
//! simulated SoC and check bit-identical results against the scalar host
//! reference plus the hardware conservation invariants
//! (`maple_workloads::oracle`).
//!
//! Instances are deliberately tiny — the point is input-space coverage
//! (empty rows, single rows, duplicate columns, skewed shapes,
//! disconnected graphs), not throughput. Cases run in parallel through
//! `maple_sim::par` (`MAPLE_JOBS` controls the worker count; the
//! failure report is identical at any setting). Failures shrink toward
//! the smallest instance that still violates an invariant and print a
//! `MAPLE_TESTKIT_SEED` reproduction line.

use maple_testkit::{check_parallel, gen, Config, SimRng};
use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, Csr};
use maple_workloads::oracle::differential_check;
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmv::Spmv;

/// Number of randomized instances per kernel (the acceptance floor is
/// 64; `MAPLE_TESTKIT_CASES` raises it for long fuzz runs).
const INSTANCES: u64 = 64;

/// Random small CSR: `rows` rows over `ncols` columns, up to 6 nonzeros
/// per row, expanded deterministically from `seed`. Covers empty rows and
/// duplicate column picks (deduped, as CSR requires).
fn random_csr(rows: usize, ncols: usize, seed: u64) -> Csr {
    let mut rng = SimRng::seed(seed);
    let rows_vec: Vec<Vec<(u32, u32)>> = (0..rows)
        .map(|_| {
            let nnz = rng.below(7) as usize;
            let mut cols: Vec<u32> = (0..nnz).map(|_| rng.below(ncols as u64) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            cols.into_iter()
                .map(|c| (c, 1 + rng.below(100) as u32))
                .collect()
        })
        .collect();
    Csr::from_rows(rows, ncols, &rows_vec)
}

#[test]
fn spmv_all_variants_match_reference_and_conserve() {
    let inputs = (gen::usize_in(1..12), gen::u64_any(), gen::u64_any());
    let cfg = Config::new("spmv_all_variants_match_reference_and_conserve").with_cases(INSTANCES);
    check_parallel(&cfg, &inputs, |&(rows, csr_seed, x_seed)| {
        let a = random_csr(rows, 128, csr_seed);
        let x = dense_vector(128, x_seed);
        let inst = Spmv { a, x };
        differential_check("spmv", |v, t| inst.run(v, t))
    });
}

#[test]
fn sdhp_all_variants_match_reference_and_conserve() {
    let inputs = (gen::usize_in(1..10), gen::u64_any(), gen::u64_any());
    let cfg = Config::new("sdhp_all_variants_match_reference_and_conserve").with_cases(INSTANCES);
    check_parallel(&cfg, &inputs, |&(rows, csr_seed, sdhp_seed)| {
        let a = random_csr(rows, 128, csr_seed);
        let inst = Sdhp::from_sparse(&a, sdhp_seed);
        differential_check("sdhp", |v, t| inst.run(v, t))
    });
}

#[test]
fn bfs_all_variants_match_reference_and_conserve() {
    // Square graphs so vertices and columns coincide; the root is the
    // first vertex with outgoing edges (matching `Bfs::new`), so the
    // traversal always has at least one level. Disconnected remainders
    // stay UNVISITED and are still compared bit-for-bit.
    let inputs = (gen::usize_in(2..24), gen::u64_any());
    let cfg = Config::new("bfs_all_variants_match_reference_and_conserve").with_cases(INSTANCES);
    check_parallel(&cfg, &inputs, |&(verts, graph_seed)| {
        let graph = random_csr(verts, verts, graph_seed);
        let root = (0..graph.nrows)
            .find(|&r| !graph.row_range(r).is_empty())
            .unwrap_or(0) as u32;
        let inst = Bfs { graph, root };
        differential_check("bfs", |v, t| inst.run(v, t))
    });
}
