//! The oracle-grid gate behind `results oracle_grid`.
//!
//! Runs the differential oracle grid (every oracle variant × three fixed
//! tiny kernel instances), the fixed-seed chaos grid, and the
//! hierarchical-fabric rows (flat vs 1-cluster bit-identity, a live 2×2
//! crossbar hierarchy) through `par_map` on `MAPLE_JOBS` workers, and
//! renders one line per measurement. Every line is a pure function of
//! the seed and the simulator, independent of the worker count, so
//! `results --check` byte-diffs it against `results/oracle_grid.txt`.

use maple_sim::par::{jobs_from_env, par_map};
use maple_sim::rng::SimRng;
use maple_soc::ClusterConfig;
use maple_workloads::bfs::Bfs;
use maple_workloads::data::{dense_vector, uniform_sparse, Csr};
use maple_workloads::harness::{RunStats, Variant};
use maple_workloads::oracle::{
    chaos_check, chaos_schedules, check_cross, check_run, ORACLE_VARIANTS,
};
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmv::Spmv;

/// The grid's kernel axis, in print order.
const GRID_KERNELS: [&str; 3] = ["spmv", "sdhp", "bfs"];

/// Small fixed CSR, expanded deterministically from `seed`.
fn fixed_csr(rows: usize, ncols: usize, seed: u64) -> Csr {
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

/// Runs one grid cell from scratch: rebuilds the fixed instance for the
/// kernel and executes the variant.
fn run_grid_cell(seed: u64, kernel: &str, variant: Variant, threads: usize) -> RunStats {
    match kernel {
        "spmv" => {
            let inst = Spmv {
                a: fixed_csr(10, 128, seed ^ 0x01),
                x: dense_vector(128, seed ^ 0x02),
            };
            inst.run(variant, threads)
        }
        "sdhp" => {
            let a = fixed_csr(8, 128, seed ^ 0x03);
            let inst = Sdhp::from_sparse(&a, seed ^ 0x04);
            inst.run(variant, threads)
        }
        "bfs" => {
            let graph = fixed_csr(16, 16, seed ^ 0x05);
            let root = (0..graph.nrows)
                .find(|&r| !graph.row_range(r).is_empty())
                .unwrap_or(0) as u32;
            let inst = Bfs { graph, root };
            inst.run(variant, threads)
        }
        other => unreachable!("unknown grid kernel {other:?}"),
    }
}

/// One deterministic measurement line.
fn row(kernel: &str, label: &str, threads: usize, s: &RunStats) -> String {
    format!(
        "{kernel}\t{label}\tt={threads}\tcycles={}\tloads={}\tverified={}\trung={}",
        s.cycles, s.loads, s.verified, s.faults.ladder_rung
    )
}

/// Applies the oracle invariants to one kernel's row of the grid.
fn check_kernel(kernel: &str, rows: &[RunStats]) -> Result<(), String> {
    let doall = &rows[0];
    check_run(&format!("{kernel}/doall"), doall)?;
    for (&(v, _), s) in ORACLE_VARIANTS[1..].iter().zip(&rows[1..]) {
        let label = format!("{kernel}/{}", v.label());
        check_run(&label, s)?;
        check_cross(doall, &label, s)?;
    }
    Ok(())
}

/// Renders the whole grid from `seed`: the differential rows of every
/// kernel, one `chaos` line per schedule and the two hierarchy rows.
///
/// # Errors
///
/// Returns the first violated oracle invariant, failed chaos schedule,
/// panicking cell, or a 1-cluster run that is not bit-identical to the
/// flat mesh.
pub fn oracle_grid(seed: u64) -> Result<String, String> {
    let jobs = jobs_from_env();
    let mut lines = Vec::new();

    // Differential grid: one parallel map per kernel.
    for kernel in GRID_KERNELS {
        let rows = par_map(jobs, &ORACLE_VARIANTS, |&(v, t)| {
            run_grid_cell(seed, kernel, v, t)
        })
        .map_err(|(i, e)| format!("{kernel}/{}: {e}", ORACLE_VARIANTS[i].0.label()))?;
        for (&(v, t), s) in ORACLE_VARIANTS.iter().zip(&rows) {
            lines.push(row(kernel, v.label(), t, s));
        }
        check_kernel(kernel, &rows)?;
    }

    // Chaos grid: each schedule through the degradation ladder (the
    // doall baseline and the faulted MAPLE attempt run in parallel inside
    // chaos_check). The instance is big enough that every run
    // comfortably outlives the scheduled mid-run reset at cycle 5000.
    let chaos_inst = Spmv {
        a: uniform_sparse(32, 8 * 1024, 6, seed ^ 0x06),
        x: dense_vector(8 * 1024, seed ^ 0x07),
    };
    for schedule in chaos_schedules(seed) {
        chaos_check("spmv", &schedule, |v, t, plane| match plane {
            Some(p) => {
                let p = p.clone();
                chaos_inst.run_tuned(v, t, move |c| c.with_fault_plane(p))
            }
            None => chaos_inst.run(v, t),
        })?;
        lines.push(format!("chaos\t{}\tok", schedule.name));
    }

    // Hierarchical grid: a degenerate 1-cluster configuration must be
    // bit-exact with the flat mesh, and a live 2×2 crossbar hierarchy
    // must satisfy the oracle invariants.
    let hier_inst = Spmv {
        a: uniform_sparse(32, 8 * 1024, 6, seed ^ 0x08),
        x: dense_vector(8 * 1024, seed ^ 0x09),
    };
    let flat = hier_inst.run(Variant::MapleDecoupled, 2);
    let one = hier_inst.run_tuned(Variant::MapleDecoupled, 2, |c| {
        let tiles = usize::from(c.mesh_width) * usize::from(c.mesh_height);
        c.with_clusters(ClusterConfig::new(tiles, 1, 1))
    });
    if one != flat {
        return Err("1-cluster hierarchy diverged from the flat mesh".into());
    }
    lines.push(row("spmv", "maple-dec/1-cluster", 2, &one));
    let clustered = hier_inst.run_tuned(Variant::MapleDecoupled, 4, |c| {
        c.with_maples(2).with_clusters(ClusterConfig::new(9, 2, 2))
    });
    check_run("spmv/maple-dec/clustered2x2", &clustered)?;
    lines.push(row("spmv", "maple-dec/clustered2x2", 4, &clustered));
    Ok(lines.join("\n"))
}
