//! MemPool-scale scaling sweep over the hierarchical fabric.
//!
//! Each row instantiates one SoC built from 4×4 single-cycle crossbar
//! clusters on the global mesh — one L2 bank and one MAPLE engine per
//! cluster, two cores per cluster driving them — and measures, at that
//! tile count:
//!
//! - **MAPLE speedup**: simulated cycles of the do-all baseline over
//!   MAPLE decoupling, both on the same clustered fabric and the same
//!   per-scale SPMV instance (work grows with the core count, so the
//!   per-core load is constant across rows);
//! - **LIMA latency reduction**: mean load latency of the
//!   single-threaded do-all baseline over LIMA command mode on a fixed
//!   small instance — fixed so the *fabric* is the only thing changing,
//!   and the growing bank-interleave distance is what LIMA has to hide;
//! - **host Mcycles/s**: wall-clock throughput of the MAPLE-decoupled
//!   run, the honest cost of simulating that tile count.
//!
//! [`scale_gate`] is the CI face: at one tile count it byte-compares the
//! skipping stepper against the dense reference and renders only
//! host-independent lines, which `results --check` diffs against the
//! committed golden at any `MAPLE_JOBS` value.

use std::time::Instant;

use maple_soc::{ClusterConfig, SocConfig};
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::Variant;
use maple_workloads::spmv::Spmv;

/// Tiles per crossbar cluster in every scaled configuration (a 4×4
/// local crossbar, the paper's MemPool-style building block).
pub const CLUSTER_TILES: usize = 16;

/// The checked-in sweep points: 64, 256 and 1024 tiles.
pub const SCALE_TILES: [usize; 3] = [64, 256, 1024];

/// One scaling measurement row. Everything except
/// `host_mcycles_per_sec` is simulated and deterministic.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Total tiles on the fabric.
    pub tiles: usize,
    /// Crossbar clusters (square grid of 4×4-tile clusters).
    pub clusters: usize,
    /// Cores loaded in the speedup pair (two per cluster).
    pub cores: usize,
    /// MAPLE engines (one pool slot per cluster).
    pub engines: usize,
    /// Interleaved L2 banks (one per cluster).
    pub l2_banks: usize,
    /// Simulated cycles of the MAPLE-decoupled run.
    pub simulated_cycles: u64,
    /// Do-all cycles over MAPLE-decoupled cycles, same fabric.
    pub maple_speedup: f64,
    /// Do-all mean load latency over LIMA mean load latency,
    /// single-threaded fixed instance on this fabric.
    pub lima_latency_reduction: f64,
    /// Host throughput of the MAPLE-decoupled run.
    pub host_mcycles_per_sec: f64,
}

/// The square cluster grid at `tiles` total tiles, or `None` unless
/// `tiles` is a positive multiple of [`CLUSTER_TILES`] whose cluster count
/// is a perfect square (the sweep points are 64/256/1024 = 2²/4²/8²
/// clusters).
#[must_use]
pub fn cluster_grid(tiles: usize) -> Option<(u16, u16)> {
    if tiles == 0 || !tiles.is_multiple_of(CLUSTER_TILES) {
        return None;
    }
    let clusters = tiles / CLUSTER_TILES;
    let side = u16::try_from(clusters.isqrt()).ok()?;
    (usize::from(side) * usize::from(side) == clusters).then_some((side, side))
}

/// Applies the scaled hierarchy to a harness-built configuration:
/// `engines` MAPLE instances and a grid of 4×4 crossbar clusters with
/// one L2 bank per cluster (the [`ClusterConfig`] default).
///
/// # Panics
///
/// Panics unless `tiles` is a square number of whole clusters (see
/// [`cluster_grid`]).
#[must_use]
pub fn scaled_config(cfg: SocConfig, tiles: usize, engines: usize) -> SocConfig {
    let (cx, cy) = cluster_grid(tiles).expect("tiles must be a square number of whole clusters");
    cfg.with_maples(engines)
        .with_clusters(ClusterConfig::new(CLUSTER_TILES, cx, cy))
}

/// Measures one sweep row at `tiles` total tiles.
///
/// # Panics
///
/// Panics when any run hangs or fails result verification — the sweep
/// is a measurement, never a correctness waiver.
#[must_use]
pub fn measure_scale(tiles: usize, seed: u64) -> ScaleRow {
    let clusters = tiles / CLUSTER_TILES;
    let threads = 2 * clusters;
    let engines = clusters;

    // Speedup pair: per-core work held constant across scales.
    let a = uniform_sparse(64 * threads, 32 * 1024, 6, seed);
    let x = dense_vector(32 * 1024, seed ^ 0x9);
    let inst = Spmv { a, x };
    let doall = inst.run_tuned(Variant::Doall, threads, |c| {
        scaled_config(c, tiles, engines)
    });
    assert!(doall.verified, "{tiles}-tile doall failed verification");
    let t0 = Instant::now();
    let dec = inst.run_tuned(Variant::MapleDecoupled, threads, |c| {
        scaled_config(c, tiles, engines)
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    assert!(dec.verified, "{tiles}-tile maple-dec failed verification");

    // Latency pair: fixed instance, single-threaded, so the growing
    // fabric (bank-interleave distance) is the only moving part.
    let la = uniform_sparse(64, 8 * 1024, 5, seed ^ 0x11);
    let lx = dense_vector(8 * 1024, seed ^ 0x12);
    let linst = Spmv { a: la, x: lx };
    let lbase = linst.run_tuned(Variant::Doall, 1, |c| scaled_config(c, tiles, 1));
    let lima = linst.run_tuned(Variant::MapleLima, 1, |c| scaled_config(c, tiles, 1));
    assert!(
        lbase.verified && lima.verified,
        "{tiles}-tile latency pair failed verification"
    );

    ScaleRow {
        tiles,
        clusters,
        cores: threads,
        engines,
        l2_banks: clusters,
        simulated_cycles: dec.cycles,
        maple_speedup: doall.cycles as f64 / dec.cycles as f64,
        lima_latency_reduction: lbase.mean_load_latency / lima.mean_load_latency,
        host_mcycles_per_sec: dec.cycles as f64 / wall_seconds / 1.0e6,
    }
}

/// Runs [`measure_scale`] at each requested tile count.
#[must_use]
pub fn scaling_sweep(tile_counts: &[usize], seed: u64) -> Vec<ScaleRow> {
    tile_counts
        .iter()
        .map(|&tiles| {
            eprintln!("[scaling] measuring {tiles}-tile fabric...");
            measure_scale(tiles, seed)
        })
        .collect()
}

/// The hierarchical determinism gate behind `results scale_gate_N`:
/// the `N`-tile clustered fabric under the skipping stepper vs the dense
/// reference, rendered as **host-independent** lines (simulated facts,
/// a content digest and the skipping run's deterministic host-work
/// counters), so `results --check` can byte-diff the output at any
/// worker count and a rise in work per simulated cycle fails the gate.
///
/// # Errors
///
/// Returns the rendered divergence when the skipping run is not
/// bit-exact with the dense reference on the clustered fabric.
pub fn scale_gate(seed: u64, tiles: usize) -> Result<String, String> {
    let clusters = tiles / CLUSTER_TILES;
    let threads = 2 * clusters;
    let engines = clusters;
    let a = uniform_sparse(64 * threads, 32 * 1024, 6, seed);
    let x = dense_vector(32 * 1024, seed ^ 0x9);
    let inst = Spmv { a, x };
    let run = |dense: bool| {
        inst.run_observed(Variant::MapleDecoupled, threads, move |c| {
            let c = scaled_config(c, tiles, engines);
            if dense {
                c.with_dense_stepper()
            } else {
                c
            }
        })
    };
    let (stats, sys) = run(false);
    let (dense_stats, dense_sys) = run(true);
    if stats != dense_stats {
        return Err(format!(
            "{tiles}-tile run stats diverged between steppers:\nskipping: {stats:?}\n\
             dense:    {dense_stats:?}"
        ));
    }
    let json = sys.metrics_snapshot().to_json().render();
    if json != dense_sys.metrics_snapshot().to_json().render() {
        return Err(format!(
            "{tiles}-tile metrics snapshot JSON diverged between steppers"
        ));
    }
    let mut d = maple_sim::hash::Digest::new(0x5CA1);
    d.str(&json);
    let w = sys.host_work();
    Ok(format!(
        "scale gate: {tiles} tiles ({clusters} clusters of {CLUSTER_TILES}, \
         {threads} cores, {engines} engines, {clusters} banks)\n\
         simulated cycles: {}\n\
         verified: {}\n\
         metrics digest: {:#018x}\n\
         host work: {} cycles stepped ({} hub), {} skipped; \
         ticks: {} core, {} engine, {} bank\n\
         scale ok: bit-exact at {tiles} tiles",
        stats.cycles,
        stats.verified,
        d.finish(),
        w.stepped,
        w.hub,
        w.skipped,
        w.core_ticks,
        w.engine_ticks,
        w.bank_ticks,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_grids_are_square() {
        assert_eq!(cluster_grid(64), Some((2, 2)));
        assert_eq!(cluster_grid(256), Some((4, 4)));
        assert_eq!(cluster_grid(1024), Some((8, 8)));
        for bad in [0, 15, 32, 100, 48] {
            assert_eq!(cluster_grid(bad), None, "{bad} tiles");
        }
    }

    #[test]
    fn smallest_scale_row_is_sane() {
        let row = measure_scale(64, 0x5CA1E);
        assert_eq!(row.clusters, 4);
        assert_eq!(row.cores, 8);
        assert_eq!(row.l2_banks, 4);
        assert!(row.simulated_cycles > 0);
        assert!(row.maple_speedup.is_finite() && row.maple_speedup > 0.0);
        assert!(row.lima_latency_reduction > 1.0, "LIMA must hide latency");
    }
}
