//! MemPool-scale scaling gates over the hierarchical fabric.
//!
//! Each gate instantiates one SoC built from 4×4 single-cycle crossbar
//! clusters on the global mesh — one L2 bank and one MAPLE engine per
//! cluster, two cores per cluster driving them — and renders, at that
//! tile count:
//!
//! - **stepper bit-exactness**: the MAPLE-decoupled run under the
//!   skipping stepper against the dense reference, with a content digest
//!   and the skipping run's host-work counters;
//! - **MAPLE speedup**: simulated cycles of the do-all baseline over
//!   MAPLE decoupling, both on the same clustered fabric and the same
//!   per-scale SPMV instance (work grows with the core count, so the
//!   per-core load is constant across tile counts);
//! - **LIMA latency reduction**: mean load latency of the
//!   single-threaded do-all baseline over LIMA command mode on a fixed
//!   small instance — fixed so the *fabric* is the only thing changing,
//!   and the growing bank-interleave distance is what LIMA has to hide.
//!
//! Every rendered line is simulated and host-independent, so
//! `results --check` byte-diffs [`scale_gate`] against the committed
//! golden at any `MAPLE_JOBS` value. The host throughput of the skipping
//! run, the honest cost of simulating that tile count, goes to stderr.

use std::time::Instant;

use maple_soc::{ClusterConfig, SocConfig};
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::Variant;
use maple_workloads::spmv::Spmv;

/// Tiles per crossbar cluster in every scaled configuration (a 4×4
/// local crossbar, the paper's MemPool-style building block).
pub const CLUSTER_TILES: usize = 16;

/// The square cluster grid at `tiles` total tiles, or `None` unless
/// `tiles` is a positive multiple of [`CLUSTER_TILES`] whose cluster count
/// is a perfect square (the scale gates run 64/256/1024 = 2²/4²/8²
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

/// The hierarchical gate behind `results scale_gate_N`: on the
/// `N`-tile clustered fabric, the MAPLE-decoupled run under the skipping
/// stepper vs the dense reference, the do-all → MAPLE speedup on the
/// same instance and the LIMA latency reduction on the fixed one,
/// rendered as **host-independent** lines (simulated facts, a content
/// digest and the skipping run's deterministic host-work counters), so
/// `results --check` can byte-diff the output at any worker count and a
/// rise in work per simulated cycle fails the gate. The skipping run's
/// host Mcycles/s goes to stderr only.
///
/// # Errors
///
/// Returns the rendered divergence when the skipping run is not
/// bit-exact with the dense reference on the clustered fabric, or names
/// the run that failed verification.
pub fn scale_gate(seed: u64, tiles: usize) -> Result<String, String> {
    let clusters = tiles / CLUSTER_TILES;
    let threads = 2 * clusters;
    let engines = clusters;
    let verified = |run: &str, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("{tiles}-tile {run} run failed verification"))
        }
    };

    // Speedup pair: per-core work held constant across tile counts.
    let a = uniform_sparse(64 * threads, 32 * 1024, 6, seed);
    let x = dense_vector(32 * 1024, seed ^ 0x9);
    let inst = Spmv { a, x };
    let run = |variant: Variant, dense: bool| {
        inst.run_observed(variant, threads, move |c| {
            let c = scaled_config(c, tiles, engines);
            if dense {
                c.with_dense_stepper()
            } else {
                c
            }
        })
    };
    let t0 = Instant::now();
    let (stats, sys) = run(Variant::MapleDecoupled, false);
    let wall_seconds = t0.elapsed().as_secs_f64();
    let (dense_stats, dense_sys) = run(Variant::MapleDecoupled, true);
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
    verified("maple-dec", stats.verified)?;
    let (doall, _) = run(Variant::Doall, false);
    verified("doall", doall.verified)?;

    // Latency pair: fixed instance, single-threaded, so the growing
    // fabric (bank-interleave distance) is the only moving part.
    let la = uniform_sparse(64, 8 * 1024, 5, seed ^ 0x11);
    let lx = dense_vector(8 * 1024, seed ^ 0x12);
    let linst = Spmv { a: la, x: lx };
    let lbase = linst.run_tuned(Variant::Doall, 1, |c| scaled_config(c, tiles, 1));
    verified("latency-pair doall", lbase.verified)?;
    let lima = linst.run_tuned(Variant::MapleLima, 1, |c| scaled_config(c, tiles, 1));
    verified("latency-pair maple-lima", lima.verified)?;

    eprintln!(
        "[scale_gate_{tiles}] skipping {:.3} Mcy/s",
        stats.cycles as f64 / wall_seconds / 1.0e6
    );
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
         maple speedup: {:.2}x over do-all ({} do-all cycles)\n\
         lima latency reduction: {:.2}x (mean load latency {:.3} do-all, \
         {:.3} maple-lima, 1 core)\n\
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
        doall.cycles as f64 / stats.cycles as f64,
        doall.cycles,
        lbase.mean_load_latency / lima.mean_load_latency,
        lbase.mean_load_latency,
        lima.mean_load_latency,
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
        let text = scale_gate(0x5CA1E, 64).expect("the 64-tile gate passes");
        assert!(
            text.starts_with(
                "scale gate: 64 tiles (4 clusters of 16, 8 cores, 4 engines, 4 banks)"
            ),
            "{text}"
        );
        let number = |prefix: &str| -> f64 {
            let line = text.lines().find_map(|l| l.strip_prefix(prefix));
            let value = line.and_then(|l| l.split('x').next());
            value.and_then(|v| v.parse().ok()).expect(prefix)
        };
        let cycles = number("simulated cycles: ");
        assert!(cycles > 0.0);
        let speedup = number("maple speedup: ");
        assert!(speedup.is_finite() && speedup > 0.0);
        assert!(
            number("lima latency reduction: ") > 1.0,
            "LIMA must hide latency"
        );
    }
}
