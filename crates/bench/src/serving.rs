//! The multi-tenant serving sweep and its CI gate.
//!
//! The sweep runs the [`maple_serve`] differential oracle over the full
//! acceptance grid — {skipping, dense} steppers × {no chaos, one
//! recoverable seeded chaos schedule} — mapping cells over `MAPLE_JOBS`
//! worker threads with [`par_map`], two hierarchical cells on a 2×2
//! crossbar-cluster fabric, plus
//! one engine-kill cell proving the maple-dec → sw-dec → do-all ladder
//! degrades a failing engine mid-tenant without a single corrupted
//! byte. The gate output contains only host-independent lines (request
//! counts, latency percentiles, fairness, switch counters and a content
//! digest), so `results --check` byte-diffs it against
//! `results/serve_gate.txt` at any `MAPLE_JOBS` value.

use maple_serve::oracle::differential_check;
use maple_serve::{serve, ServeConfig, ServingSummary};
use maple_sim::hash::Digest;
use maple_sim::par::{jobs_from_env, par_map};
use maple_workloads::oracle::chaos_schedules;

/// The acceptance grid: every stepper × chaos combination,
/// each as a labelled serving config over the same seeded tenants.
#[must_use]
pub fn serve_grid(seed: u64) -> Vec<(String, ServeConfig)> {
    // One recoverable schedule; the serving driver composes with the
    // chaos plane's recovery machinery, never with forced retirement.
    let schedule = chaos_schedules(seed)
        .into_iter()
        .find(|s| !s.must_degrade)
        .expect("a recoverable schedule exists");
    let mut cells = Vec::new();
    for (stepper, dense) in [("skipping", false), ("dense", true)] {
        for chaos in [false, true] {
            let mut cfg = ServeConfig::quick(seed);
            cfg.dense = dense;
            if chaos {
                cfg.chaos = Some(schedule.plane.clone());
            }
            let label = format!(
                "{stepper}/chaos={}",
                if chaos { schedule.name } else { "none" }
            );
            cells.push((label, cfg));
        }
    }
    // Hierarchical cells: the same tenants on a 2×2 crossbar hierarchy
    // (banked L2, per-cluster engine pools), clean and under the
    // recoverable schedule.
    for chaos in [false, true] {
        let mut cfg = ServeConfig::quick(seed);
        cfg.cluster = Some(maple_soc::ClusterConfig::new(9, 2, 2));
        if chaos {
            cfg.chaos = Some(schedule.plane.clone());
        }
        let label = format!(
            "clustered2x2/skipping/chaos={}",
            if chaos { schedule.name } else { "none" }
        );
        cells.push((label, cfg));
    }
    cells
}

fn cell_line(label: &str, s: &ServingSummary) -> String {
    format!(
        "serve {label}: requests={} p50={} p99={} max={} fairness={:.3} \
         switches={} remaps={} descents={}",
        s.total_requests,
        s.p50,
        s.p99,
        s.max,
        s.fairness(),
        s.context_switches,
        s.remaps,
        s.ladder_descents()
    )
}

/// The serving determinism gate behind `results serve_gate`: the
/// full grid through [`par_map`], the engine-kill ladder cell,
/// and a metrics digest — all host-independent lines.
///
/// # Errors
///
/// Returns the offending cell and violated invariant on the first
/// isolation failure, unverified request, or missing degradation.
pub fn serve_gate(seed: u64) -> Result<String, String> {
    let cells = serve_grid(seed);
    let grid = par_map(jobs_from_env(), &cells, |(label, cfg)| {
        differential_check(cfg).map_err(|e| format!("{label}: {e}"))
    })
    .map_err(|(i, e)| format!("{}: panicked: {e}", cells[i].0))?;
    let mut out = String::from("serve gate\n");
    let mut d = Digest::new(0x5E12);
    for ((label, _), res) in cells.iter().zip(grid) {
        let summary = res?;
        if !summary.verified {
            return Err(format!("{label}: session left requests unverified"));
        }
        let line = cell_line(label, &summary);
        d.str(&line);
        out.push_str(&line);
        out.push('\n');
    }

    // Engine failure mid-tenant: the ladder must degrade the dead
    // engine's dispatches with zero cross-tenant corruption.
    let mut kill = ServeConfig::quick(seed);
    kill.kill_engine = Some((6_000, 1));
    let ks = differential_check(&kill).map_err(|e| format!("kill cell: {e}"))?;
    if ks.engines_killed != 1 {
        return Err("kill cell: the engine kill never fired".into());
    }
    if ks.degraded_dispatches == 0 {
        return Err("kill cell: no dispatch degraded after the kill".into());
    }
    let kline = format!(
        "serve kill: engines_killed={} degraded={} descents={} p99={}",
        ks.engines_killed,
        ks.degraded_dispatches,
        ks.ladder_descents(),
        ks.p99
    );
    d.str(&kline);
    out.push_str(&kline);
    out.push('\n');

    // Content digest over one representative session's full metrics
    // snapshot (simulated counters only — nothing host-dependent).
    let (sim, _) = serve(ServeConfig::quick(seed));
    d.str(&sim.metrics().to_json().render());
    out.push_str(&format!(
        "metrics digest: {:#018x}\nserve ok: bit-exact",
        d.finish()
    ));
    Ok(out)
}
