//! The multi-tenant differential oracle.
//!
//! Sharing one SoC between tenants must never change what any tenant
//! computes. The oracle proves it the strong way: run the full
//! multi-tenant session (chaos, kills and all), then re-run **each
//! tenant solo on a clean system** — same spec, same seeded request
//! stream, no other tenants, no faults — and demand that every
//! request's output bytes are identical in both runs *and* equal to the
//! host reference. Any cross-tenant corruption (a stale replay-cache
//! hit, a leaked queue entry, a stale MMIO translation after a remap)
//! shows up as a byte diff on some request.
//!
//! The check is stepper-agnostic on purpose: the caller picks dense or
//! skipping through [`ServeConfig`], and the `serve_check` CI gate
//! byte-diffs the whole grid across `MAPLE_JOBS` values.

use crate::sim::{serve, ServeConfig, ServingSummary};

/// Runs the multi-tenant session and the per-tenant solo sessions,
/// byte-comparing every request's output.
///
/// Returns the multi-tenant summary on success.
///
/// # Errors
///
/// Returns which tenant and request diverged (or failed verification)
/// on the first violation.
pub fn differential_check(cfg: &ServeConfig) -> Result<ServingSummary, String> {
    let (multi, summary) = serve(cfg.clone());
    if !summary.verified {
        let missing = summary.total_requests - summary.completed;
        return Err(format!(
            "multi-tenant session left {missing} requests unverified"
        ));
    }
    for (t, spec) in cfg.tenants.iter().enumerate() {
        let mut solo_cfg = cfg.clone();
        solo_cfg.tenants = vec![spec.clone()];
        solo_cfg.chaos = None;
        solo_cfg.kill_engine = None;
        let (solo, solo_summary) = serve(solo_cfg);
        if !solo_summary.verified {
            return Err(format!("solo run of tenant {} failed to verify", spec.name));
        }
        let shared = &multi.outputs()[t];
        let alone = &solo.outputs()[0];
        for (i, (a, b)) in shared.iter().zip(alone).enumerate() {
            if a != b {
                return Err(format!(
                    "tenant {} request {i}: multi-tenant output diverged from solo run",
                    spec.name
                ));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maple_workloads::oracle::chaos_schedules;

    #[test]
    fn quick_grid_is_isolation_clean() {
        let cfg = ServeConfig::quick(42);
        let summary = differential_check(&cfg).expect("skipping stepper");
        assert!(summary.verified);
        assert_eq!(summary.completed, summary.total_requests);

        let mut dense = ServeConfig::quick(42);
        dense.dense = true;
        differential_check(&dense).expect("dense stepper");
    }

    #[test]
    fn chaos_session_stays_isolated() {
        // A recoverable schedule: the recovery machinery must absorb the
        // faults without a single cross-tenant byte flip.
        let mut cfg = ServeConfig::quick(7);
        cfg.chaos = Some(chaos_schedules(7)[0].plane.clone());
        let summary = differential_check(&cfg).expect("recoverable chaos");
        assert!(summary.verified);
    }

    #[test]
    fn one_cluster_session_matches_flat() {
        // The serving stack must not notice the degenerate hierarchy:
        // identical outputs AND an identical summary (latencies, switch
        // counts, batch rounds) when the flat mesh is re-expressed as a
        // single crossbar cluster.
        let flat_cfg = ServeConfig::quick(42);
        let soc = flat_cfg.soc_config();
        let tiles = usize::from(soc.mesh_width) * usize::from(soc.mesh_height);
        let mut one_cfg = flat_cfg.clone();
        one_cfg.cluster = Some(maple_soc::ClusterConfig::new(tiles, 1, 1));
        let (flat, flat_summary) = serve(flat_cfg);
        let (one, one_summary) = serve(one_cfg);
        assert_eq!(
            flat.outputs(),
            one.outputs(),
            "1-cluster outputs diverged from flat"
        );
        assert_eq!(
            format!("{flat_summary:?}"),
            format!("{one_summary:?}"),
            "1-cluster serving summary diverged from flat"
        );
    }

    #[test]
    fn clustered_session_stays_isolated() {
        // Per-cluster MAPLE pools and banked L2 must not weaken tenant
        // isolation: the full differential (multi vs solo per tenant)
        // on a live 2x2 hierarchy, then again under recoverable chaos
        // with an engine kill so context switches and degradations cross
        // cluster boundaries.
        let mut cfg = ServeConfig::quick(42);
        cfg.cluster = Some(maple_soc::ClusterConfig::new(9, 2, 2));
        let summary = differential_check(&cfg).expect("clustered session");
        assert!(summary.verified);
        assert_eq!(summary.completed, summary.total_requests);

        let mut chaotic = cfg.clone();
        chaotic.chaos = Some(chaos_schedules(7)[0].plane.clone());
        chaotic.kill_engine = Some((4_000, 1));
        let summary = differential_check(&chaotic).expect("clustered chaos + kill");
        assert!(summary.verified);
    }

    #[test]
    fn engine_kill_degrades_without_corruption() {
        let mut cfg = ServeConfig::quick(13);
        cfg.kill_engine = Some((4_000, 1));
        let summary = differential_check(&cfg).expect("engine kill");
        assert_eq!(summary.engines_killed, 1);
        assert!(
            summary.degraded_dispatches > 0,
            "dead engine lanes served sw-dec"
        );
        assert!(summary.verified);
    }
}
