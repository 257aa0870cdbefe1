//! The NoC probe: the workload's fabric driven standalone, first idle and
//! then at the workload's own injection rate, to price one fabric tick.
//!
//! The idle tick cost times the simulated cycle count estimates how much
//! of a run's host time goes to scanning an empty fabric — the cost an
//! activity-driven fabric would remove.

use std::time::Instant;

use maple_noc::{Coord, Fabric, MeshConfig};
use maple_sim::rng::SimRng;
use maple_sim::Cycle;
use maple_soc::SocConfig;

/// What the probe measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// Host nanoseconds per tick of the empty fabric.
    pub idle_tick_ns: f64,
    /// Host nanoseconds per tick under load, including injection and
    /// draining the targeted tiles.
    pub loaded_tick_ns: f64,
    /// Packets injected in the loaded phase.
    pub injected: u64,
    /// Packets still undelivered after the drain budget.
    pub undelivered: u64,
}

/// Ticks the drain phase may take after the loaded phase before any
/// packet still in flight counts as undelivered.
const DRAIN_BUDGET: u64 = 100_000;

/// Builds the fabric `System::new` would build for `cfg`.
fn fabric_of(cfg: &SocConfig) -> Fabric<u64> {
    match (cfg.fabric_topology(), cfg.cluster) {
        (Some(topo), Some(cluster)) => Fabric::clustered(topo, cluster.xbar_latency),
        _ => Fabric::flat(MeshConfig::new(cfg.mesh_width, cfg.mesh_height)),
    }
}

/// Runs `ticks` idle ticks, then `ticks` ticks injecting `rate` packets
/// per cycle between uniformly chosen distinct tiles (seeded), draining
/// only the tiles that were targeted.
#[must_use]
pub fn run(cfg: &SocConfig, rate: f64, ticks: u64, seed: u64) -> ProbeResult {
    let mut fabric = fabric_of(cfg);
    let tiles: Vec<Coord> = (0..cfg.mesh_height)
        .flat_map(|y| (0..cfg.mesh_width).map(move |x| Coord::new(x, y)))
        .collect();
    let n = tiles.len() as u64;

    let t0 = Instant::now();
    for c in 0..ticks {
        fabric.tick(Cycle(c));
    }
    let idle_tick_ns = t0.elapsed().as_nanos() as f64 / ticks.max(1) as f64;

    let mut rng = SimRng::seed(seed);
    let mut outstanding = vec![0u64; tiles.len()];
    let mut targeted: Vec<usize> = Vec::new();
    let mut injected = 0u64;
    let mut credit = 0.0f64;
    let drain = |fabric: &mut Fabric<u64>, targeted: &mut Vec<usize>, outstanding: &mut [u64]| {
        targeted.retain(|&t| {
            outstanding[t] -= fabric.take_delivered(tiles[t]).len() as u64;
            outstanding[t] > 0
        });
    };
    let t1 = Instant::now();
    for c in ticks..2 * ticks {
        credit += rate;
        while credit >= 1.0 && n > 1 {
            credit -= 1.0;
            let src = rng.below(n) as usize;
            let dst = ((src as u64 + 1 + rng.below(n - 1)) % n) as usize;
            if fabric
                .inject(Cycle(c), tiles[src], tiles[dst], 1, injected)
                .is_ok()
            {
                injected += 1;
                if outstanding[dst] == 0 {
                    targeted.push(dst);
                }
                outstanding[dst] += 1;
            }
        }
        fabric.tick(Cycle(c));
        drain(&mut fabric, &mut targeted, &mut outstanding);
    }
    let loaded_tick_ns = t1.elapsed().as_nanos() as f64 / ticks.max(1) as f64;

    let mut c = 2 * ticks;
    while !targeted.is_empty() && c < 2 * ticks + DRAIN_BUDGET {
        fabric.tick(Cycle(c));
        drain(&mut fabric, &mut targeted, &mut outstanding);
        c += 1;
    }
    ProbeResult {
        idle_tick_ns,
        loaded_tick_ns,
        injected,
        undelivered: targeted.iter().map(|&t| outstanding[t]).sum(),
    }
}
