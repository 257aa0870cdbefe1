//! Differential property: the activity-driven fabric tick is
//! indistinguishable, cycle by cycle, from the full-scan reference tick in
//! `reference/` — same injection verdicts, same delivered `(tile, payload)`
//! sequence, same `MeshStats`, same `in_flight` and `is_quiescent` — on
//! random flat meshes and clustered topologies, under multi-flit traffic
//! with backpressure, fault-plane drops and delays, and `skip` gaps. The
//! generator includes clusters of more than 64 tiles, so crossbar input
//! occupancy spans several 64-bit words, and starts every scenario at a
//! random round-robin offset. Every cycle, every packet must be accounted
//! for: `injected = delivered + dropped + in_flight`.

mod reference;

use maple_noc::{ClusterTopology, Coord, Fabric, MeshConfig, NocFault, XbarFault};
use maple_sim::fault::FaultPlaneConfig;
use maple_sim::Cycle;
use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen, SimRng};
use reference::{RefClustered, RefFabric, RefMesh};

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `width × height` routers, hop latency, buffer depth.
    Flat(u16, u16, u64, usize),
    /// Cluster width and height, clusters across and down, crossbar latency.
    Clustered(u16, u16, u16, u16, u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Drain {
    All,
    One,
    Keep,
}

#[derive(Debug, Clone, PartialEq)]
struct Step {
    /// `(src tile, dst tile, flits, unreliable)`, tiles taken modulo the
    /// fabric's tile count.
    injections: Vec<(u16, u16, u8, bool)>,
    drain: Drain,
    /// Cycles skipped after this step's tick (0: none).
    skip: u64,
}

#[derive(Debug, Clone)]
struct Scenario {
    shape: Shape,
    /// Cycles skipped before the first step: the round-robin start.
    offset: u64,
    /// Fault-plane seed, drop rate and delay rate (`None`: reliable).
    faults: Option<(u64, f64, f64)>,
    steps: Vec<Step>,
}

struct ScenarioGen;

impl Gen for ScenarioGen {
    type Value = Scenario;

    fn generate(&self, rng: &mut SimRng) -> Scenario {
        let shape = match rng.below(5) {
            0 | 1 => Shape::Flat(
                1 + rng.below(5) as u16,
                1 + rng.below(5) as u16,
                1 + rng.below(3),
                1 + rng.below(8) as usize,
            ),
            2 | 3 => Shape::Clustered(
                1 + rng.below(3) as u16,
                1 + rng.below(3) as u16,
                1 + rng.below(3) as u16,
                1 + rng.below(3) as u16,
                1 + rng.below(3),
            ),
            // 72–99 tiles per cluster: crossbar occupancy crosses a
            // 64-bit word boundary, and the mesh port sits past it.
            _ => Shape::Clustered(
                9 + rng.below(3) as u16,
                8 + rng.below(2) as u16,
                1 + rng.below(2) as u16,
                1 + rng.below(2) as u16,
                1 + rng.below(3),
            ),
        };
        let tiles = match shape {
            Shape::Flat(w, h, ..) => u64::from(w) * u64::from(h),
            Shape::Clustered(cw, ch, cx, cy, _) => {
                u64::from(cw) * u64::from(ch) * u64::from(cx) * u64::from(cy)
            }
        };
        let span = tiles.max(81);
        let offset = rng.below(128);
        let faults = (rng.below(3) == 0).then(|| {
            (
                rng.below(1 << 20),
                rng.below(4) as f64 * 0.1,
                rng.below(4) as f64 * 0.1,
            )
        });
        // Bursty load: some steps inject many packets from few sources,
        // so input buffers fill and injection meets backpressure.
        let steps = (0..rng.below(60) as usize)
            .map(|_| {
                let burst = if rng.below(4) == 0 { 12 } else { 3 };
                let hot = rng.below(4) as u16;
                Step {
                    injections: (0..rng.below(burst) as usize)
                        .map(|_| {
                            let src = if rng.below(2) == 0 {
                                hot
                            } else {
                                rng.below(span) as u16
                            };
                            (
                                src,
                                rng.below(span) as u16,
                                1 + rng.below(4) as u8 * rng.below(3) as u8,
                                rng.below(2) == 0,
                            )
                        })
                        .collect(),
                    drain: match rng.below(4) {
                        0 => Drain::Keep,
                        1 => Drain::One,
                        _ => Drain::All,
                    },
                    skip: if rng.below(8) == 0 {
                        1 + rng.below(12)
                    } else {
                        0
                    },
                }
            })
            .collect();
        Scenario {
            shape,
            offset,
            faults,
            steps,
        }
    }

    fn shrink(&self, s: &Scenario) -> Vec<Scenario> {
        let empty = Step {
            injections: Vec::new(),
            drain: Drain::All,
            skip: 0,
        };
        gen::vec_of(gen::just(empty), 0, 60)
            .shrink(&s.steps)
            .into_iter()
            .map(|steps| Scenario { steps, ..s.clone() })
            .collect()
    }
}

fn build(s: &Scenario) -> (Fabric<u32>, RefFabric<u32>, Vec<Coord>) {
    let (mut fabric, mut reference, width, height) = match s.shape {
        Shape::Flat(w, h, hop, depth) => {
            let cfg = MeshConfig::new(w, h)
                .with_hop_latency(hop)
                .with_buffer_depth(depth);
            (
                Fabric::flat(cfg),
                RefFabric::Flat(Box::new(RefMesh::new(cfg))),
                w,
                h,
            )
        }
        Shape::Clustered(cw, ch, cx, cy, lat) => {
            let topo = ClusterTopology::new(cw, ch, cx, cy);
            (
                Fabric::clustered(topo, lat),
                RefFabric::Clustered(Box::new(RefClustered::new(topo, lat))),
                topo.total_width(),
                topo.total_height(),
            )
        }
    };
    if let Some((seed, drop, delay)) = s.faults {
        let plane = FaultPlaneConfig::new(seed)
            .with_noc_drop(drop)
            .with_noc_delay(delay, 7)
            .with_xbar_drop(drop)
            .with_xbar_delay(delay, 3);
        fabric.set_fault_plane(&plane);
        match &mut reference {
            RefFabric::Flat(m) => m.set_fault(NocFault::from_plane(&plane)),
            RefFabric::Clustered(c) => {
                c.set_faults(NocFault::from_plane(&plane), XbarFault::from_plane(&plane));
            }
        }
    }
    let tiles = (0..height)
        .flat_map(|y| (0..width).map(move |x| Coord::new(x, y)))
        .collect();
    (fabric, reference, tiles)
}

/// Drains both fabrics per `drain` and compares everything observable.
fn compare(
    fabric: &mut Fabric<u32>,
    reference: &mut RefFabric<u32>,
    tiles: &[Coord],
    drain: Drain,
    now: Cycle,
) -> Result<(), String> {
    let mut pending = Vec::new();
    fabric.delivered_tiles(&mut pending);
    if drain != Drain::Keep {
        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut yielded = Vec::new();
        for &t in tiles {
            let (g, w) = if drain == Drain::All {
                (fabric.take_delivered(t), reference.take_delivered(t))
            } else {
                (
                    fabric.take_one_delivered(t).into_iter().collect(),
                    reference.take_one_delivered(t).into_iter().collect(),
                )
            };
            if !g.is_empty() {
                yielded.push(t);
            }
            got.extend(g.into_iter().map(|p| (t, p)));
            want.extend(w.into_iter().map(|p| (t, p)));
        }
        tk_assert_eq!(got, want, "delivered sequence at {now}");
        tk_assert_eq!(pending, yielded, "delivered_tiles at {now}");
    }
    tk_assert_eq!(fabric.stats(), reference.stats(), "stats at {now}");
    tk_assert_eq!(
        fabric.global_mesh_stats(),
        reference.global_mesh_stats(),
        "global mesh stats at {now}"
    );
    tk_assert_eq!(
        fabric.in_flight(),
        reference.in_flight(),
        "in_flight at {now}"
    );
    tk_assert_eq!(
        fabric.is_quiescent(),
        reference.is_quiescent(),
        "is_quiescent at {now}"
    );
    let s = fabric.stats();
    tk_assert_eq!(
        s.injected.get(),
        s.delivered.get() + s.dropped.get() + fabric.in_flight() as u64,
        "injected = delivered + dropped + in_flight at {now}"
    );
    Ok(())
}

#[test]
fn activity_driven_tick_matches_full_scan_reference() {
    let cfg = Config::new("activity_driven_tick_matches_full_scan_reference").with_cases(160);
    check(&cfg, &ScenarioGen, |s| {
        let (mut fabric, mut reference, tiles) = build(s);
        let n = tiles.len();
        fabric.skip(s.offset);
        reference.skip(s.offset);
        let mut now = Cycle(s.offset);
        let mut id = 0u32;
        for step in &s.steps {
            for &(src, dst, flits, unreliable) in &step.injections {
                let (src, dst) = (tiles[usize::from(src) % n], tiles[usize::from(dst) % n]);
                tk_assert_eq!(fabric.can_inject(src), reference.can_inject(src));
                let got = if unreliable {
                    fabric.inject_unreliable(now, src, dst, flits, id)
                } else {
                    fabric.inject(now, src, dst, flits, id)
                };
                let want = reference.inject(now, src, dst, flits, id, unreliable);
                tk_assert_eq!(got, want, "injection verdict at {now}");
                id += 1;
            }
            fabric.tick(now);
            reference.tick(now);
            compare(&mut fabric, &mut reference, &tiles, step.drain, now)?;
            now += 1;
            if step.skip > 0 {
                fabric.skip(step.skip);
                reference.skip(step.skip);
                now += step.skip;
            }
        }
        // Drain to quiescence, still comparing every cycle.
        for _ in 0..2_000 {
            if reference.is_quiescent() {
                break;
            }
            fabric.tick(now);
            reference.tick(now);
            compare(&mut fabric, &mut reference, &tiles, Drain::All, now)?;
            now += 1;
        }
        tk_assert!(fabric.is_quiescent(), "fabric never drained");
        Ok(())
    });
}
