//! Property tests: every injected packet is delivered exactly once, to the
//! right node, under arbitrary traffic patterns — the model-level analogue
//! of the deadlock-freedom/liveness properties the paper proves with
//! JasperGold.

#![allow(clippy::explicit_counter_loop)]

use maple_noc::{Coord, Fabric, MeshConfig};
use maple_sim::Cycle;
use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen, SimRng};

#[derive(Debug, Clone)]
struct Traffic {
    width: u16,
    height: u16,
    /// (sx, sy, dx, dy, flits), coordinates already in range.
    packets: Vec<(u16, u16, u16, u16, u8)>,
}

/// Generates a mesh up to 4×4 with up to 80 random packets. Shrinks by
/// removing packet chunks (reusing the vector shrinker's structural
/// candidates) and by reducing flit counts toward single-flit packets;
/// mesh dimensions stay fixed so every packet remains in range.
struct TrafficGen;

impl Gen for TrafficGen {
    type Value = Traffic;

    fn generate(&self, rng: &mut SimRng) -> Traffic {
        let width = 1 + rng.below(4) as u16;
        let height = 1 + rng.below(4) as u16;
        let n = rng.below(80) as usize;
        let packets = (0..n)
            .map(|_| {
                (
                    rng.below(u64::from(width)) as u16,
                    rng.below(u64::from(height)) as u16,
                    rng.below(u64::from(width)) as u16,
                    rng.below(u64::from(height)) as u16,
                    1 + rng.below(8) as u8,
                )
            })
            .collect();
        Traffic {
            width,
            height,
            packets,
        }
    }

    fn shrink(&self, t: &Traffic) -> Vec<Traffic> {
        let mut out = Vec::new();
        // Structural candidates (chunk removal) come from a VecGen whose
        // element never shrinks; its generate is never called here.
        let structural = gen::vec_of(gen::just((0u16, 0u16, 0u16, 0u16, 1u8)), 0, 80);
        for packets in structural.shrink(&t.packets) {
            out.push(Traffic {
                packets,
                ..t.clone()
            });
        }
        for (i, p) in t.packets.iter().enumerate() {
            if p.4 > 1 {
                let mut packets = t.packets.clone();
                packets[i].4 = 1;
                out.push(Traffic {
                    packets,
                    ..t.clone()
                });
            }
        }
        out
    }
}

#[test]
fn every_packet_delivered_exactly_once() {
    let cfg = Config::new("every_packet_delivered_exactly_once").with_cases(64);
    check(&cfg, &TrafficGen, |t| {
        let mut mesh: Fabric<usize> = Fabric::flat(MeshConfig::new(t.width, t.height));
        let mut now = Cycle(0);
        let mut expected_at: Vec<Coord> = Vec::new();
        for (id, &(sx, sy, dx, dy, flits)) in t.packets.iter().enumerate() {
            let s = Coord::new(sx, sy);
            let d = Coord::new(dx, dy);
            // Retry under backpressure; liveness means this always succeeds.
            let mut tries = 0;
            loop {
                match mesh.inject(now, s, d, flits, id) {
                    Ok(()) => break,
                    Err(_) => {
                        mesh.tick(now);
                        now += 1;
                        tries += 1;
                        tk_assert!(tries < 10_000, "injection starved: deadlock?");
                    }
                }
            }
            expected_at.push(d);
        }

        let mut seen = vec![0u32; t.packets.len()];
        let budget = 20_000u64;
        for _ in 0..budget {
            mesh.tick(now);
            for y in 0..t.height {
                for x in 0..t.width {
                    let here = Coord::new(x, y);
                    for id in mesh.take_delivered(here) {
                        tk_assert_eq!(expected_at[id], here, "wrong destination");
                        seen[id] += 1;
                    }
                }
            }
            now += 1;
            if seen.iter().all(|&c| c == 1) {
                break;
            }
        }
        tk_assert!(
            seen.iter().all(|&c| c == 1),
            "not all packets delivered exactly once: {seen:?}"
        );
        tk_assert!(mesh.is_quiescent());
        Ok(())
    });
}

#[test]
fn latency_lower_bound_is_hop_count() {
    let inputs = (
        gen::u8_in(2..6),
        gen::u8_in(2..6),
        gen::u8_in(0..6),
        gen::u8_in(0..6),
        gen::u8_in(0..6),
        gen::u8_in(0..6),
    );
    check(
        &Config::new("latency_lower_bound_is_hop_count"),
        &inputs,
        |&(w, h, sx, sy, dx, dy)| {
            let s = Coord::new(u16::from(sx % w), u16::from(sy % h));
            let d = Coord::new(u16::from(dx % w), u16::from(dy % h));
            let mut mesh: Fabric<u8> = Fabric::flat(MeshConfig::new(w.into(), h.into()));
            mesh.inject(Cycle(0), s, d, 1, 0).unwrap();
            let mut now = Cycle(0);
            let mut arrived = None;
            for _ in 0..1000 {
                mesh.tick(now);
                if !mesh.take_delivered(d).is_empty() {
                    arrived = Some(now);
                    break;
                }
                now += 1;
            }
            let Some(arrived) = arrived else {
                return Err("must deliver".to_string());
            };
            // An uncontended packet takes exactly hops cycles (one per hop),
            // ejecting on the cycle it becomes ready at the destination.
            tk_assert_eq!(arrived.0, s.hops_to(d));
            Ok(())
        },
    );
}
