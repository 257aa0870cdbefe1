//! A single-stage, round-robin-arbitrated crossbar switch.
//!
//! This is the intra-cluster interconnect of the hierarchical fabric
//! (MemPool-style): every tile in a cluster talks to every other tile —
//! and to the cluster's global-mesh port — through one low-latency
//! crossbar instead of a multi-hop mesh. The model keeps the same
//! contention disciplines as [`crate::Mesh`] so the two compose into one
//! fabric without impedance mismatch:
//!
//! - per-input bounded queues with [`Backpressure`] at injection,
//! - round-robin arbitration over input ports, scanned from a start the
//!   caller passes each cycle (the fabric rotates one pointer shared by
//!   every crossbar),
//! - at most one grant per *output* port per cycle, with the output held
//!   busy for `flits` cycles (serialization),
//! - a fixed `latency`-cycle wire traversal between grant and delivery.
//!
//! With the default 1-cycle latency a packet injected before tick `t`
//! is granted at `t` and delivered during tick `t+1` — exactly the
//! timing of one mesh hop, which is what "single-cycle local crossbar"
//! means here.

use std::collections::VecDeque;

use maple_sim::Cycle;

use crate::Backpressure;

/// Crossbar geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossbarConfig {
    /// Number of ports (each port is both an input and an output).
    pub ports: usize,
    /// Cycles between arbitration grant and delivery (paper-style
    /// single-cycle switch: 1).
    pub latency: u64,
    /// Packets one input queue holds before backpressure.
    pub buffer_depth: usize,
}

impl CrossbarConfig {
    /// A `ports`-port crossbar with single-cycle traversal and the same
    /// 8-deep input buffering as the mesh routers.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        debug_assert!(ports > 0, "crossbar needs at least one port");
        CrossbarConfig {
            ports,
            latency: 1,
            buffer_depth: 8,
        }
    }

    /// Overrides the grant-to-delivery latency.
    #[must_use]
    pub fn with_latency(mut self, cycles: u64) -> Self {
        self.latency = cycles;
        self
    }
}

#[derive(Debug)]
struct XbarPacket<T> {
    out: usize,
    flits: u8,
    ready_at: Cycle,
    payload: T,
}

#[derive(Debug)]
struct Wire<T> {
    arrives_at: Cycle,
    out: usize,
    payload: T,
}

/// The crossbar switch. See the module docs for the timing model.
///
/// The switch keeps no output queues: a wire traversal that lands hands
/// its payload straight to the caller's sink, so the owner routes it to
/// its final place (a tile's delivery queue, the global mesh) at once.
#[derive(Debug)]
pub struct Crossbar<T> {
    cfg: CrossbarConfig,
    /// Per-input bounded queues.
    inputs: Vec<VecDeque<XbarPacket<T>>>,
    /// Inputs holding a packet: bit `p % 64` of word `p / 64` is set
    /// while `inputs[p]` is non-empty, so arbitration walks only them.
    occupied: Vec<u64>,
    /// Packets queued across every input.
    queued: usize,
    /// Serialization: each output port is busy until this cycle.
    out_busy: Vec<Cycle>,
    /// Granted packets traversing the switch (monotonic arrival order).
    wires: VecDeque<Wire<T>>,
    /// Arbitrations performed (ticks in which an input held a packet).
    visits: u64,
}

impl<T> Crossbar<T> {
    /// Builds an idle crossbar.
    #[must_use]
    pub fn new(cfg: CrossbarConfig) -> Self {
        assert!(cfg.ports > 0, "crossbar must have ports");
        Crossbar {
            cfg,
            inputs: (0..cfg.ports).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; cfg.ports.div_ceil(64)],
            queued: 0,
            out_busy: vec![Cycle::ZERO; cfg.ports],
            wires: VecDeque::new(),
            visits: 0,
        }
    }

    /// Whether `in_port` can accept another packet right now.
    #[must_use]
    pub fn can_inject(&self, in_port: usize) -> bool {
        self.inputs[in_port].len() < self.cfg.buffer_depth
    }

    /// Injects a packet at `in_port` destined for `out_port`.
    ///
    /// `ready_at` is the first cycle the packet may arbitrate (injection
    /// cycle for fresh traffic; later for fault-delayed packets).
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] carrying the payload when the input
    /// queue is full; callers retry on a later cycle.
    ///
    /// # Panics
    ///
    /// Panics if either port is out of range or `flits == 0`.
    pub fn inject(
        &mut self,
        ready_at: Cycle,
        in_port: usize,
        out_port: usize,
        flits: u8,
        payload: T,
    ) -> Result<(), Backpressure<T>> {
        assert!(in_port < self.cfg.ports, "xbar inject: bad input port");
        assert!(out_port < self.cfg.ports, "xbar inject: bad output port");
        assert!(flits > 0, "xbar inject: packets need at least one flit");
        if self.inputs[in_port].len() >= self.cfg.buffer_depth {
            return Err(Backpressure(payload));
        }
        self.inputs[in_port].push_back(XbarPacket {
            out: out_port,
            flits,
            ready_at,
            payload,
        });
        self.occupied[in_port / 64] |= 1 << (in_port % 64);
        self.queued += 1;
        Ok(())
    }

    /// Advances the switch one cycle: hand due wire traversals to
    /// `deliver` as `(output port, payload)` in arrival order, then
    /// arbitrate input heads round-robin from input `start`, with one
    /// grant per output port. With every input empty there is nothing to
    /// arbitrate, and the step only lands due wire traversals.
    pub(crate) fn step(&mut self, now: Cycle, start: usize, mut deliver: impl FnMut(usize, T)) {
        while self.wires.front().is_some_and(|w| w.arrives_at <= now) {
            let w = self.wires.pop_front().expect("front exists");
            deliver(w.out, w.payload);
        }
        if self.queued == 0 {
            return;
        }
        self.visits += 1;
        // The occupied inputs from `start` upwards, then those below it:
        // the full scan's order with the empty inputs left out. A grant
        // only clears bits already passed, so each word is read once.
        let (first, shift) = (start / 64, start % 64);
        let words = self.occupied.len();
        let segments = std::iter::once((first, !0u64 << shift))
            .chain((first + 1..words).chain(0..first).map(|w| (w, !0u64)))
            .chain(std::iter::once((first, (1u64 << shift) - 1)));
        for (w, mask) in segments {
            let mut bits = self.occupied[w] & mask;
            while bits != 0 {
                let port = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.arbitrate(port, now);
            }
        }
    }

    /// Grants input `port`'s head packet if it is ready and its output
    /// is free.
    fn arbitrate(&mut self, port: usize, now: Cycle) {
        let head = self.inputs[port]
            .front()
            .expect("occupied input has a head");
        if head.ready_at > now {
            return;
        }
        let out = head.out;
        // A grant holds its output busy for `flits` ≥ 1 cycles, which
        // also enforces one grant per output port per cycle.
        if self.out_busy[out] > now {
            return;
        }
        let pkt = self.inputs[port].pop_front().expect("head exists");
        if self.inputs[port].is_empty() {
            self.occupied[port / 64] &= !(1 << (port % 64));
        }
        self.queued -= 1;
        self.out_busy[out] = now.plus(u64::from(pkt.flits));
        self.wires.push_back(Wire {
            arrives_at: now.plus(self.cfg.latency),
            out,
            payload: pkt.payload,
        });
    }

    /// Packets buffered in inputs or traversing the switch.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queued + self.wires.len()
    }

    /// Whether the switch holds no packets anywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0
    }

    /// Arbitrations performed since construction: one per tick in which
    /// an input held a packet. Ticks with every input empty add nothing.
    pub(crate) fn visits(&self) -> u64 {
        self.visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps cycle `t` with the scan starting at input `start`, returning
    /// what landed as `(output port, payload)`.
    fn step(x: &mut Crossbar<u32>, t: u64, start: usize) -> Vec<(usize, u32)> {
        let mut landed = Vec::new();
        x.step(Cycle(t), start, |out, v| landed.push((out, v)));
        landed
    }

    /// Steps cycle `t` of a crossbar first stepped at cycle 0, whose
    /// round-robin start has rotated by one per cycle since.
    fn tick(x: &mut Crossbar<u32>, t: u64) -> Vec<(usize, u32)> {
        let start = t as usize % x.cfg.ports;
        step(x, t, start)
    }

    #[test]
    fn single_cycle_traversal_matches_one_mesh_hop() {
        // Inject before tick 0: grant at 0, delivery during tick 1 —
        // the same visible timing as one adjacent-tile mesh hop.
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(4));
        x.inject(Cycle(0), 0, 3, 1, 99).unwrap();
        assert!(tick(&mut x, 0).is_empty());
        assert_eq!(tick(&mut x, 1), [(3, 99)]);
        assert!(x.is_quiescent());
    }

    #[test]
    fn one_grant_per_output_per_cycle() {
        // Two inputs contending for one output: the second is granted a
        // cycle later, so deliveries are spaced by at least one cycle.
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(3));
        x.inject(Cycle(0), 0, 2, 1, 1).unwrap();
        x.inject(Cycle(0), 1, 2, 1, 2).unwrap();
        let mut arrivals = Vec::new();
        for t in 0..8u64 {
            arrivals.extend(tick(&mut x, t).into_iter().map(|(_, v)| (t, v)));
        }
        assert_eq!(arrivals.len(), 2);
        assert!(arrivals[1].0 > arrivals[0].0, "serialized: {arrivals:?}");
    }

    #[test]
    fn serialization_holds_output_for_flit_count() {
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(2));
        x.inject(Cycle(0), 0, 1, 8, 10).unwrap();
        x.inject(Cycle(0), 0, 1, 1, 11).unwrap();
        let mut arrivals = Vec::new();
        for t in 0..20u64 {
            arrivals.extend(tick(&mut x, t).into_iter().map(|(_, v)| (t, v)));
        }
        assert_eq!(
            arrivals.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
            [10, 11]
        );
        assert!(
            arrivals[1].0 - arrivals[0].0 >= 8,
            "8-flit packet must hold the output: {arrivals:?}"
        );
    }

    #[test]
    fn round_robin_is_fair_across_inputs() {
        // Saturate two inputs toward distinct outputs: both make
        // progress every cycle (no starvation).
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(4));
        for i in 0..4 {
            x.inject(Cycle(0), 0, 2, 1, 100 + i).unwrap();
            x.inject(Cycle(0), 1, 3, 1, 200 + i).unwrap();
        }
        let mut landed = Vec::new();
        for t in 0..12u64 {
            landed.extend(tick(&mut x, t));
        }
        let at = |port| -> Vec<u32> {
            landed
                .iter()
                .filter(|&&(o, _)| o == port)
                .map(|&(_, v)| v)
                .collect()
        };
        assert_eq!(at(2), [100, 101, 102, 103]);
        assert_eq!(at(3), [200, 201, 202, 203]);
    }

    #[test]
    fn round_robin_spans_occupancy_words() {
        // 130 inputs span three occupancy words. Every input but one
        // contends for output 0; whichever the pointer reaches first
        // wins, so the grant order is the rotation from each start.
        for start in 0..130 {
            let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(130));
            for p in (0..130).filter(|&p| p != 64) {
                x.inject(Cycle(0), p, 0, 1, p as u32).unwrap();
            }
            let mut order = Vec::new();
            for t in 0..140u64 {
                let from = (start + t as usize) % 130;
                order.extend(step(&mut x, t, from).into_iter().map(|(_, v)| v as usize));
            }
            // The pointer rotates by one per tick, and each grant goes to
            // the first occupied input at or after it (wrapping).
            let mut left: Vec<usize> = (0..130).filter(|&p| p != 64).collect();
            let want: Vec<usize> = (0..129)
                .map(|t| {
                    let ptr = (start + t) % 130;
                    let k = left.iter().position(|&p| p >= ptr).unwrap_or(0);
                    left.remove(k)
                })
                .collect();
            assert_eq!(order, want, "grant order from start {start}");
            assert!(x.is_quiescent());
        }
    }

    #[test]
    fn backpressure_on_full_input() {
        let cfg = CrossbarConfig {
            buffer_depth: 2,
            ..CrossbarConfig::new(2)
        };
        let mut x: Crossbar<u32> = Crossbar::new(cfg);
        assert!(x.inject(Cycle(0), 0, 1, 1, 0).is_ok());
        assert!(x.inject(Cycle(0), 0, 1, 1, 1).is_ok());
        assert!(!x.can_inject(0));
        assert_eq!(x.inject(Cycle(0), 0, 1, 1, 2).unwrap_err(), Backpressure(2));
    }

    #[test]
    fn ready_at_defers_arbitration() {
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(2));
        x.inject(Cycle(5), 0, 1, 1, 9).unwrap();
        for t in 0..5u64 {
            assert!(tick(&mut x, t).is_empty(), "not ready before cycle 5");
        }
        assert!(tick(&mut x, 5).is_empty());
        assert_eq!(tick(&mut x, 6), [(1, 9)]);
    }
}
