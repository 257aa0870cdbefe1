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
//! - round-robin arbitration over input ports, rotated once per tick
//!   (and caught up in bulk by [`Crossbar::skip`], mirroring
//!   [`crate::Mesh::skip`]),
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
#[derive(Debug)]
pub struct Crossbar<T> {
    cfg: CrossbarConfig,
    /// Per-input bounded queues.
    inputs: Vec<VecDeque<XbarPacket<T>>>,
    /// Packets queued across every input.
    queued: usize,
    /// Serialization: each output port is busy until this cycle.
    out_busy: Vec<Cycle>,
    /// Round-robin arbitration pointer over input ports.
    rr_start: usize,
    /// Granted packets traversing the switch (monotonic arrival order).
    wires: VecDeque<Wire<T>>,
    /// Delivered payloads per output port.
    delivered: Vec<VecDeque<T>>,
    /// Delivered payloads not yet taken, across every output.
    undrained: usize,
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
            queued: 0,
            out_busy: vec![Cycle::ZERO; cfg.ports],
            rr_start: 0,
            wires: VecDeque::new(),
            delivered: (0..cfg.ports).map(|_| VecDeque::new()).collect(),
            undrained: 0,
            visits: 0,
        }
    }

    /// The crossbar configuration.
    #[must_use]
    pub fn config(&self) -> &CrossbarConfig {
        &self.cfg
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
        self.queued += 1;
        Ok(())
    }

    /// Advances the switch one cycle: deliver due wire traversals, then
    /// arbitrate input heads round-robin with one grant per output port.
    pub fn tick(&mut self, now: Cycle) {
        let start = self.rr_start;
        self.rr_start = (start + 1) % self.cfg.ports;
        self.step(now, start);
    }

    /// One cycle of the switch with the round-robin scan starting at input
    /// `start`, leaving the crossbar's own pointer alone: a fabric of
    /// crossbars that all rotate in lockstep keeps one shared pointer.
    /// With every input empty there is nothing to arbitrate, and the step
    /// only lands due wire traversals.
    pub(crate) fn step(&mut self, now: Cycle, start: usize) {
        while self.wires.front().is_some_and(|w| w.arrives_at <= now) {
            let w = self.wires.pop_front().expect("front exists");
            self.delivered[w.out].push_back(w.payload);
            self.undrained += 1;
        }
        if self.queued == 0 {
            return;
        }
        self.visits += 1;
        for port in (start..self.cfg.ports).chain(0..start) {
            let Some(head) = self.inputs[port].front() else {
                continue;
            };
            if head.ready_at > now {
                continue;
            }
            let out = head.out;
            // A grant holds its output busy for `flits` ≥ 1 cycles, which
            // also enforces one grant per output port per cycle.
            if self.out_busy[out] > now {
                continue;
            }
            let pkt = self.inputs[port].pop_front().expect("head exists");
            self.queued -= 1;
            self.out_busy[out] = now.plus(u64::from(pkt.flits));
            self.wires.push_back(Wire {
                arrives_at: now.plus(self.cfg.latency),
                out,
                payload: pkt.payload,
            });
        }
    }

    /// Catches the arbitration pointer up over skipped quiescent cycles,
    /// mirroring [`crate::Mesh::skip`], so the first arbitration after an
    /// event-horizon jump matches ticking through the gap.
    pub fn skip(&mut self, cycles: u64) {
        self.rr_start = (self.rr_start + (cycles % self.cfg.ports as u64) as usize)
            % self.cfg.ports;
    }

    /// Removes and returns every payload delivered at `out_port` so far.
    pub fn take_delivered(&mut self, out_port: usize) -> Vec<T> {
        self.undrained -= self.delivered[out_port].len();
        self.delivered[out_port].drain(..).collect()
    }

    /// Removes and returns at most one delivered payload at `out_port`.
    pub fn take_one_delivered(&mut self, out_port: usize) -> Option<T> {
        let v = self.delivered[out_port].pop_front();
        self.undrained -= usize::from(v.is_some());
        v
    }

    /// Peeks the oldest undelivered payload at `out_port`.
    #[must_use]
    pub fn peek_delivered(&self, out_port: usize) -> Option<&T> {
        self.delivered[out_port].front()
    }

    /// Packets buffered in inputs or traversing the switch.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queued + self.wires.len()
    }

    /// Delivered payloads not yet taken, across every output port.
    pub(crate) fn undrained(&self) -> usize {
        self.undrained
    }

    /// Whether the switch holds no packets anywhere (including
    /// undrained deliveries).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0 && self.undrained == 0
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

    #[test]
    fn single_cycle_traversal_matches_one_mesh_hop() {
        // Inject before tick 0: grant at 0, delivery during tick 1 —
        // the same visible timing as one adjacent-tile mesh hop.
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(4));
        x.inject(Cycle(0), 0, 3, 1, 99).unwrap();
        x.tick(Cycle(0));
        assert!(x.take_delivered(3).is_empty());
        x.tick(Cycle(1));
        assert_eq!(x.take_delivered(3), vec![99]);
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
            x.tick(Cycle(t));
            for v in x.take_delivered(2) {
                arrivals.push((t, v));
            }
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
            x.tick(Cycle(t));
            for v in x.take_delivered(1) {
                arrivals.push((t, v));
            }
        }
        assert_eq!(arrivals.iter().map(|&(_, v)| v).collect::<Vec<_>>(), [10, 11]);
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
        for t in 0..12u64 {
            x.tick(Cycle(t));
        }
        assert_eq!(x.take_delivered(2), vec![100, 101, 102, 103]);
        assert_eq!(x.take_delivered(3), vec![200, 201, 202, 203]);
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
    fn skip_rotates_like_ticking_idle() {
        // Dense: N idle ticks rotate the pointer N times. Skipping must
        // reproduce the same pointer so the first arbitration after a
        // gap is identical.
        let mut dense: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(3));
        let mut skipped: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(3));
        for t in 0..7u64 {
            dense.tick(Cycle(t));
        }
        skipped.skip(7);
        assert_eq!(dense.rr_start, skipped.rr_start);
    }

    #[test]
    fn ready_at_defers_arbitration() {
        let mut x: Crossbar<u32> = Crossbar::new(CrossbarConfig::new(2));
        x.inject(Cycle(5), 0, 1, 1, 9).unwrap();
        for t in 0..5u64 {
            x.tick(Cycle(t));
            assert!(x.take_delivered(1).is_empty(), "not ready before cycle 5");
        }
        x.tick(Cycle(5));
        x.tick(Cycle(6));
        assert_eq!(x.take_delivered(1), vec![9]);
    }
}
