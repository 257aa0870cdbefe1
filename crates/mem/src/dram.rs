//! DRAM timing model.
//!
//! Matches the evaluation platforms' main memory: a fixed access latency
//! (300 cycles in Tables 2 and 3) with a bounded number of outstanding
//! requests and a configurable issue bandwidth. Requests complete in issue
//! order for equal latencies but the model supports arbitrary completion
//! ordering upstream (MSHRs / transaction IDs handle reordering).

use std::collections::VecDeque;

use maple_sim::link::DelayQueue;
use maple_sim::stats::{Counter, Histogram};
use maple_sim::Cycle;

/// DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Cycles from issue to data return (paper: 300).
    pub latency: u64,
    /// Requests that may be issued per cycle (bandwidth proxy).
    pub issue_per_cycle: usize,
    /// Maximum requests in flight; further requests queue at the controller.
    pub max_outstanding: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            latency: 300,
            issue_per_cycle: 1,
            max_outstanding: 64,
        }
    }
}

/// Statistics for the DRAM channel.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Requests accepted.
    pub requests: Counter,
    /// Observed queueing + access latency.
    pub latency: Histogram,
    /// Accesses hit by a fault-plane latency spike.
    pub spikes: Counter,
}

/// The DRAM channel: accepts opaque tokens and returns them `latency`
/// cycles after issue, modelling controller queueing when the channel is
/// saturated.
///
/// # Example
///
/// ```
/// use maple_mem::dram::{Dram, DramConfig};
/// use maple_sim::Cycle;
///
/// let mut d: Dram<u32> = Dram::new(DramConfig::default());
/// d.request(Cycle(0), 42);
/// let mut now = Cycle(0);
/// let mut got = None;
/// while got.is_none() {
///     d.tick(now);
///     got = d.pop_completed(now);
///     now += 1;
/// }
/// assert_eq!(got, Some(42));
/// assert!(now.0 >= 300);
/// ```
#[derive(Debug)]
pub struct Dram<T> {
    cfg: DramConfig,
    pending: VecDeque<(Cycle, T)>,
    in_flight: DelayQueue<(Cycle, T)>,
    stats: DramStats,
    /// Fault-plane latency-spike schedule; `None` means nominal timing.
    fault: Option<maple_sim::fault::FaultSchedule>,
    tracer: maple_trace::Tracer,
}

impl<T> Dram<T> {
    /// Creates an idle DRAM channel.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            pending: VecDeque::new(),
            in_flight: DelayQueue::new(),
            stats: DramStats::default(),
            fault: None,
            tracer: maple_trace::Tracer::disabled(),
        }
    }

    /// Installs the fault plane's DRAM latency-spike schedule.
    pub fn set_fault(&mut self, fault: maple_sim::fault::FaultSchedule) {
        self.fault = Some(fault);
    }

    /// Installs an observability tracer (latency-spike injections are
    /// recorded through it).
    pub fn set_tracer(&mut self, tracer: maple_trace::Tracer) {
        self.tracer = tracer;
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Enqueues a request token at the controller.
    pub fn request(&mut self, now: Cycle, token: T) {
        self.stats.requests.inc();
        self.pending.push_back((now, token));
    }

    /// Issues queued requests subject to bandwidth and outstanding limits.
    pub fn tick(&mut self, now: Cycle) {
        for _ in 0..self.cfg.issue_per_cycle {
            if self.in_flight.len() >= self.cfg.max_outstanding {
                break;
            }
            let Some(entry) = self.pending.pop_front() else {
                break;
            };
            let mut latency = self.cfg.latency;
            if let Some(f) = &mut self.fault {
                if f.strike() {
                    self.stats.spikes.inc();
                    latency = latency.saturating_add(f.magnitude());
                    self.tracer.emit(now, || maple_trace::TraceEvent::FaultInjected {
                        site: maple_trace::FaultSite::DramSpike,
                    });
                }
            }
            self.in_flight.send(now, latency, entry);
        }
    }

    /// Pops one completed request, if any.
    pub fn pop_completed(&mut self, now: Cycle) -> Option<T> {
        let (requested_at, token) = self.in_flight.recv(now)?;
        self.stats.latency.record(now.since(requested_at));
        Some(token)
    }

    /// Earliest cycle at or after `now` at which ticking the channel could
    /// have an observable effect, for the event-horizon scheduler.
    ///
    /// A queued request with free outstanding capacity can issue this very
    /// cycle; otherwise the next completion (which also frees capacity for
    /// a queued request) bounds the horizon.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = maple_sim::Horizon::IDLE;
        if !self.pending.is_empty() && self.in_flight.len() < self.cfg.max_outstanding {
            h.at(now);
        }
        h.observe(self.in_flight.next_deadline().map(|d| d.max(now)));
        h.earliest()
    }

    /// Requests accepted but not yet completed.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.in_flight.len()
    }

    /// Whether the channel is idle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// Channel statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency() {
        let mut d: Dram<u8> = Dram::new(DramConfig::default());
        d.request(Cycle(0), 1);
        d.tick(Cycle(0));
        assert_eq!(d.pop_completed(Cycle(299)), None);
        assert_eq!(d.pop_completed(Cycle(300)), Some(1));
        assert!(d.is_idle());
        assert_eq!(d.stats().latency.mean(), 300.0);
    }

    #[test]
    fn bandwidth_limits_issue() {
        let cfg = DramConfig {
            latency: 10,
            issue_per_cycle: 1,
            max_outstanding: 64,
        };
        let mut d: Dram<u32> = Dram::new(cfg);
        for i in 0..4 {
            d.request(Cycle(0), i);
        }
        // One issue per cycle: completions at 10, 11, 12, 13.
        let mut completions = Vec::new();
        for c in 0..20u64 {
            d.tick(Cycle(c));
            while let Some(t) = d.pop_completed(Cycle(c)) {
                completions.push((c, t));
            }
        }
        assert_eq!(
            completions,
            vec![(10, 0), (11, 1), (12, 2), (13, 3)],
            "issue bandwidth staggers completions"
        );
    }

    #[test]
    fn outstanding_cap_backpressures() {
        let cfg = DramConfig {
            latency: 100,
            issue_per_cycle: 4,
            max_outstanding: 2,
        };
        let mut d: Dram<u32> = Dram::new(cfg);
        for i in 0..6 {
            d.request(Cycle(0), i);
        }
        d.tick(Cycle(0));
        assert_eq!(d.outstanding(), 6);
        // Only two issued; the rest wait at the controller.
        assert_eq!(d.pop_completed(Cycle(100)), Some(0));
        assert_eq!(d.pop_completed(Cycle(100)), Some(1));
        assert_eq!(d.pop_completed(Cycle(100)), None);
    }

    #[test]
    fn stats_count_requests() {
        let mut d: Dram<()> = Dram::new(DramConfig::default());
        for _ in 0..5 {
            d.request(Cycle(0), ());
        }
        assert_eq!(d.stats().requests.get(), 5);
    }

    #[test]
    fn fault_plane_spikes_latency() {
        use maple_sim::fault::FaultSchedule;
        let cfg = DramConfig {
            latency: 100,
            issue_per_cycle: 1,
            max_outstanding: 64,
        };
        let mut d: Dram<u8> = Dram::new(cfg);
        d.set_fault(FaultSchedule::new(1.0, 250, 9));
        d.request(Cycle(0), 7);
        d.tick(Cycle(0));
        assert_eq!(d.pop_completed(Cycle(349)), None, "spike adds 250 cycles");
        assert_eq!(d.pop_completed(Cycle(350)), Some(7));
        assert_eq!(d.stats().spikes.get(), 1);
    }
}
