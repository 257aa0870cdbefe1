//! The exact per-layer counters: deterministic simulated counts read from
//! the simulator's metrics snapshot (or, for the bundled BFS cells, from
//! the counters their `RunStats` carries). A change that only speeds up
//! the simulator must leave every one of them identical.

use maple_trace::metrics::MetricValue;
use maple_trace::MetricsSnapshot;
use maple_workloads::RunStats;

/// Summed simulated counts of one rep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    sim_cycles: u64,
    noc_injected: u64,
    noc_hops: u64,
    noc_global_hops: u64,
    noc_latency_sum: f64,
    noc_latency_count: u64,
    instructions: u64,
    loads: u64,
    stall_l1_miss: u64,
    stall_l2_miss: u64,
    stall_dram: u64,
    stall_consume_wait: u64,
    stall_mmio: u64,
    interpreted_ticks: u64,
    fast_path_runs: u64,
    l1_loads: u64,
    l1_hits: u64,
    l2_hits: u64,
    l2_misses: u64,
    dram_requests: u64,
    l2_prefetch_fills: u64,
    mem_fetches: u64,
    produce_stalls: u64,
    consume_stalls: u64,
    lima_completed: u64,
    batches: u64,
    context_switches: u64,
    remaps: u64,
    p50_cycles: u64,
    p99_cycles: u64,
}

impl Counters {
    /// Adds every counter a metrics snapshot carries (per-core and
    /// per-engine entries are summed; per-bank duplicates are skipped).
    pub fn add_snapshot(&mut self, m: &MetricsSnapshot) {
        for (name, value) in m.entries() {
            let (head, rest) = name.split_once('/').unwrap_or((name.as_str(), ""));
            // `core12` and `engine3` are per-instance; `l2` is not.
            let component = match head.trim_end_matches(|c: char| c.is_ascii_digit()) {
                indexed @ ("core" | "engine") => indexed,
                _ => head,
            };
            let slot = match (component, rest) {
                ("sim", "cycles") => &mut self.sim_cycles,
                ("noc", "injected") => &mut self.noc_injected,
                ("noc", "hops") => &mut self.noc_hops,
                ("noc", "global/hops") => &mut self.noc_global_hops,
                ("noc", "latency") => {
                    if let MetricValue::Histogram(h) = value {
                        self.noc_latency_sum += h.mean * h.count as f64;
                        self.noc_latency_count += h.count;
                    }
                    continue;
                }
                ("core", "instructions") => &mut self.instructions,
                ("core", "loads") => &mut self.loads,
                ("core", "stall/l1-miss") => &mut self.stall_l1_miss,
                ("core", "stall/l2-miss") => &mut self.stall_l2_miss,
                ("core", "stall/dram") => &mut self.stall_dram,
                ("core", "stall/consume-wait") => &mut self.stall_consume_wait,
                ("core", "stall/mmio") => &mut self.stall_mmio,
                ("core", "dispatch/interpreted_ticks") => &mut self.interpreted_ticks,
                ("core", "dispatch/fast_path_runs") => &mut self.fast_path_runs,
                ("core", "l1/loads") => &mut self.l1_loads,
                ("core", "l1/load_hits") => &mut self.l1_hits,
                ("l2", "hits") => &mut self.l2_hits,
                ("l2", "misses") => &mut self.l2_misses,
                ("l2", "prefetch_fills") => &mut self.l2_prefetch_fills,
                ("dram", "requests") => &mut self.dram_requests,
                ("engine", "mem_fetches") => &mut self.mem_fetches,
                ("engine", "produce_stalls") => &mut self.produce_stalls,
                ("engine", "consume_stalls") => &mut self.consume_stalls,
                ("engine", "lima_completed") => &mut self.lima_completed,
                ("serve", "batches") => &mut self.batches,
                ("serve", "context_switches") => &mut self.context_switches,
                ("serve", "remaps") => &mut self.remaps,
                _ => continue,
            };
            if let MetricValue::Counter(v) = value {
                *slot += v;
            }
        }
    }

    /// Adds the counters a bundled kernel run reports without its
    /// system: cycles, instructions, loads, stall attribution, NoC
    /// injections and engine 0's activity.
    pub fn add_run_stats(&mut self, s: &RunStats) {
        self.sim_cycles += s.cycles;
        self.noc_injected += s.noc_injected;
        self.instructions += s.cores.iter().map(|c| c.instructions).sum::<u64>();
        self.loads += s.loads;
        self.stall_l1_miss += s.stall.l1_miss;
        self.stall_l2_miss += s.stall.l2_miss;
        self.stall_dram += s.stall.dram;
        self.stall_consume_wait += s.stall.consume_wait;
        self.stall_mmio += s.stall.mmio;
        self.mem_fetches += s.engine.0;
        self.produce_stalls += s.engine.1;
        self.consume_stalls += s.engine.2;
    }

    /// Records a serving session's latency percentiles; across sessions
    /// the worst one is kept.
    pub fn add_serving_tail(&mut self, p50: u64, p99: u64) {
        self.p50_cycles = self.p50_cycles.max(p50);
        self.p99_cycles = self.p99_cycles.max(p99);
    }

    /// NoC packets injected per simulated cycle (0 with no cycles).
    #[must_use]
    pub fn injection_rate(&self) -> f64 {
        if self.sim_cycles == 0 {
            0.0
        } else {
            self.noc_injected as f64 / self.sim_cycles as f64
        }
    }

    /// Every exact counter as `(metric name, value)`, in
    /// `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        vec![
            ("soc.sim_cycles", self.sim_cycles as f64),
            ("noc.injected", self.noc_injected as f64),
            ("noc.hops", self.noc_hops as f64),
            ("noc.global_hops", self.noc_global_hops as f64),
            (
                "noc.latency_mean",
                ratio(self.noc_latency_sum, self.noc_latency_count),
            ),
            ("cpu.instructions", self.instructions as f64),
            ("cpu.loads", self.loads as f64),
            ("cpu.stall.l1_miss", self.stall_l1_miss as f64),
            ("cpu.stall.l2_miss", self.stall_l2_miss as f64),
            ("cpu.stall.dram", self.stall_dram as f64),
            ("cpu.stall.consume_wait", self.stall_consume_wait as f64),
            ("cpu.stall.mmio", self.stall_mmio as f64),
            ("cpu.interpreted_ticks", self.interpreted_ticks as f64),
            ("cpu.fast_path_runs", self.fast_path_runs as f64),
            ("mem.l1_loads", self.l1_loads as f64),
            (
                "mem.l1_hit_ratio",
                ratio(self.l1_hits as f64, self.l1_loads),
            ),
            ("mem.l2_hits", self.l2_hits as f64),
            ("mem.l2_misses", self.l2_misses as f64),
            ("mem.dram_requests", self.dram_requests as f64),
            ("mem.l2_prefetch_fills", self.l2_prefetch_fills as f64),
            ("core.mem_fetches", self.mem_fetches as f64),
            ("core.produce_stalls", self.produce_stalls as f64),
            ("core.consume_stalls", self.consume_stalls as f64),
            ("core.lima_completed", self.lima_completed as f64),
            ("serve.batches", self.batches as f64),
            ("serve.context_switches", self.context_switches as f64),
            ("serve.remaps", self.remaps as f64),
            ("serve.p50_cycles", self.p50_cycles as f64),
            ("serve.p99_cycles", self.p99_cycles as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_entries_sum_across_components_and_skip_banks() {
        let mut m = MetricsSnapshot::new();
        m.counter("sim/cycles", 100);
        m.counter("core0/instructions", 7);
        m.counter("core12/instructions", 5);
        m.counter("core12/stall/consume-wait", 9);
        m.counter("l2/hits", 4);
        m.counter("l2/bank3/hits", 4);
        m.counter("noc/injected", 50);
        m.counter("noc/global/injected", 20);
        m.counter("engine2/mem_fetches", 6);
        let mut c = Counters::default();
        c.add_snapshot(&m);
        c.add_snapshot(&m);
        let get = |name| c.metrics().into_iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("soc.sim_cycles"), 200.0);
        assert_eq!(get("cpu.instructions"), 24.0);
        assert_eq!(get("cpu.stall.consume_wait"), 18.0);
        assert_eq!(get("mem.l2_hits"), 8.0);
        assert_eq!(get("noc.injected"), 100.0);
        assert_eq!(get("core.mem_fetches"), 12.0);
        assert!((c.injection_rate() - 0.5).abs() < 1e-12);
    }
}
