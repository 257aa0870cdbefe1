//! The metric catalogue: every metric the benchmark reports, with its
//! unit, its direction and (end-to-end metrics only) the bound by which it
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! lists exactly these; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// A deterministic simulated count, identical across runs of one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("sim_mcps", "Mcycles/s", Higher, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
];

/// The per-layer metrics, measured in the traced run.
pub const PER_LAYER: [MetricDef; 55] = [
    timed("workloads.gen_s", "s"),
    timed("workloads.verify_s", "s"),
    timed("workloads.cell_s.spmv.doall", "s"),
    timed("workloads.cell_s.spmv.sw-dec", "s"),
    timed("workloads.cell_s.spmv.maple-dec", "s"),
    timed("workloads.cell_s.spmv.desc", "s"),
    timed("workloads.cell_s.spmv.maple-lima", "s"),
    timed("workloads.cell_s.spmv.droplet", "s"),
    timed("workloads.cell_s.spmv.sw-pref", "s"),
    timed("workloads.cell_s.bfs.maple-dec", "s"),
    timed("workloads.cell_s.bfs.desc", "s"),
    timed("soc.new_s", "s"),
    timed("soc.upload_s", "s"),
    timed("soc.load_s", "s"),
    timed("soc.run_s", "s"),
    timed("soc.ns_per_cycle", "ns"),
    timed("soc.ns_per_tile_cycle", "ns"),
    exact("soc.sim_cycles", "cycles", Lower),
    timed("noc.idle_tick_ns", "ns"),
    timed("noc.loaded_tick_ns", "ns"),
    timed("noc.idle_share", "fraction"),
    exact("noc.injected", "count", Lower),
    exact("noc.hops", "count", Lower),
    exact("noc.global_hops", "count", Lower),
    exact("noc.latency_mean", "cycles", Lower),
    timed("cpu.ns_per_inst", "ns"),
    exact("cpu.instructions", "count", Lower),
    exact("cpu.loads", "count", Lower),
    exact("cpu.stall.l1_miss", "cycles", Lower),
    exact("cpu.stall.l2_miss", "cycles", Lower),
    exact("cpu.stall.dram", "cycles", Lower),
    exact("cpu.stall.consume_wait", "cycles", Lower),
    exact("cpu.stall.mmio", "cycles", Lower),
    exact("cpu.interpreted_ticks", "count", Lower),
    exact("cpu.fast_path_runs", "count", Higher),
    exact("mem.l1_loads", "count", Lower),
    exact("mem.l1_hit_ratio", "ratio", Higher),
    exact("mem.l2_hits", "count", Higher),
    exact("mem.l2_misses", "count", Lower),
    exact("mem.dram_requests", "count", Lower),
    exact("mem.l2_prefetch_fills", "count", Higher),
    exact("core.mem_fetches", "count", Lower),
    exact("core.produce_stalls", "count", Lower),
    exact("core.consume_stalls", "count", Lower),
    exact("core.lima_completed", "count", Higher),
    timed("serve.new_s", "s"),
    timed("serve.run_s", "s"),
    timed("serve.ns_per_batch", "ns"),
    exact("serve.batches", "count", Lower),
    exact("serve.context_switches", "count", Lower),
    exact("serve.remaps", "count", Lower),
    exact("serve.p50_cycles", "cycles", Lower),
    exact("serve.p99_cycles", "cycles", Lower),
    timed("trace.snapshot_s", "s"),
    timed("trace_overhead_frac", "fraction"),
];

/// Looks a metric up in either tier.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The per-layer metric that reports the host time of spans named
/// `span`: `soc.run` → `soc.run_s`, `workloads.cell.spmv.doall` →
/// `workloads.cell_s.spmv.doall`.
#[must_use]
pub fn span_metric(span: &str) -> String {
    let mut parts = span.splitn(3, '.');
    let layer = parts.next().unwrap_or_default();
    let call = parts.next().unwrap_or_default();
    match parts.next() {
        Some(rest) => format!("{layer}.{call}_s.{rest}"),
        None => format!("{layer}.{call}_s"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_spans_map_onto_the_catalogue() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for span in [
            "soc.run",
            "serve.new",
            "trace.snapshot",
            "workloads.cell.bfs.desc",
        ] {
            assert!(find(&span_metric(span)).is_some(), "{span}");
        }
    }
}
