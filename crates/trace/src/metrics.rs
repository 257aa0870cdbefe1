//! The unified metrics registry and the stall-attribution report.
//!
//! Before this module, every layer printed its own stats struct by hand
//! (`CpuStats`, `L1Stats`, `EngineStats`, `MeshStats`, `ChaosStats`, …).
//! A [`MetricsSnapshot`] flattens all of them into one ordered list of
//! named, typed metrics with exactly two renderers: a text table and a
//! JSON document. `System::metrics_snapshot` in `maple-soc` is the single
//! place that does the flattening.
//!
//! [`StallBreakdown`] is the report the paper's latency-tolerance argument
//! needs: each core's cycles split into compute / L1-miss / L2-miss /
//! DRAM / consume-wait / MMIO / fault-recovery. Cores attribute each
//! blocking stall when its response arrives (the serving level rides back
//! on the response — see `ServedBy` in `maple-mem`), so the split is
//! measured, not modelled.

use std::fmt::Write as _;

use maple_sim::stats::Histogram;

use crate::event::StallCause;
use crate::json::Json;

/// Per-core (or aggregated) stall cycles by attributed cause.
///
/// `compute` is derived, not stored: it is whatever part of the total
/// core-cycles no stall claimed (this also absorbs the short fixed-cost
/// stalls of L1 hits and page-table walks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Stall cycles on loads served by the shared L2 (an L1 miss).
    pub l1_miss: u64,
    /// Stall cycles on accesses filled from DRAM through the L2 (an L2
    /// miss).
    pub l2_miss: u64,
    /// Stall cycles on the direct-to-DRAM path (no L2 lookup).
    pub dram: u64,
    /// Stall cycles on blocking MMIO loads (MAPLE `CONSUME`).
    pub consume_wait: u64,
    /// Stall cycles on other MMIO backpressure (unacked produce stores).
    pub mmio: u64,
    /// Stall cycles attributable to fault recovery (watchdog-retried
    /// transactions, page-fault service).
    pub fault_recovery: u64,
}

impl StallBreakdown {
    /// Adds `cycles` to the bucket for `cause`.
    ///
    /// [`StallCause::L1Hit`] has no bucket by design — the fixed L1 hit
    /// latency is pipeline cost, so those cycles stay in the compute
    /// remainder.
    pub fn add(&mut self, cause: StallCause, cycles: u64) {
        match cause {
            StallCause::L1Hit => {}
            StallCause::L1Miss => self.l1_miss += cycles,
            StallCause::L2Miss => self.l2_miss += cycles,
            StallCause::Dram => self.dram += cycles,
            StallCause::ConsumeWait => self.consume_wait += cycles,
            StallCause::Mmio => self.mmio += cycles,
            StallCause::FaultRecovery => self.fault_recovery += cycles,
        }
    }

    /// Total attributed stall cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.l1_miss
            + self.l2_miss
            + self.dram
            + self.consume_wait
            + self.mmio
            + self.fault_recovery
    }

    /// Merges another breakdown into this one (for aggregating cores).
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.l1_miss += other.l1_miss;
        self.l2_miss += other.l2_miss;
        self.dram += other.dram;
        self.consume_wait += other.consume_wait;
        self.mmio += other.mmio;
        self.fault_recovery += other.fault_recovery;
    }

    /// Compute cycles given the total core-cycles the breakdown covers.
    #[must_use]
    pub fn compute(&self, core_cycles: u64) -> u64 {
        core_cycles.saturating_sub(self.total())
    }

    /// The buckets as `(label, cycles)` pairs, table order.
    #[must_use]
    pub fn buckets(&self) -> [(&'static str, u64); 6] {
        [
            ("l1-miss", self.l1_miss),
            ("l2-miss", self.l2_miss),
            ("dram", self.dram),
            ("consume-wait", self.consume_wait),
            ("mmio", self.mmio),
            ("fault-recovery", self.fault_recovery),
        ]
    }

    /// JSON object with one member per bucket plus the derived compute
    /// remainder.
    #[must_use]
    pub fn to_json(&self, core_cycles: u64) -> Json {
        let mut members = vec![
            ("core_cycles", Json::from(core_cycles)),
            ("compute", Json::from(self.compute(core_cycles))),
        ];
        for (label, cycles) in self.buckets() {
            members.push((label, Json::from(cycles)));
        }
        Json::obj(members)
    }
}

/// One row of the stall-attribution table: a label (variant, core, …),
/// the core-cycles it covers, and the attributed breakdown.
#[derive(Debug, Clone)]
pub struct StallRow {
    /// Row label.
    pub label: String,
    /// Total core-cycles covered (run cycles × participating cores).
    pub core_cycles: u64,
    /// The attributed stalls.
    pub breakdown: StallBreakdown,
}

/// Renders the stall-attribution table the fig08–fig15 binaries print:
/// one row per label, percentage of core-cycles per bucket.
#[must_use]
pub fn stall_table(rows: &[StallRow]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<22}{:>14}", "stall attribution", "core-cycles");
    let headers = [
        "compute", "l1-miss", "l2-miss", "dram", "consume", "mmio", "fault",
    ];
    for h in headers {
        let _ = write!(out, "{h:>9}");
    }
    out.push('\n');
    for row in rows {
        let pct = |cycles: u64| {
            if row.core_cycles == 0 {
                0.0
            } else {
                100.0 * cycles as f64 / row.core_cycles as f64
            }
        };
        let b = &row.breakdown;
        let _ = write!(out, "{:<22}{:>14}", row.label, row.core_cycles);
        for cycles in [
            b.compute(row.core_cycles),
            b.l1_miss,
            b.l2_miss,
            b.dram,
            b.consume_wait,
            b.mmio,
            b.fault_recovery,
        ] {
            let _ = write!(out, "{:>8.1}%", pct(cycles));
        }
        out.push('\n');
    }
    out
}

/// JSON form of the stall-attribution table (one object per row).
#[must_use]
pub fn stall_json(rows: &[StallRow]) -> Json {
    Json::Array(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("label", Json::from(r.label.as_str())),
                    ("attribution", r.breakdown.to_json(r.core_cycles)),
                ])
            })
            .collect(),
    )
}

/// A histogram flattened to its headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucketed upper bound).
    pub p50: u64,
    /// 95th percentile (bucketed upper bound).
    pub p95: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarizes a [`Histogram`].
    #[must_use]
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(50.0).unwrap_or(0),
            p95: h.percentile(95.0).unwrap_or(0),
            max: h.max().unwrap_or(0),
        }
    }
}

/// A metric's value: monotonically counted, sampled, or distributional.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Counter(u64),
    /// A point-in-time or derived value.
    Gauge(f64),
    /// A distribution summary.
    Histogram(HistogramSummary),
}

/// An ordered, named collection of metrics with one text renderer and one
/// JSON renderer.
///
/// Names are slash-separated paths (`core0/instructions`,
/// `engine0/queue0/occupancy`), inserted in the order the producer walks
/// its components, so tables group naturally by component.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Records a counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries
            .push((name.into(), MetricValue::Counter(value)));
    }

    /// Records a gauge.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), MetricValue::Gauge(value)));
    }

    /// Records a histogram summary.
    pub fn histogram(&mut self, name: impl Into<String>, h: &Histogram) {
        self.entries
            .push((name.into(), MetricValue::Histogram(HistogramSummary::of(h))));
    }

    /// The entries, insertion-ordered.
    #[must_use]
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Looks a metric up by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Keeps only the entries whose name satisfies `pred`, preserving
    /// registration order (e.g. one namespace such as `serve/` before
    /// rendering a table of it).
    pub fn retain(&mut self, mut pred: impl FnMut(&str) -> bool) {
        self.entries.retain(|(name, _)| pred(name));
    }

    /// Renders the text table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let _ = write!(out, "{name:<width$}  ");
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{v:.2}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "count={} mean={:.1} p50={} p95={} max={}",
                        h.count, h.mean, h.p50, h.p95, h.max
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object keyed by metric name.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        MetricValue::Counter(c) => Json::from(*c),
                        MetricValue::Gauge(g) => Json::from(*g),
                        MetricValue::Histogram(h) => Json::obj(vec![
                            ("count", Json::from(h.count)),
                            ("mean", Json::from(h.mean)),
                            ("p50", Json::from(h.p50)),
                            ("p95", Json::from(h.p95)),
                            ("max", Json::from(h.max)),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounting() {
        let mut b = StallBreakdown::default();
        b.add(StallCause::L1Miss, 10);
        b.add(StallCause::Dram, 5);
        b.add(StallCause::ConsumeWait, 25);
        assert_eq!(b.total(), 40);
        assert_eq!(b.compute(100), 60);
        assert_eq!(b.compute(30), 0, "saturates instead of underflowing");
        let mut agg = StallBreakdown::default();
        agg.merge(&b);
        agg.merge(&b);
        assert_eq!(agg.total(), 80);
        let j = b.to_json(100);
        assert_eq!(j.get("compute").unwrap().as_u64(), Some(60));
        assert_eq!(j.get("consume-wait").unwrap().as_u64(), Some(25));
    }

    #[test]
    fn stall_table_renders_percentages() {
        let mut b = StallBreakdown::default();
        b.add(StallCause::L2Miss, 50);
        let rows = vec![StallRow {
            label: "maple-dec".into(),
            core_cycles: 200,
            breakdown: b,
        }];
        let table = stall_table(&rows);
        assert!(table.contains("maple-dec"));
        assert!(table.contains("25.0%"), "l2-miss share:\n{table}");
        assert!(table.contains("75.0%"), "compute remainder:\n{table}");
        let json = stall_json(&rows);
        assert_eq!(
            json.as_array().unwrap()[0]
                .get("attribution")
                .unwrap()
                .get("l2-miss")
                .unwrap()
                .as_u64(),
            Some(50)
        );
    }

    #[test]
    fn snapshot_render_and_json() {
        let mut h = Histogram::new();
        for v in [1, 2, 300] {
            h.record(v);
        }
        let mut m = MetricsSnapshot::new();
        m.counter("core0/instructions", 1234);
        m.gauge("mesh/mean_latency", 7.5);
        m.histogram("dram/latency", &h);
        assert_eq!(m.entries().len(), 3);
        assert!(matches!(
            m.get("core0/instructions"),
            Some(MetricValue::Counter(1234))
        ));
        let table = m.render_table();
        assert!(table.contains("core0/instructions"));
        assert!(table.contains("count=3"));
        let j = m.to_json();
        assert_eq!(j.get("core0/instructions").unwrap().as_u64(), Some(1234));
        assert_eq!(
            j.get("dram/latency")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(3)
        );
    }
}
