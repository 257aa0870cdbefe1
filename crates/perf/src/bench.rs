//! One benchmark run: a closed loop of back-to-back reps of one workload,
//! reduced to the end-to-end metrics, or (traced) followed by one rep
//! whose spans give the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use maple_trace::Json;

use crate::counters::Counters;
use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::probe;
use crate::spans::Spans;
use crate::workloads::{is_run_span, RepOutcome, Scale, Workload, SETUP_SPANS};

/// A checked benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Minimum seconds of reps.
    pub seconds: f64,
    /// Minimum number of reps.
    pub reps: usize,
    /// Whether to add the traced rep and report per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes `trace.json` and `layers.json`.
    pub trace_dir: Option<PathBuf>,
    /// Where to write the run's results as JSON.
    pub out: Option<PathBuf>,
    /// Instance size.
    pub scale: Scale,
}

/// Host timings of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepTiming {
    /// First set-up call through verification and metrics snapshot.
    pub wall_s: f64,
    /// Data generation, system construction, upload and program load.
    pub setup_s: f64,
    /// Time inside the run calls.
    pub run_s: f64,
    /// Simulated cycles inside the run calls.
    pub cycles: u64,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The invocation.
    pub options: Options,
    /// `(definition, value)` per reported metric, catalogue order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Per-rep timings of the untraced reps.
    pub reps: Vec<RepTiming>,
    /// Exact counters of the first rep.
    pub exact: Vec<(&'static str, f64)>,
    /// Ops attempted.
    pub ops: u64,
    /// Ops failed.
    pub failed: u64,
}

/// Probe length at each scale, in ticks per phase.
fn probe_ticks(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 20_000,
        Scale::Smoke => 500,
    }
}

fn rep(opts: &Options, id: u32) -> (RepOutcome, RepTiming, Spans) {
    let mut spans = Spans::new(id);
    spans.begin("rep");
    let outcome = opts.workload.run_rep(opts.scale, opts.seed, &mut spans);
    spans.end();
    let timing = RepTiming {
        wall_s: spans.seconds(|n| n == "rep"),
        setup_s: spans.seconds(|n| SETUP_SPANS.contains(&n)),
        run_s: spans.seconds(is_run_span),
        cycles: outcome.cycles,
    };
    (outcome, timing, spans)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns a message when peak memory cannot be read or an output file
/// cannot be written.
pub fn run(opts: &Options) -> Result<Report, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut ops = 0;
    let mut failed = 0;
    let mut first: Option<Counters> = None;
    loop {
        let (outcome, timing, _) = rep(opts, reps.len() as u32);
        ops += outcome.ops;
        failed += outcome.failed;
        // Same seed, same simulation: counters that differ between reps
        // mean the simulator is not deterministic.
        match &first {
            Some(c) if *c != outcome.counters => failed += 1,
            Some(_) => {}
            None => first = Some(outcome.counters),
        }
        reps.push(timing);
        let done = reps.len() >= opts.reps && start.elapsed().as_secs_f64() >= opts.seconds;
        if done || failed > 0 {
            break;
        }
    }
    let counters = first.expect("at least one rep ran");
    // Other tenants of the host only ever slow a rep down, so the fastest
    // rep is the estimate least disturbed by them.
    let best_wall = reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    let best_run = reps.iter().map(|r| r.run_s).fold(f64::INFINITY, f64::min);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut traced_spans = None;
    if opts.trace {
        let (outcome, timing, spans) = rep(opts, reps.len() as u32);
        ops += outcome.ops;
        failed += outcome.failed + u64::from(outcome.counters != counters);
        let cfg = opts.workload.soc_config(opts.scale);
        let probe = probe::run(
            &cfg,
            counters.injection_rate(),
            probe_ticks(opts.scale),
            opts.seed,
        );
        ops += probe.injected;
        failed += probe.undelivered;
        values.extend(layer_values(
            &spans, &timing, &counters, &probe, best_wall, &cfg,
        ));
        traced_spans = Some(spans);
    } else {
        let rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
        values.insert("sim_mcps", reps[0].cycles as f64 / best_run / 1e6);
        values.insert("wall_s", best_wall);
        values.insert("setup_s", median(&setups));
        values.insert("peak_rss_mb", rss);
    }
    let tier: &'static [MetricDef] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let report = Report {
        options: opts.clone(),
        metrics: tier
            .iter()
            .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        reps,
        exact: counters.metrics(),
        ops,
        failed,
    };
    if let (Some(dir), Some(spans)) = (&opts.trace_dir, &traced_spans) {
        write_trace(dir, spans, &report)?;
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, report.to_json().render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// The per-layer metric values of a traced rep.
fn layer_values(
    spans: &Spans,
    traced: &RepTiming,
    counters: &Counters,
    probe: &probe::ProbeResult,
    best_wall: f64,
    cfg: &maple_soc::SocConfig,
) -> Vec<(&'static str, f64)> {
    // Host nanoseconds per unit of work; 0 where the workload did none.
    let per = |seconds: f64, work: u64| {
        if work == 0 {
            0.0
        } else {
            seconds * 1e9 / work as f64
        }
    };
    let tiles = u64::from(cfg.mesh_width) * u64::from(cfg.mesh_height);
    let cycles = traced.cycles;
    let exact = counters.metrics();
    let count = |name: &str| {
        exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v as u64)
    };
    let mut out: Vec<(&'static str, f64)> = spans
        .totals()
        .iter()
        .filter_map(|(span, t)| {
            metrics::find(&metrics::span_metric(span)).map(|m| (m.name, t.total_s))
        })
        .collect();
    let ns_per_cycle = per(traced.run_s, cycles);
    out.extend([
        ("soc.ns_per_cycle", ns_per_cycle),
        ("soc.ns_per_tile_cycle", per(traced.run_s, cycles * tiles)),
        ("noc.idle_tick_ns", probe.idle_tick_ns),
        ("noc.loaded_tick_ns", probe.loaded_tick_ns),
        // Idle tick cost × cycles ÷ run time.
        (
            "noc.idle_share",
            if ns_per_cycle > 0.0 {
                probe.idle_tick_ns / ns_per_cycle
            } else {
                0.0
            },
        ),
        (
            "cpu.ns_per_inst",
            per(traced.run_s, count("cpu.instructions")),
        ),
        (
            "serve.ns_per_batch",
            per(spans.seconds(|n| n == "serve.run"), count("serve.batches")),
        ),
        ("trace_overhead_frac", traced.wall_s / best_wall - 1.0),
    ]);
    out.extend(exact);
    out
}

/// Writes the traced rep's spans as Chrome `trace_event` JSON
/// (`trace.json`) and every per-layer metric plus per-span total and self
/// time (`layers.json`).
fn write_trace(dir: &std::path::Path, spans: &Spans, report: &Report) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cannot write the trace to {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(dir.join("trace.json"), spans.chrome_json().render()).map_err(io)?;
    let spans_json = Json::Object(
        spans
            .totals()
            .into_iter()
            .map(|(name, t)| {
                let v = Json::obj(vec![
                    ("count", Json::from(t.count)),
                    ("total_s", Json::from(t.total_s)),
                    ("self_s", Json::from(t.self_s)),
                ]);
                (name, v)
            })
            .collect(),
    );
    let doc = Json::obj(vec![
        ("workload", Json::from(report.options.workload.name())),
        ("seed", Json::from(report.options.seed)),
        ("metrics", metrics_json(&report.metrics)),
        ("spans", spans_json),
    ]);
    std::fs::write(dir.join("layers.json"), doc.render_pretty()).map_err(io)
}

fn metrics_json(metrics: &[(&'static MetricDef, f64)]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(m, v)| {
                let entry = Json::obj(vec![
                    ("value", Json::from(*v)),
                    ("unit", Json::from(m.unit)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

impl Report {
    /// The one-line result object that ends the run's output.
    #[must_use]
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.ops)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }

    /// The human-readable lines: one per rep, one per metric, the op
    /// counts, then the result line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.reps.iter().enumerate() {
            out += &format!(
                "rep {i} wall_s={:.6} setup_s={:.6} run_s={:.6} sim_cycles={}\n",
                r.wall_s, r.setup_s, r.run_s, r.cycles
            );
        }
        for (m, v) in &self.metrics {
            out += &format!("{} {v} {}\n", m.name, m.unit);
        }
        out += &format!("ops {}\nops_failed {}\n", self.ops, self.failed);
        out += &self.result_line();
        out.push('\n');
        out
    }

    /// The `--out` document `maple-perf compare` reads.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let reps = self
            .reps
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("wall_s", Json::from(r.wall_s)),
                    ("setup_s", Json::from(r.setup_s)),
                    ("run_s", Json::from(r.run_s)),
                    ("sim_cycles", Json::from(r.cycles)),
                ])
            })
            .collect();
        let exact = self
            .exact
            .iter()
            .map(|(n, v)| ((*n).to_string(), Json::from(*v)))
            .collect();
        Json::obj(vec![
            ("workload", Json::from(self.options.workload.name())),
            ("seed", Json::from(self.options.seed)),
            ("trace", Json::from(self.options.trace)),
            ("metrics", metrics_json(&self.metrics)),
            ("reps", Json::Array(reps)),
            ("exact", Json::Object(exact)),
            ("ops", Json::from(self.ops)),
            ("ops_failed", Json::from(self.failed)),
        ])
    }
}
