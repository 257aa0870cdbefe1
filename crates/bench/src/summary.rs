//! Builder for the aggregate `BENCH_maple.json` document.
//!
//! Factored out of the `bench_summary` binary so the determinism test
//! can build the document from fixed inputs: the measurement-derived
//! content is a pure function of the suite rows, while run-to-run
//! numbers (wall-clock, worker count) enter only through the explicit
//! [`HarnessLine`] argument — pass a fixed one and the rendered JSON is
//! byte-identical at every `MAPLE_JOBS`.

use maple_sim::stats::geomean;
use maple_trace::Json;

use crate::experiments::{find, Measurement};
use crate::scaling::ScaleRow;

/// Run-to-run harness accounting included in the document: the total
/// sweep wall-clock, the worker count, and the cache traffic.
#[derive(Debug, Clone, Default)]
pub struct HarnessLine {
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Total sweep wall-clock in seconds.
    pub wall_seconds: f64,
    /// Cases served from the fleet cache.
    pub cache_hits: usize,
    /// Cases that were simulated.
    pub cache_misses: usize,
}

/// Host-throughput line for the two simulation steppers (dense reference
/// vs event-horizon skipping), measured on the stall-heavy config of
/// `crate::stepper`. Run-to-run varying, like [`HarnessLine`].
#[derive(Debug, Clone, Default)]
pub struct StepperLine {
    /// Simulated cycles of the benchmark config (stepper-independent).
    pub cycles: u64,
    /// Host CPUs available to the run (`available_parallelism`). Always
    /// recorded so throughput numbers can be read in context even
    /// though both steppers here are single-threaded.
    pub host_cores: usize,
    /// Dense-loop simulated Mcycles per host second.
    pub dense_mcycles_per_sec: f64,
    /// Skipping-loop simulated Mcycles per host second.
    pub skipping_mcycles_per_sec: f64,
    /// `skipping / dense` host-throughput ratio.
    pub speedup: f64,
}

/// Tail-latency and virtualization-overhead line for the multi-tenant
/// serving driver, measured on `maple_serve::ServeConfig::standard`.
/// Unlike the host-throughput lines every number here is simulated, so
/// the section is deterministic run to run (the determinism test feeds
/// a fixed line and expects byte-identical JSON, same as the others).
#[derive(Debug, Clone, Default)]
pub struct ServingLine {
    /// Tenants sharing the engines.
    pub tenants: usize,
    /// MAPLE engines being virtualized.
    pub engines: usize,
    /// Requests across every tenant's schedule.
    pub total_requests: u64,
    /// Requests completed and byte-verified against the host.
    pub completed: u64,
    /// Median request latency in serving-clock cycles.
    pub p50: u64,
    /// 99th-percentile request latency in serving-clock cycles.
    pub p99: u64,
    /// Worst request latency in serving-clock cycles.
    pub max: u64,
    /// Per-tenant fairness: max/min completed-throughput ratio.
    pub fairness: f64,
    /// Driver context switches (save + remap + restore sequences).
    pub context_switches: u64,
    /// Total cycles charged to context switching.
    pub switch_cycles: u64,
    /// MMIO page remaps (each broadcasts a TLB shootdown).
    pub remaps: u64,
    /// Serving-clock span of the whole session.
    pub elapsed_vcycles: u64,
}

/// The (app, dataset) pairs present in `rows`, in first-appearance
/// order. Derived from the rows (rather than the full evaluation matrix)
/// so reduced suites — tests, partial reruns — summarize cleanly.
#[must_use]
pub fn pairs_of(rows: &[Measurement]) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for m in rows {
        let p = (m.app.clone(), m.dataset.clone());
        if !pairs.contains(&p) {
            pairs.push(p);
        }
    }
    pairs
}

/// Geomean of `num.cycles / den.cycles` across every (app, dataset) in
/// `rows`.
#[must_use]
pub fn geomean_speedup(rows: &[Measurement], num_variant: &str, den_variant: &str) -> f64 {
    let ratios: Vec<f64> = pairs_of(rows)
        .into_iter()
        .map(|(app, ds)| {
            let num = find(rows, &app, &ds, num_variant);
            let den = find(rows, &app, &ds, den_variant);
            num.cycles as f64 / den.cycles as f64
        })
        .collect();
    geomean(&ratios)
}

/// Builds the `BENCH_maple.json` document from the three suite row sets,
/// the measured consume round trip, and the harness accounting.
///
/// Everything except `harness` is a pure function of the measurements.
#[must_use]
#[allow(clippy::too_many_arguments)] // one positional slot per document section
pub fn build_json(
    fig08: &[Measurement],
    fig09: &[Measurement],
    fig12: &[Measurement],
    consume_rtt: f64,
    harness: &HarnessLine,
    stepper: Option<&StepperLine>,
    serving: Option<&ServingLine>,
    scaling: Option<&[ScaleRow]>,
) -> Json {
    let latencies: Vec<(String, Json)> = pairs_of(fig09)
        .into_iter()
        .map(|(app, ds)| {
            let base = find(fig09, &app, &ds, "doall");
            let lima = find(fig09, &app, &ds, "maple-lima");
            (
                format!("{app}/{ds}"),
                Json::obj(vec![
                    ("no_prefetch", Json::from(base.load_latency)),
                    ("maple_lima", Json::from(lima.load_latency)),
                ]),
            )
        })
        .collect();
    let reduction: Vec<f64> = pairs_of(fig09)
        .into_iter()
        .map(|(app, ds)| {
            find(fig09, &app, &ds, "doall").load_latency
                / find(fig09, &app, &ds, "maple-lima").load_latency
        })
        .collect();

    let mut members = vec![
        ("bench", Json::from("maple")),
        (
            "figures",
            Json::obj(vec![
                (
                    "fig08",
                    Json::obj(vec![
                        (
                            "maple_over_doall",
                            Json::from(geomean_speedup(fig08, "doall", "maple-dec")),
                        ),
                        (
                            "maple_over_sw_decoupling",
                            Json::from(geomean_speedup(fig08, "sw-dec", "maple-dec")),
                        ),
                        ("paper_maple_over_doall", Json::from(1.51)),
                        ("paper_maple_over_sw_decoupling", Json::from(2.27)),
                    ]),
                ),
                (
                    "fig09",
                    Json::obj(vec![
                        (
                            "lima_over_no_prefetch",
                            Json::from(geomean_speedup(fig09, "doall", "maple-lima")),
                        ),
                        (
                            "lima_over_sw_prefetch",
                            Json::from(geomean_speedup(fig09, "sw-pref", "maple-lima")),
                        ),
                        ("paper_lima_over_no_prefetch", Json::from(1.73)),
                        ("paper_lima_over_sw_prefetch", Json::from(2.35)),
                    ]),
                ),
                (
                    "fig11",
                    Json::obj(vec![
                        ("lima_latency_reduction", Json::from(geomean(&reduction))),
                        ("paper_lima_latency_reduction", Json::from(1.85)),
                    ]),
                ),
                (
                    "fig12",
                    Json::obj(vec![
                        (
                            "maple_over_desc",
                            Json::from(geomean_speedup(fig12, "desc", "maple-dec")),
                        ),
                        (
                            "maple_over_droplet",
                            Json::from(geomean_speedup(fig12, "droplet", "maple-dec")),
                        ),
                        ("paper_maple_over_desc", Json::from(1.72)),
                        ("paper_maple_over_droplet", Json::from(1.82)),
                    ]),
                ),
            ]),
        ),
        ("mean_load_latency_cycles", Json::Object(latencies)),
        ("consume_rtt_cycles", Json::from(consume_rtt)),
        (
            "harness",
            Json::obj(vec![
                ("jobs", Json::from(harness.jobs as u64)),
                ("sweep_wall_seconds", Json::from(harness.wall_seconds)),
                ("cache_hits", Json::from(harness.cache_hits as u64)),
                ("cache_misses", Json::from(harness.cache_misses as u64)),
            ]),
        ),
    ];
    if let Some(s) = stepper {
        members.push((
            "stepper",
            Json::obj(vec![
                ("benchmark", Json::from("spmv doall, DRAM 300cy")),
                ("simulated_cycles", Json::from(s.cycles)),
                ("host_cores", Json::from(s.host_cores as u64)),
                (
                    "dense_mcycles_per_sec",
                    Json::from(s.dense_mcycles_per_sec),
                ),
                (
                    "skipping_mcycles_per_sec",
                    Json::from(s.skipping_mcycles_per_sec),
                ),
                ("speedup", Json::from(s.speedup)),
            ]),
        ));
    }
    if let Some(v) = serving {
        let overhead = if v.elapsed_vcycles == 0 {
            0.0
        } else {
            v.switch_cycles as f64 / v.elapsed_vcycles as f64
        };
        members.push((
            "serving",
            Json::obj(vec![
                (
                    "benchmark",
                    Json::from("seeded open-loop SpMV/gather queries"),
                ),
                ("tenants", Json::from(v.tenants as u64)),
                ("engines", Json::from(v.engines as u64)),
                ("requests", Json::from(v.total_requests)),
                ("completed", Json::from(v.completed)),
                ("latency_p50_cycles", Json::from(v.p50)),
                ("latency_p99_cycles", Json::from(v.p99)),
                ("latency_max_cycles", Json::from(v.max)),
                ("fairness_max_over_min", Json::from(v.fairness)),
                ("context_switches", Json::from(v.context_switches)),
                ("context_switch_cycles", Json::from(v.switch_cycles)),
                ("context_switch_overhead", Json::from(overhead)),
                ("mmio_remaps", Json::from(v.remaps)),
                ("elapsed_vcycles", Json::from(v.elapsed_vcycles)),
            ]),
        ));
    }
    if let Some(rows) = scaling {
        let rows: Vec<Json> = rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("tiles", Json::from(r.tiles as u64)),
                    ("clusters", Json::from(r.clusters as u64)),
                    ("cores", Json::from(r.cores as u64)),
                    ("engines", Json::from(r.engines as u64)),
                    ("l2_banks", Json::from(r.l2_banks as u64)),
                    ("simulated_cycles", Json::from(r.simulated_cycles)),
                    ("maple_speedup", Json::from(r.maple_speedup)),
                    (
                        "lima_latency_reduction",
                        Json::from(r.lima_latency_reduction),
                    ),
                    // Host-dependent, like the other throughput lines.
                    (
                        "host_mcycles_per_sec",
                        Json::from(r.host_mcycles_per_sec),
                    ),
                ])
            })
            .collect();
        members.push((
            "scaling",
            Json::obj(vec![
                (
                    "benchmark",
                    Json::from(
                        "spmv on 4x4-crossbar-cluster fabrics, one L2 bank \
                         and one engine per cluster",
                    ),
                ),
                ("rows", Json::Array(rows)),
            ]),
        ));
    }
    Json::obj(members)
}

/// Marker opening the generated throughput block in `README.md`.
pub const README_TABLE_BEGIN: &str =
    "<!-- BEGIN GENERATED: throughput-table (bench_summary rewrites this block) -->";
/// Marker closing the generated throughput block in `README.md`.
pub const README_TABLE_END: &str = "<!-- END GENERATED: throughput-table -->";

/// Marker opening the generated scaling block in `README.md`.
pub const README_SCALING_BEGIN: &str =
    "<!-- BEGIN GENERATED: scaling-table (bench_summary rewrites this block) -->";
/// Marker closing the generated scaling block in `README.md`.
pub const README_SCALING_END: &str = "<!-- END GENERATED: scaling-table -->";

/// Renders the README scaling table from a built (or parsed)
/// `BENCH_maple.json` document — same contract as
/// [`readme_throughput_table`]: `bench_summary` rewrites the block
/// between [`README_SCALING_BEGIN`] and [`README_SCALING_END`], and the
/// drift test regenerates it from the checked-in JSON.
///
/// Returns an empty string when the document has no `scaling` section.
#[must_use]
pub fn readme_scaling_table(doc: &Json) -> String {
    let Some(rows) = doc
        .get("scaling")
        .and_then(|s| s.get("rows"))
        .and_then(Json::as_array)
    else {
        return String::new();
    };
    let mut out = String::from(
        "| tiles | clusters | cores | engines | L2 banks | MAPLE speedup \
         | LIMA latency reduction | host throughput |\n\
         |-------|----------|-------|---------|----------|---------------\
         |------------------------|-----------------|\n",
    );
    for r in rows {
        let int = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "| {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | ≈ {:.2}× | ≈ {:.2}× | {} |\n",
            int("tiles"),
            int("clusters"),
            int("cores"),
            int("engines"),
            int("l2_banks"),
            int("maple_speedup"),
            int("lima_latency_reduction"),
            mcy(int("host_mcycles_per_sec")),
        ));
    }
    out
}

/// Formats a host throughput: one decimal from 1 Mcycles/s up, two
/// significant figures below (0.47, 0.14, 0.029), so a slow fabric never
/// rounds to "0.0".
fn mcy(v: f64) -> String {
    let decimals = if v > 0.0 && v < 1.0 {
        (1 - v.log10().floor() as i32) as usize
    } else {
        1
    };
    format!("≈ {v:.decimals$} Mcycles/s")
}

/// Renders the README throughput table from a built (or parsed)
/// `BENCH_maple.json` document, so the committed prose can never drift
/// from the committed measurements: `bench_summary` rewrites the block
/// between [`README_TABLE_BEGIN`] and [`README_TABLE_END`], and a test
/// regenerates it from the checked-in JSON and diffs the README.
///
/// Returns the table alone (no markers, trailing newline included);
/// sections absent from `doc` are omitted row-wise.
#[must_use]
pub fn readme_throughput_table(doc: &Json) -> String {
    let mut rows: Vec<[String; 4]> = Vec::new();
    if let Some(s) = doc.get("stepper") {
        let dense = s.get("dense_mcycles_per_sec").and_then(Json::as_f64);
        let skip = s.get("skipping_mcycles_per_sec").and_then(Json::as_f64);
        if let (Some(dense), Some(skip)) = (dense, skip) {
            rows.push([
                "dense reference loop".into(),
                "stall-heavy SPMV".into(),
                mcy(dense),
                "1.0×".into(),
            ]);
            rows.push([
                "event-horizon skipping".into(),
                "stall-heavy SPMV".into(),
                mcy(skip),
                format!("≈ {:.1}×", skip / dense),
            ]);
        }
    }
    if let Some(v) = doc.get("serving") {
        let p50 = v.get("latency_p50_cycles").and_then(Json::as_f64);
        let p99 = v.get("latency_p99_cycles").and_then(Json::as_f64);
        let fair = v.get("fairness_max_over_min").and_then(Json::as_f64);
        if let (Some(p50), Some(p99), Some(fair)) = (p50, p99, fair) {
            // Serving is a simulated-latency row, not a host-throughput
            // one: the third column carries the tail-latency digest and
            // the fourth the tenant-fairness ratio.
            let tenants = v.get("tenants").and_then(Json::as_f64).unwrap_or(0.0);
            let engines = v.get("engines").and_then(Json::as_f64).unwrap_or(0.0);
            rows.push([
                "multi-tenant serving".into(),
                format!("{tenants:.0} tenants / {engines:.0} engines"),
                format!("p50 {p50:.0} / p99 {p99:.0} cycles"),
                format!("fairness ≈ {fair:.2}×"),
            ]);
        }
    }
    let header = [
        [
            "configuration".to_string(),
            "benchmark".into(),
            "host throughput".into(),
            "speedup".into(),
        ],
        [
            String::new(), // widths filled with dashes below
            String::new(),
            String::new(),
            String::new(),
        ],
    ];
    let mut width = [0usize; 4];
    for row in header.iter().take(1).chain(rows.iter()) {
        for (w, cell) in width.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let render = |out: &mut String, row: &[String; 4], pad: char| {
        out.push('|');
        for (w, cell) in width.iter().zip(row.iter()) {
            out.push(pad);
            out.push_str(cell);
            for _ in cell.chars().count()..*w {
                out.push(pad);
            }
            out.push(pad);
            out.push('|');
        }
        out.push('\n');
    };
    render(&mut out, &header[0], ' ');
    render(&mut out, &header[1], '-');
    for row in &rows {
        render(&mut out, row, ' ');
    }
    out
}
