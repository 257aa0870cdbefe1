//! Machine-readable aggregate of the paper-reproduction headline numbers.
//!
//! Writes `BENCH_maple.json` at the repository root: per-figure geomean
//! speedups (Figures 8, 9, 12), the mean load latency view (Figure 11),
//! the consume round trip (Figure 14), and the harness accounting (jobs,
//! total sweep wall-clock). The suites are the ones the `fig*` binaries
//! run, simulated fresh; only the `harness` section varies run to run.
//! Diff the JSON against a previous checkout to spot regressions.

use std::fs;
use std::path::PathBuf;

use maple_bench::experiments::{decoupling_suite, prefetch_suite, prior_work_suite};
use maple_bench::rtt::measure_roundtrip;
use maple_bench::scaling::{scaling_sweep, SCALE_TILES};
use maple_bench::stepper::stall_heavy_comparison;
use maple_bench::summary::{
    build_json, readme_scaling_table, readme_throughput_table, HarnessLine, ServingLine,
    StepperLine, README_SCALING_BEGIN, README_SCALING_END, README_TABLE_BEGIN, README_TABLE_END,
};
use maple_serve::{serve, ServeConfig};
use maple_soc::config::SocConfig;

/// Rewrites the generated throughput block of `README.md` in place from
/// the freshly built document; leaves the file untouched (and warns)
/// when the markers are missing.
fn rewrite_block(text: &str, begin_marker: &str, end_marker: &str, body: &str) -> Option<String> {
    let (begin, end) = (text.find(begin_marker)?, text.find(end_marker)?);
    let mut out = text[..begin + begin_marker.len()].to_string();
    out.push('\n');
    out.push_str(body);
    out.push_str(&text[end..]);
    Some(out)
}

fn rewrite_readme_table(readme: &PathBuf, doc: &maple_trace::Json) {
    let Ok(text) = fs::read_to_string(readme) else {
        eprintln!("[bench_summary] README.md not found; skipping table rewrite");
        return;
    };
    let mut out = text.clone();
    match rewrite_block(
        &out,
        README_TABLE_BEGIN,
        README_TABLE_END,
        &readme_throughput_table(doc),
    ) {
        Some(next) => out = next,
        None => eprintln!("[bench_summary] README.md throughput markers missing; skipping rewrite"),
    }
    match rewrite_block(
        &out,
        README_SCALING_BEGIN,
        README_SCALING_END,
        &readme_scaling_table(doc),
    ) {
        Some(next) => out = next,
        None => eprintln!("[bench_summary] README.md scaling markers missing; skipping rewrite"),
    }
    if out != text {
        fs::write(readme, out).expect("rewrite README.md");
        eprintln!("[bench_summary] README.md generated tables rewritten");
    }
}

fn main() {
    maple_bench::cli::no_arguments("bench_summary");
    let t0 = std::time::Instant::now();
    let fig08 = decoupling_suite();
    let fig09 = prefetch_suite();
    let fig12 = prior_work_suite();

    eprintln!("[bench_summary] measuring consume round trip...");
    let rtt = measure_roundtrip(SocConfig::fpga_prototype());

    eprintln!("[bench_summary] measuring stepper host throughput...");
    let cmp = stall_heavy_comparison(0x57E9);
    assert!(
        cmp.divergence().is_none(),
        "steppers diverged: {:?}",
        cmp.divergence()
    );
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let stepper = StepperLine {
        cycles: cmp.dense.stats.cycles,
        host_cores,
        dense_mcycles_per_sec: cmp.dense.mcycles_per_sec(),
        skipping_mcycles_per_sec: cmp.skipping.mcycles_per_sec(),
        speedup: cmp.speedup(),
    };

    eprintln!("[bench_summary] measuring hierarchical-fabric scaling sweep...");
    let scaling = scaling_sweep(&SCALE_TILES, 0x5CA1E);

    eprintln!("[bench_summary] measuring multi-tenant serving tail latency...");
    let serve_cfg = ServeConfig::standard(0x57E9);
    let (tenants, engines) = (serve_cfg.tenants.len(), serve_cfg.maples);
    let (sim, ss) = serve(serve_cfg);
    assert!(ss.verified, "serving session left requests unverified");
    let serving = ServingLine {
        tenants,
        engines,
        total_requests: ss.total_requests,
        completed: ss.completed,
        p50: ss.p50,
        p99: ss.p99,
        max: ss.max,
        fairness: ss.fairness(),
        context_switches: ss.context_switches,
        switch_cycles: ss.switch_cycles,
        remaps: ss.remaps,
        elapsed_vcycles: ss.elapsed,
    };
    // The full snapshot mixes core/engine counters into the serving
    // view; retain only the `serve/` namespace for the printed table.
    let mut serve_metrics = sim.metrics();
    serve_metrics.retain(|name| name.starts_with("serve/"));
    eprintln!("{}", serve_metrics.render_table());

    let harness = HarnessLine {
        jobs: maple_sim::par::jobs_from_env(),
        wall_seconds: t0.elapsed().as_secs_f64(),
    };
    let doc = build_json(
        &fig08,
        &fig09,
        &fig12,
        rtt.mean_rtt,
        &harness,
        Some(&stepper),
        Some(&serving),
        Some(&scaling),
    );

    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("../../BENCH_maple.json");
    fs::write(&path, doc.render_pretty() + "\n").expect("write BENCH_maple.json");
    let mut readme = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    readme.push("../../README.md");
    rewrite_readme_table(&readme, &doc);
    eprintln!(
        "[bench_summary] jobs={}, total wall {:.2}s",
        harness.jobs, harness.wall_seconds
    );
    println!("wrote {}", path.display());
    println!("{}", doc.render_pretty());
}
