//! Shared experiment execution for the result driver.
//!
//! Every figure names its cases ([`CaseSpec`]); [`simulate`] takes the
//! union of the cases a run asks for, drops duplicates, and simulates
//! the rest as one [`par_map`] (worker count from `MAPLE_JOBS`). Rows
//! come back in case order, bit-identical at every worker count, and
//! the `results --check` driver byte-diffs every figure built from them
//! against `results/`.

use std::sync::OnceLock;

use maple_sim::par::{jobs_from_env, par_map};
use maple_soc::SocConfig;
use maple_trace::{StallBreakdown, StallRow};
use maple_workloads::bfs::Bfs;
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmm::Spmm;
use maple_workloads::spmv::Spmv;
use maple_workloads::{RunStats, Variant};

use crate::instances::{self, Named};

/// One measured case.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The case that was run.
    pub case: CaseSpec,
    /// Cycles to completion.
    pub cycles: u64,
    /// Load instructions retired.
    pub loads: u64,
    /// Mean load-to-use latency.
    pub load_latency: f64,
    /// Total core cycles backing the stall attribution.
    pub core_cycles: u64,
    /// Aggregate stall attribution across cores.
    pub stall: StallBreakdown,
}

impl Measurement {
    fn from_stats(spec: &CaseSpec, s: &RunStats) -> Self {
        Measurement {
            case: spec.clone(),
            cycles: s.cycles,
            loads: s.loads,
            load_latency: s.mean_load_latency,
            core_cycles: s.core_cycles,
            stall: s.stall,
        }
    }
}

/// A change to a kernel's SoC configuration (the sensitivity sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tuning {
    /// The kernel's own configuration.
    Default,
    /// Extra MAPLE pipeline cycles (Figure 15's round-trip knob).
    MapleExtraLatency(u64),
    /// Entries per MAPLE queue (Section 5.3's queue-size sweep).
    QueueEntries(usize),
    /// MAPLE instances (the engine-scaling ablation).
    Maples(usize),
}

impl Tuning {
    /// Applies the tuning to `cfg`.
    #[must_use]
    pub fn apply(self, cfg: SocConfig) -> SocConfig {
        match self {
            Tuning::Default => cfg,
            Tuning::MapleExtraLatency(cycles) => cfg.with_maple_extra_latency(cycles),
            Tuning::QueueEntries(entries) => cfg.with_queue_entries(entries),
            Tuning::Maples(maples) => cfg.with_maples(maples),
        }
    }
}

/// One case of a suite matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Application name.
    pub app: String,
    /// Dataset label.
    pub dataset: String,
    /// Variant under test.
    pub variant: Variant,
    /// Thread count.
    pub threads: usize,
    /// Configuration change on top of the kernel's own.
    pub tuning: Tuning,
}

impl CaseSpec {
    /// An untuned case.
    #[must_use]
    pub fn new(app: &str, dataset: &str, variant: Variant, threads: usize) -> Self {
        CaseSpec {
            app: app.into(),
            dataset: dataset.into(),
            variant,
            threads,
            tuning: Tuning::Default,
        }
    }
}

/// Simulates every distinct case of `requests` once, on `workers`
/// threads with `run` executing one case, and returns each request's
/// rows in its case order — bit-identical at every worker count.
/// Reports the requested and simulated case counts and `jobs=N,
/// wall=…s` on stderr under `[name]`.
///
/// # Panics
///
/// Panics when a case panics or fails verification.
pub fn suite_with(
    workers: usize,
    name: &str,
    requests: &[Vec<CaseSpec>],
    run: impl Fn(&CaseSpec) -> RunStats + Sync,
) -> Vec<Vec<Measurement>> {
    let t0 = std::time::Instant::now();
    let mut cases: Vec<CaseSpec> = Vec::new();
    for case in requests.iter().flatten() {
        if !cases.contains(case) {
            cases.push(case.clone());
        }
    }
    let requested = requests.iter().map(Vec::len).sum::<usize>();
    eprintln!(
        "[{name}] {requested} cases requested, {} simulated",
        cases.len()
    );
    let stats = par_map(workers, &cases, run).unwrap_or_else(|(j, e)| {
        let spec = &cases[j];
        panic!(
            "[{name}] {}/{}/{} t={}: {e}",
            spec.app,
            spec.dataset,
            spec.variant.label(),
            spec.threads
        )
    });
    let rows: Vec<Measurement> = cases
        .iter()
        .zip(&stats)
        .map(|(spec, s)| {
            assert!(
                s.verified,
                "{}/{}/{} failed verification",
                spec.app,
                spec.dataset,
                spec.variant.label()
            );
            Measurement::from_stats(spec, s)
        })
        .collect();
    eprintln!(
        "[{name}] jobs={workers}, wall={:.2}s",
        t0.elapsed().as_secs_f64()
    );
    let row = |c: &CaseSpec| rows[cases.iter().position(|d| d == c).unwrap()].clone();
    requests
        .iter()
        .map(|r| r.iter().map(row).collect())
        .collect()
}

/// [`suite_with`] at the `MAPLE_JOBS` worker count, running real
/// workload cases.
#[must_use]
pub fn simulate(name: &str, requests: &[Vec<CaseSpec>]) -> Vec<Vec<Measurement>> {
    suite_with(jobs_from_env(), name, requests, |c| {
        run_case(c).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// The most threads a case may ask for: one per tile of the largest
/// fabric the repository runs (the 1024-tile scale gate).
pub const MAX_THREADS: usize = 1024;

/// Runs one evaluation case: `app` is `sdhp`, `spmm`, `spmv` or `bfs`,
/// `dataset` a label of [`app_datasets`]. Each dataset is built at most
/// once per process and shared by every case (and worker) that runs it.
///
/// # Errors
///
/// Says why when the case asks for more than [`MAX_THREADS`] threads,
/// the app or dataset is unknown, the kernel does not run the variant
/// on that many threads (its `check_threads` rule), or the case tunes
/// `spmm`, which has no tuning hook; nothing is simulated then.
pub fn run_case(case: &CaseSpec) -> Result<RunStats, String> {
    // One lazily built instance per row of each `instances` table.
    static SDHP: [OnceLock<Sdhp>; 2] = [const { OnceLock::new() }; 2];
    static SPMM: [OnceLock<Spmm>; 1] = [const { OnceLock::new() }; 1];
    static SPMV: [OnceLock<Spmv>; 2] = [const { OnceLock::new() }; 2];
    static BFS: [OnceLock<Bfs>; 3] = [const { OnceLock::new() }; 3];
    fn pick<'a, T, const N: usize>(
        set: &[Named<T>; N],
        built: &'a [OnceLock<T>; N],
        ds: &str,
    ) -> Option<&'a T> {
        let i = set.iter().position(|(l, _)| *l == ds)?;
        Some(built[i].get_or_init(set[i].1))
    }
    let (ds, variant, threads) = (case.dataset.as_str(), case.variant, case.threads);
    if threads > MAX_THREADS {
        return Err(format!("at most {MAX_THREADS} threads, got {threads}"));
    }
    let tune = |c: SocConfig| case.tuning.apply(c);
    let stats = match case.app.as_str() {
        "sdhp" => {
            Sdhp::check_threads(variant, threads)?;
            pick(&instances::SDHP, &SDHP, ds).map(|i| i.run_tuned(variant, threads, tune))
        }
        "spmm" => {
            Spmm::check_threads(variant, threads)?;
            if case.tuning != Tuning::Default {
                return Err(format!("spmm takes no tuning, got {:?}", case.tuning));
            }
            pick(&instances::SPMM, &SPMM, ds).map(|i| i.run(variant, threads))
        }
        "spmv" => {
            Spmv::check_threads(variant, threads)?;
            pick(&instances::SPMV, &SPMV, ds).map(|i| i.run_tuned(variant, threads, tune))
        }
        "bfs" => {
            Bfs::check_threads(variant, threads)?;
            pick(&instances::BFS, &BFS, ds).map(|i| i.run_tuned(variant, threads, tune))
        }
        _ => None,
    };
    stats.ok_or_else(|| format!("unknown app/dataset `{} {ds}` (try --list)", case.app))
}

/// Every (app, dataset) pair of the evaluation.
#[must_use]
pub fn app_datasets() -> Vec<(String, String)> {
    fn labels<T>(app: &str, set: &[Named<T>]) -> Vec<(String, String)> {
        set.iter()
            .map(|(ds, _)| (app.into(), (*ds).into()))
            .collect()
    }
    [
        labels("sdhp", &instances::SDHP),
        labels("spmm", &instances::SPMM),
        labels("spmv", &instances::SPMV),
        labels("bfs", &instances::BFS),
    ]
    .concat()
}

fn matrix(variants: &[(Variant, usize)]) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for (app, ds) in app_datasets() {
        for &(variant, threads) in variants {
            cases.push(CaseSpec::new(&app, &ds, variant, threads));
        }
    }
    cases
}

/// Figure 8 cases: 2-thread do-all, software decoupling, MAPLE
/// decoupling.
#[must_use]
pub fn decoupling_suite() -> Vec<CaseSpec> {
    matrix(&[
        (Variant::Doall, 2),
        (Variant::SwDecoupled, 2),
        (Variant::MapleDecoupled, 2),
    ])
}

/// Figures 9–11 cases: single-thread no-prefetch, software prefetching,
/// MAPLE LIMA.
#[must_use]
pub fn prefetch_suite() -> Vec<CaseSpec> {
    matrix(&[
        (Variant::Doall, 1),
        (Variant::SwPrefetch { dist: 16 }, 1),
        (Variant::MapleLima, 1),
    ])
}

/// Figure 12 cases: 2-thread do-all, MAPLE decoupling, DeSC, DROPLET.
#[must_use]
pub fn prior_work_suite() -> Vec<CaseSpec> {
    matrix(&[
        (Variant::Doall, 2),
        (Variant::MapleDecoupled, 2),
        (Variant::Desc, 2),
        (Variant::Droplet, 2),
    ])
}

/// Aggregates measurements into one stall-attribution row per variant
/// (summed across every workload/dataset).
#[must_use]
pub fn stall_rows_by_variant(rows: &[Measurement], variants: &[&str]) -> Vec<StallRow> {
    variants
        .iter()
        .map(|v| {
            let mut row = StallRow {
                label: (*v).to_owned(),
                core_cycles: 0,
                breakdown: StallBreakdown::default(),
            };
            for m in rows.iter().filter(|m| m.case.variant.label() == *v) {
                row.core_cycles += m.core_cycles;
                row.breakdown.merge(&m.stall);
            }
            row
        })
        .collect()
}

/// Finds a measurement.
#[must_use]
pub fn find<'a>(rows: &'a [Measurement], app: &str, ds: &str, variant: &str) -> &'a Measurement {
    rows.iter()
        .find(|m| m.case.app == app && m.case.dataset == ds && m.case.variant.label() == variant)
        .unwrap_or_else(|| panic!("no measurement for {app}/{ds}/{variant}"))
}
