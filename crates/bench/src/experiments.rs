//! Shared experiment execution for the figure binaries.
//!
//! Suites run the workload/variant matrices of Section 5 through
//! [`par_map`]: every case of a suite is one item of one ordered map
//! (worker count from `MAPLE_JOBS`), simulated fresh on every run. Rows
//! come back in case order, bit-identical at every worker count, and
//! `scripts/ci.sh` byte-diffs every figure built from them against
//! `results/`.

use maple_sim::par::{jobs_from_env, par_map};
use maple_trace::{StallBreakdown, StallRow};
use maple_workloads::bfs::Bfs;
use maple_workloads::sdhp::Sdhp;
use maple_workloads::spmm::Spmm;
use maple_workloads::spmv::Spmv;
use maple_workloads::{RunStats, Variant};

use crate::instances;

/// One measured (app, dataset, variant) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Application name.
    pub app: String,
    /// Dataset label.
    pub dataset: String,
    /// Variant label.
    pub variant: String,
    /// Cycles to completion.
    pub cycles: u64,
    /// Load instructions retired.
    pub loads: u64,
    /// Mean load-to-use latency.
    pub load_latency: f64,
    /// Result matched the host reference.
    pub verified: bool,
    /// Total core cycles backing the stall attribution.
    pub core_cycles: u64,
    /// Aggregate stall attribution across cores.
    pub stall: StallBreakdown,
}

impl Measurement {
    fn from_stats(spec: &CaseSpec, s: &RunStats) -> Self {
        Measurement {
            app: spec.app.clone(),
            dataset: spec.dataset.clone(),
            variant: spec.variant.label().into(),
            cycles: s.cycles,
            loads: s.loads,
            load_latency: s.mean_load_latency,
            verified: s.verified,
            core_cycles: s.core_cycles,
            stall: s.stall,
        }
    }
}

/// One case of a suite matrix.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Application name.
    pub app: String,
    /// Dataset label.
    pub dataset: String,
    /// Variant under test.
    pub variant: Variant,
    /// Thread count.
    pub threads: usize,
}

/// Runs a suite of cases on `workers` threads and returns one
/// [`Measurement`] per case, in case order — bit-identical at every
/// worker count. `run` executes one case. Reports `[name] jobs=N,
/// wall=…s` on stderr.
///
/// # Panics
///
/// Panics when a case panics or fails verification.
pub fn suite_with(
    workers: usize,
    name: &str,
    cases: &[CaseSpec],
    run: impl Fn(&CaseSpec) -> RunStats + Sync,
) -> Vec<Measurement> {
    let t0 = std::time::Instant::now();
    let stats = par_map(workers, cases, run).unwrap_or_else(|(j, e)| {
        let spec = &cases[j];
        panic!(
            "[{name}] {}/{}/{} t={}: {e}",
            spec.app,
            spec.dataset,
            spec.variant.label(),
            spec.threads
        )
    });
    let rows = cases
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
    rows
}

/// [`suite_with`] at the `MAPLE_JOBS` worker count, running real
/// workload cases.
fn suite(name: &str, cases: Vec<CaseSpec>) -> Vec<Measurement> {
    suite_with(jobs_from_env(), name, &cases, |c| {
        run_case(&c.app, &c.dataset, c.variant, c.threads).unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Runs one evaluation instance — `app` is `sdhp`, `spmm`, `spmv` or
/// `bfs`, `ds` a dataset label of [`app_datasets`] — under `variant` on
/// `threads` threads.
///
/// # Errors
///
/// Says why when the app or dataset is unknown or the kernel does not
/// run `variant` on `threads` threads (its `check_threads` rule);
/// nothing is simulated then.
pub fn run_case(app: &str, ds: &str, variant: Variant, threads: usize) -> Result<RunStats, String> {
    fn pick<T>(set: Vec<(&str, T)>, ds: &str) -> Option<T> {
        set.into_iter().find(|(l, _)| *l == ds).map(|(_, i)| i)
    }
    let stats = match app {
        "sdhp" => {
            Sdhp::check_threads(variant, threads)?;
            pick(instances::sdhp(), ds).map(|i| i.run(variant, threads))
        }
        "spmm" => {
            Spmm::check_threads(variant, threads)?;
            pick(instances::spmm(), ds).map(|i| i.run(variant, threads))
        }
        "spmv" => {
            Spmv::check_threads(variant, threads)?;
            pick(instances::spmv(), ds).map(|i| i.run(variant, threads))
        }
        "bfs" => {
            Bfs::check_threads(variant, threads)?;
            pick(instances::bfs(), ds).map(|i| i.run(variant, threads))
        }
        _ => None,
    };
    stats.ok_or_else(|| format!("unknown app/dataset `{app} {ds}` (try --list)"))
}

/// Every (app, dataset) pair of the evaluation.
#[must_use]
pub fn app_datasets() -> Vec<(String, String)> {
    let mut v = Vec::new();
    for (l, _) in instances::sdhp() {
        v.push(("sdhp".into(), l.into()));
    }
    for (l, _) in instances::spmm() {
        v.push(("spmm".into(), l.into()));
    }
    for (l, _) in instances::spmv() {
        v.push(("spmv".into(), l.into()));
    }
    for (l, _) in instances::bfs() {
        v.push(("bfs".into(), l.into()));
    }
    v
}

fn matrix(variants: &[(Variant, usize)]) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for (app, ds) in app_datasets() {
        for &(variant, threads) in variants {
            cases.push(CaseSpec {
                app: app.clone(),
                dataset: ds.clone(),
                variant,
                threads,
            });
        }
    }
    cases
}

/// Figure 8 suite: 2-thread do-all, software decoupling, MAPLE
/// decoupling.
#[must_use]
pub fn decoupling_suite() -> Vec<Measurement> {
    suite(
        "fig08",
        matrix(&[
            (Variant::Doall, 2),
            (Variant::SwDecoupled, 2),
            (Variant::MapleDecoupled, 2),
        ]),
    )
}

/// Figures 9–11 suite: single-thread no-prefetch, software prefetching,
/// MAPLE LIMA.
#[must_use]
pub fn prefetch_suite() -> Vec<Measurement> {
    suite(
        "fig09",
        matrix(&[
            (Variant::Doall, 1),
            (Variant::SwPrefetch { dist: 16 }, 1),
            (Variant::MapleLima, 1),
        ]),
    )
}

/// Figure 12 suite: 2-thread do-all, MAPLE decoupling, DeSC, DROPLET.
#[must_use]
pub fn prior_work_suite() -> Vec<Measurement> {
    suite(
        "fig12",
        matrix(&[
            (Variant::Doall, 2),
            (Variant::MapleDecoupled, 2),
            (Variant::Desc, 2),
            (Variant::Droplet, 2),
        ]),
    )
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
            for m in rows.iter().filter(|m| m.variant == *v) {
                row.core_cycles += m.core_cycles;
                row.breakdown.merge(&m.stall);
            }
            row
        })
        .collect()
}

/// Finds a measurement.
#[must_use]
pub fn find<'a>(
    rows: &'a [Measurement],
    app: &str,
    ds: &str,
    variant: &str,
) -> &'a Measurement {
    rows.iter()
        .find(|m| m.app == app && m.dataset == ds && m.variant == variant)
        .unwrap_or_else(|| panic!("no measurement for {app}/{ds}/{variant}"))
}
