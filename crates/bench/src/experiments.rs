//! Shared experiment execution for the figure binaries.
//!
//! Suites run the workload/variant matrices of Section 5 through the
//! `maple-fleet` runtime: independent cases are dispatched as one
//! work-stealing batch (worker count from `MAPLE_JOBS`), and every
//! measurement is stored in a content-addressed cache under
//! `target/fleet-cache`. The cache key digests the *full* case
//! descriptor — workload, dataset, variant, thread count, every
//! `SocConfig` timing parameter, the fault schedule and a schema
//! version — so editing a configuration invalidates exactly the affected
//! rows; there is nothing to delete manually.

use maple_fleet::{Digest, FleetConfig, ResultCache};
use maple_soc::config::SocConfig;
use maple_trace::{MetricsSnapshot, StallBreakdown, StallRow};
use maple_workloads::harness::config_for;
use maple_workloads::{RunStats, Variant};

use crate::instances;

/// Version of the cache-entry descriptor/payload. Bump on any change to
/// [`Measurement`]'s TSV layout or to what the key digests — every old
/// entry then misses and is recomputed.
pub const CACHE_SCHEMA: u64 = 1;

/// One measured (app, dataset, variant) cell.
#[derive(Debug, Clone)]
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
    /// Total core cycles backing the stall attribution; `None` for rows
    /// parsed from a truncated legacy line.
    pub core_cycles: Option<u64>,
    /// Aggregate stall attribution across cores; `None` for rows parsed
    /// from a truncated legacy line.
    pub stall: Option<StallBreakdown>,
}

impl Measurement {
    fn from_stats(app: &str, dataset: &str, variant: &str, s: &RunStats) -> Self {
        Measurement {
            app: app.into(),
            dataset: dataset.into(),
            variant: variant.into(),
            cycles: s.cycles,
            loads: s.loads,
            load_latency: s.mean_load_latency,
            verified: s.verified,
            core_cycles: Some(s.core_cycles),
            stall: Some(s.stall),
        }
    }

    /// Serializes to one cache-entry line.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut line = format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.app,
            self.dataset,
            self.variant,
            self.cycles,
            self.loads,
            self.load_latency,
            self.verified
        );
        if let (Some(cc), Some(st)) = (self.core_cycles, self.stall) {
            line.push_str(&format!("\t{cc}"));
            for (_, v) in st.buckets() {
                line.push_str(&format!("\t{v}"));
            }
        }
        line
    }

    /// Parses a cache-entry line. Lenient on width: the original 7-field
    /// format (before stall attribution existed) still parses, with the
    /// stall columns reported as `None`.
    #[must_use]
    pub fn from_tsv(line: &str) -> Option<Self> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 && f.len() != 14 {
            return None;
        }
        let (core_cycles, stall) = if f.len() == 14 {
            let vals: Vec<u64> = f[7..14]
                .iter()
                .map(|s| s.parse().ok())
                .collect::<Option<_>>()?;
            let st = StallBreakdown {
                l1_miss: vals[1],
                l2_miss: vals[2],
                dram: vals[3],
                consume_wait: vals[4],
                mmio: vals[5],
                fault_recovery: vals[6],
            };
            (Some(vals[0]), Some(st))
        } else {
            (None, None)
        };
        Some(Measurement {
            app: f[0].into(),
            dataset: f[1].into(),
            variant: f[2].into(),
            cycles: f[3].parse().ok()?,
            loads: f[4].parse().ok()?,
            load_latency: f[5].parse().ok()?,
            verified: f[6].parse().ok()?,
            core_cycles,
            stall,
        })
    }

    /// Lookup key.
    #[must_use]
    pub fn key(&self) -> (String, String, String) {
        (self.app.clone(), self.dataset.clone(), self.variant.clone())
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

/// Content key of one case under `config`: the full descriptor, digested.
#[must_use]
pub fn case_key(spec: &CaseSpec, config: &SocConfig) -> u64 {
    let mut d = Digest::new(CACHE_SCHEMA);
    d.str(&spec.app)
        .str(&spec.dataset)
        .str(spec.variant.label());
    // The label does not distinguish prefetch distances; the descriptor
    // must.
    let dist = match spec.variant {
        Variant::SwPrefetch { dist } => u64::from(dist),
        _ => 0,
    };
    d.u64(dist).usize(spec.threads);
    config.digest_into(&mut d);
    d.finish()
}

/// Execution accounting of one suite: the `jobs=N, wall=…s, cache
/// hits/misses` line every figure binary prints, and the JSON/metrics
/// form of the same numbers.
#[derive(Debug, Clone, Default)]
pub struct FleetLine {
    /// Worker threads the batch ran with.
    pub jobs: usize,
    /// Suite wall-clock (cache probing + batch execution), seconds.
    pub wall_seconds: f64,
    /// Cases served from the content-addressed cache.
    pub cache_hits: usize,
    /// Cases that had to be simulated.
    pub cache_misses: usize,
}

impl FleetLine {
    /// The one-line text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "jobs={}, wall={:.2}s, cache {} hits / {} misses",
            self.jobs, self.wall_seconds, self.cache_hits, self.cache_misses
        )
    }

    /// Surfaces the accounting through the standard metrics machinery.
    pub fn to_metrics(&self, prefix: &str, m: &mut MetricsSnapshot) {
        m.counter(format!("{prefix}/jobs"), self.jobs as u64);
        m.gauge(format!("{prefix}/wall_seconds"), self.wall_seconds);
        m.counter(format!("{prefix}/cache_hits"), self.cache_hits as u64);
        m.counter(format!("{prefix}/cache_misses"), self.cache_misses as u64);
    }

    /// Merges another suite's accounting into this one (for the
    /// whole-sweep totals in `BENCH_maple.json`).
    pub fn absorb(&mut self, other: &FleetLine) {
        self.jobs = self.jobs.max(other.jobs);
        self.wall_seconds += other.wall_seconds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// A completed suite: one [`Measurement`] per case, in case order, plus
/// the execution accounting.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Measurements, in the order the cases were specified.
    pub rows: Vec<Measurement>,
    /// Fleet/cache accounting for the suite.
    pub fleet: FleetLine,
}

/// Runs a suite of cases through the fleet pool and the
/// content-addressed cache.
///
/// `config_of` builds the `SocConfig` a case runs under (its digest is
/// part of the case's cache key); `run` executes one case. Cached cases
/// are served without simulating; the misses are dispatched as one
/// fleet batch and their results stored. Rows come back in case order —
/// bit-identical at every worker count.
///
/// # Panics
///
/// Panics when a case fails verification, when a job panics, or when a
/// cache entry cannot be written.
pub fn suite_with(
    cache: &ResultCache,
    pool: &FleetConfig,
    name: &str,
    cases: &[CaseSpec],
    config_of: impl Fn(&CaseSpec) -> SocConfig,
    run: impl Fn(&CaseSpec) -> RunStats + Sync,
) -> SuiteRun {
    let t0 = std::time::Instant::now();
    let keys: Vec<u64> = cases.iter().map(|c| case_key(c, &config_of(c))).collect();
    let mut rows: Vec<Option<Measurement>> = keys
        .iter()
        .map(|&k| {
            cache
                .get(k)
                .and_then(|text| Measurement::from_tsv(text.trim_end()))
        })
        .collect();
    let miss_idx: Vec<usize> = (0..cases.len()).filter(|&i| rows[i].is_none()).collect();
    let hits = cases.len() - miss_idx.len();
    if !miss_idx.is_empty() {
        eprintln!(
            "[{name}] {} cached, simulating {} cases on {} workers...",
            hits,
            miss_idx.len(),
            pool.workers
        );
        let run = &run;
        let jobs: Vec<_> = miss_idx
            .iter()
            .map(|&i| {
                let spec = &cases[i];
                move || run(spec)
            })
            .collect();
        let fresh = maple_fleet::run_batch(pool, jobs)
            .into_results()
            .unwrap_or_else(|(j, e)| {
                let spec = &cases[miss_idx[j]];
                panic!(
                    "[{name}] {}/{}/{} t={}: {e}",
                    spec.app,
                    spec.dataset,
                    spec.variant.label(),
                    spec.threads
                )
            });
        for (&i, stats) in miss_idx.iter().zip(&fresh) {
            let spec = &cases[i];
            assert!(
                stats.verified,
                "{}/{}/{} failed verification",
                spec.app,
                spec.dataset,
                spec.variant.label()
            );
            let m =
                Measurement::from_stats(&spec.app, &spec.dataset, spec.variant.label(), stats);
            cache
                .put(keys[i], &m.to_tsv())
                .unwrap_or_else(|e| panic!("[{name}] cache write failed: {e}"));
            rows[i] = Some(m);
        }
    }
    let fleet = FleetLine {
        jobs: pool.workers,
        wall_seconds: t0.elapsed().as_secs_f64(),
        cache_hits: hits,
        cache_misses: miss_idx.len(),
    };
    eprintln!("[{name}] {}", fleet.render());
    SuiteRun {
        rows: rows.into_iter().map(|r| r.expect("every case resolved")).collect(),
        fleet,
    }
}

/// [`suite_with`] under the workspace-default cache and `MAPLE_JOBS`
/// worker count, running real workload cases.
fn suite(name: &str, cases: Vec<CaseSpec>) -> SuiteRun {
    let cache = ResultCache::open_default().expect("open fleet cache");
    suite_with(
        &cache,
        &FleetConfig::from_env(),
        name,
        &cases,
        |c| config_for(c.variant, c.threads),
        |c| run_case(&c.app, &c.dataset, c.variant, c.threads),
    )
}

/// Dispatches one case to the right workload.
fn run_case(app: &str, ds: &str, variant: Variant, threads: usize) -> RunStats {
    match app {
        "sdhp" => {
            let inst = instances::sdhp()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        "spmm" => {
            let inst = instances::spmm()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        "spmv" => {
            let inst = instances::spmv()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        "bfs" => {
            let inst = instances::bfs()
                .into_iter()
                .find(|(l, _)| *l == ds)
                .expect("dataset")
                .1;
            inst.run(variant, threads)
        }
        other => panic!("unknown app {other}"),
    }
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
pub fn decoupling_suite() -> SuiteRun {
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
pub fn prefetch_suite() -> SuiteRun {
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
pub fn prior_work_suite() -> SuiteRun {
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
/// (summed across every workload/dataset). Rows parsed from truncated
/// legacy lines carry no breakdown and are skipped; if no row has one,
/// the result is empty and callers print nothing.
#[must_use]
pub fn stall_rows_by_variant(rows: &[Measurement], variants: &[&str]) -> Vec<StallRow> {
    let mut out = Vec::new();
    for v in variants {
        let mut cycles = 0u64;
        let mut total = StallBreakdown::default();
        let mut any = false;
        for m in rows.iter().filter(|m| m.variant == *v) {
            if let (Some(cc), Some(st)) = (m.core_cycles, m.stall) {
                cycles += cc;
                total.merge(&st);
                any = true;
            }
        }
        if any {
            out.push(StallRow {
                label: (*v).to_owned(),
                core_cycles: cycles,
                breakdown: total,
            });
        }
    }
    out
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
