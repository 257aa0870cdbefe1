//! Acceptance tests for the `maple-fleet` execution runtime as wired
//! into the bench harness: results are bit-identical at every worker
//! count, a panicking job is isolated into a typed error, and the
//! content-addressed cache serves repeat runs and invalidates exactly
//! the cases whose configuration changed. The `oracle_grid` binary's
//! stdout matches its committed golden output.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use maple_bench::experiments::{suite_with, CaseSpec, Measurement};
use maple_bench::summary::{build_json, HarnessLine};
use maple_fleet::{run_batch, FleetConfig, ResultCache};
use maple_soc::config::SocConfig;
use maple_trace::StallBreakdown;
use maple_workloads::harness::FaultReport;
use maple_workloads::{RunStats, Variant};

/// Fresh scratch cache directory, unique per test.
fn scratch_cache(tag: &str) -> ResultCache {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "maple-fleet-it-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    ResultCache::open(dir).expect("open scratch cache")
}

/// A deterministic synthetic "simulation": stats are a pure function of
/// the case descriptor, so any cross-worker-count divergence can only
/// come from the fleet plumbing under test.
fn synthetic_run(spec: &CaseSpec) -> RunStats {
    let mut h: u64 = 0xfeed;
    for b in spec
        .app
        .bytes()
        .chain(spec.dataset.bytes())
        .chain(spec.variant.label().bytes())
    {
        h = h.wrapping_mul(31).wrapping_add(u64::from(b));
    }
    h = h.wrapping_add(spec.threads as u64);
    RunStats {
        cycles: 1000 + h % 9000,
        loads: 10 + h % 90,
        mean_load_latency: 4.0 + (h % 16) as f64,
        verified: true,
        cores: Vec::new(),
        engine: (0, 0, 0, 0),
        queue0_occupancy_mean: 0.0,
        queues_produced: h % 64,
        queues_consumed: h % 64,
        queues_drained: true,
        noc_injected: 100,
        noc_delivered: 100,
        hung: false,
        faults: FaultReport::default(),
        core_cycles: 2 * (1000 + h % 9000),
        stall: StallBreakdown {
            l1_miss: h % 100,
            l2_miss: h % 50,
            dram: h % 200,
            consume_wait: h % 10,
            mmio: h % 5,
            fault_recovery: 0,
        },
    }
}

fn cases_of(variants: &[(Variant, usize)]) -> Vec<CaseSpec> {
    let mut cases = Vec::new();
    for (app, ds) in [("spmv", "small"), ("spmv", "large"), ("bfs", "road")] {
        for &(variant, threads) in variants {
            cases.push(CaseSpec {
                app: app.into(),
                dataset: ds.into(),
                variant,
                threads,
            });
        }
    }
    cases
}

fn tsv_of(rows: &[Measurement]) -> Vec<String> {
    rows.iter().map(Measurement::to_tsv).collect()
}

#[test]
fn suite_rows_and_summary_json_identical_across_worker_counts() {
    let fig08_cases = cases_of(&[
        (Variant::Doall, 2),
        (Variant::SwDecoupled, 2),
        (Variant::MapleDecoupled, 2),
    ]);
    let fig09_cases = cases_of(&[
        (Variant::Doall, 1),
        (Variant::SwPrefetch { dist: 16 }, 1),
        (Variant::MapleLima, 1),
    ]);
    let fig12_cases = cases_of(&[
        (Variant::Doall, 2),
        (Variant::MapleDecoupled, 2),
        (Variant::Desc, 2),
        (Variant::Droplet, 2),
    ]);

    // Fixed harness line: the run-to-run numbers (wall, jobs) enter the
    // JSON only through this argument, so the rendered document must be
    // byte-identical at every worker count.
    let harness = HarnessLine::default();
    let reference: Option<(Vec<String>, String)> = None;
    let mut reference = reference;
    for workers in [1usize, 2, 8] {
        let cache = scratch_cache(&format!("workers{workers}"));
        let pool = FleetConfig::from_env().with_workers(workers);
        let fig08 = suite_with(&cache, &pool, "t08", &fig08_cases, base_config, synthetic_run);
        let fig09 = suite_with(&cache, &pool, "t09", &fig09_cases, base_config, synthetic_run);
        let fig12 = suite_with(&cache, &pool, "t12", &fig12_cases, base_config, synthetic_run);
        assert_eq!(fig08.fleet.jobs, workers);
        assert_eq!(fig08.fleet.cache_misses, fig08_cases.len());

        let mut tsv = tsv_of(&fig08.rows);
        tsv.extend(tsv_of(&fig09.rows));
        tsv.extend(tsv_of(&fig12.rows));
        let json = build_json(
            &fig08.rows,
            &fig09.rows,
            &fig12.rows,
            42.0,
            &harness,
            None,
            None,
            None,
        )
        .render_pretty();
        match &reference {
            None => reference = Some((tsv, json)),
            Some((ref_tsv, ref_json)) => {
                assert_eq!(&tsv, ref_tsv, "rows diverged at workers={workers}");
                assert_eq!(&json, ref_json, "summary JSON diverged at workers={workers}");
            }
        }
        let _ = fs::remove_dir_all(cache.root());
    }
}

fn base_config(spec: &CaseSpec) -> SocConfig {
    let _ = spec;
    SocConfig::fpga_prototype()
}

#[test]
fn panicking_job_is_isolated_while_others_complete() {
    let cfg = FleetConfig::from_env().with_workers(4);
    let jobs: Vec<Box<dyn Fn() -> u64 + Send>> = (0u64..6)
        .map(|i| {
            Box::new(move || {
                assert!(i != 2, "synthetic failure in job two");
                i * 7
            }) as Box<dyn Fn() -> u64 + Send>
        })
        .collect();
    let batch = run_batch(&cfg, jobs);
    assert_eq!(batch.outcomes.len(), 6);
    for (i, o) in batch.outcomes.iter().enumerate() {
        if i == 2 {
            let err = o.result.as_ref().expect_err("job two must fail");
            assert!(err.message.contains("synthetic failure"), "{err}");
        } else {
            assert_eq!(*o.result.as_ref().expect("healthy job"), i as u64 * 7);
        }
    }
    // The pool survives: a follow-up batch runs clean.
    let again = run_batch(&cfg, (0u64..4).map(|i| move || i).collect::<Vec<_>>());
    assert!(again.outcomes.iter().all(|o| o.result.is_ok()));
}

#[test]
fn cache_serves_repeats_and_invalidates_exactly_the_changed_configs() {
    let cases = cases_of(&[(Variant::Doall, 2), (Variant::MapleDecoupled, 2)]);
    let cache = scratch_cache("invalidation");
    let pool = FleetConfig::from_env().with_workers(2);

    // Cold: everything simulated.
    let first = suite_with(&cache, &pool, "cold", &cases, base_config, synthetic_run);
    assert_eq!(first.fleet.cache_misses, cases.len());
    assert_eq!(first.fleet.cache_hits, 0);

    // Warm: 100% hits, identical rows.
    let second = suite_with(&cache, &pool, "warm", &cases, base_config, synthetic_run);
    assert_eq!(second.fleet.cache_hits, cases.len());
    assert_eq!(second.fleet.cache_misses, 0);
    assert_eq!(tsv_of(&first.rows), tsv_of(&second.rows));

    // Perturb one timing parameter for the spmv cases only: exactly
    // those keys change, so exactly those cases miss.
    let perturbed = |spec: &CaseSpec| {
        let mut cfg = SocConfig::fpga_prototype();
        if spec.app == "spmv" {
            cfg.dram.latency += 1;
        }
        cfg
    };
    let spmv_cases = cases.iter().filter(|c| c.app == "spmv").count();
    assert!(spmv_cases > 0 && spmv_cases < cases.len());
    let third = suite_with(&cache, &pool, "perturbed", &cases, perturbed, synthetic_run);
    assert_eq!(third.fleet.cache_misses, spmv_cases);
    assert_eq!(third.fleet.cache_hits, cases.len() - spmv_cases);

    // Back to the base config: the original entries are still there.
    let fourth = suite_with(&cache, &pool, "back", &cases, base_config, synthetic_run);
    assert_eq!(fourth.fleet.cache_hits, cases.len());
    let _ = fs::remove_dir_all(cache.root());
}

#[test]
fn corrupted_cache_entries_are_recomputed_not_propagated() {
    let cases = cases_of(&[(Variant::Doall, 2), (Variant::SwDecoupled, 2)]);
    let cache = scratch_cache("corruption");
    let pool = FleetConfig::from_env().with_workers(2);

    let first = suite_with(&cache, &pool, "cold", &cases, base_config, synthetic_run);
    assert_eq!(first.fleet.cache_misses, cases.len());

    // Vandalize the store three different ways: truncate one entry
    // mid-payload, overwrite one with garbage, and empty a third. A
    // wedged or stale on-disk store must cost only recomputation —
    // never a panic, and never a wrong row.
    let mut entries: Vec<PathBuf> = fs::read_dir(cache.root())
        .expect("cache root exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "need three entries to vandalize");
    let full = fs::read(&entries[0]).expect("read entry");
    fs::write(&entries[0], &full[..full.len() / 2]).expect("truncate entry");
    fs::write(&entries[1], b"not a fleet entry at all\x00\xff").expect("garbage entry");
    fs::write(&entries[2], b"").expect("empty entry");

    let second = suite_with(&cache, &pool, "vandalized", &cases, base_config, synthetic_run);
    assert_eq!(second.fleet.cache_misses, 3, "each bad entry is a miss");
    assert_eq!(second.fleet.cache_hits, cases.len() - 3);
    assert_eq!(tsv_of(&first.rows), tsv_of(&second.rows));

    // The bad entries were evicted and rewritten: fully warm again.
    let third = suite_with(&cache, &pool, "healed", &cases, base_config, synthetic_run);
    assert_eq!(third.fleet.cache_hits, cases.len());
    assert_eq!(tsv_of(&first.rows), tsv_of(&third.rows));
    let _ = fs::remove_dir_all(cache.root());
}

#[test]
fn oracle_grid_stdout_matches_the_committed_golden() {
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/oracle_grid.txt");
    let golden = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    let out = Command::new(env!("CARGO_BIN_EXE_oracle_grid"))
        .output()
        .expect("spawn oracle_grid");
    assert!(out.status.success(), "oracle_grid failed: {out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
}

#[test]
fn oracle_grid_rejects_arguments_with_usage_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_oracle_grid"))
        .args(["--coordinator", "loopback:1"])
        .output()
        .expect("spawn oracle_grid");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: oracle_grid"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no grid rows on a usage error");
}
