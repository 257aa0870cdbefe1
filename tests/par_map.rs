//! Acceptance tests for parallel execution as wired into the bench
//! harness: suite results are bit-identical at every worker count, and a
//! panicking case is reported by index and message without disturbing
//! the next map.

use maple_bench::experiments::{suite_with, CaseSpec, Measurement};
use maple_bench::summary::{build_json, HarnessLine};
use maple_sim::par::par_map;
use maple_trace::StallBreakdown;
use maple_workloads::harness::FaultReport;
use maple_workloads::{RunStats, Variant};

/// A deterministic synthetic "simulation": stats are a pure function of
/// the case descriptor, so any cross-worker-count divergence can only
/// come from the parallel plumbing under test.
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
            cases.push(CaseSpec::new(app, ds, variant, threads));
        }
    }
    cases
}

#[test]
fn suite_rows_and_summary_json_identical_across_worker_counts() {
    // The fig08, fig09 and fig12 suites: 2-thread do-all and MAPLE
    // decoupling are in two of them, so they are simulated once.
    let requests = [
        cases_of(&[
            (Variant::Doall, 2),
            (Variant::SwDecoupled, 2),
            (Variant::MapleDecoupled, 2),
        ]),
        cases_of(&[
            (Variant::Doall, 1),
            (Variant::SwPrefetch { dist: 16 }, 1),
            (Variant::MapleLima, 1),
        ]),
        cases_of(&[
            (Variant::Doall, 2),
            (Variant::MapleDecoupled, 2),
            (Variant::Desc, 2),
            (Variant::Droplet, 2),
        ]),
    ];

    // Fixed harness line: the run-to-run numbers (wall, jobs) enter the
    // JSON only through this argument, so the rendered document must be
    // byte-identical at every worker count.
    let harness = HarnessLine::default();
    let mut reference: Option<(Vec<Measurement>, String)> = None;
    for workers in [1usize, 2, 8] {
        let [fig08, fig09, fig12]: [Vec<Measurement>; 3] =
            suite_with(workers, "t", &requests, synthetic_run)
                .try_into()
                .expect("one row set per request");
        assert_eq!(fig12.len(), requests[2].len());
        assert_eq!(fig12[1], fig08[2], "a shared case yields one row");

        let json =
            build_json(&fig08, &fig09, &fig12, 42.0, &harness, None, None, None).render_pretty();
        let rows = [fig08, fig09, fig12].concat();
        match &reference {
            None => reference = Some((rows, json)),
            Some((ref_rows, ref_json)) => {
                assert_eq!(&rows, ref_rows, "rows diverged at workers={workers}");
                assert_eq!(
                    &json, ref_json,
                    "summary JSON diverged at workers={workers}"
                );
            }
        }
    }
}

#[test]
fn panicking_job_is_isolated_while_others_complete() {
    let items: Vec<u64> = (0..6).collect();
    let (i, err) = par_map(4, &items, |&i| {
        assert!(i != 2, "synthetic failure in job two");
        i * 7
    })
    .expect_err("job two must fail");
    assert_eq!(i, 2);
    assert!(err.contains("synthetic failure"), "{err}");
    // Nothing is poisoned: the next map runs clean.
    let again = par_map(4, &items, |&i| i * 7).expect("healthy jobs");
    assert_eq!(again, items.iter().map(|i| i * 7).collect::<Vec<_>>());
}
