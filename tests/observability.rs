//! Integration tests for the observability plane: the trace schema, the
//! Chrome exporter, the cycle-identity guarantee (tracing is pure
//! observation), and the metrics/stall accounting invariants.

use maple_trace::{chrome, Json, TraceConfig, TraceEvent};
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::spmv::Spmv;
use maple_workloads::Variant;

fn small_spmv() -> Spmv {
    Spmv {
        a: uniform_sparse(48, 16 * 1024, 5, 9),
        x: dense_vector(16 * 1024, 10),
    }
}

/// Tracing must be invisible to the simulated machine: the exact same
/// run with and without a tracer attached produces identical cycle
/// counts and identical architectural statistics.
#[test]
fn tracing_is_cycle_identical() {
    let spmv = small_spmv();
    for (variant, threads) in [
        (Variant::MapleDecoupled, 2usize),
        (Variant::MapleLima, 1),
        (Variant::Doall, 2),
    ] {
        let plain = spmv.run(variant, threads);
        let (traced, sys) =
            spmv.run_observed(variant, threads, |c| c.with_tracing(TraceConfig::default()));
        assert_eq!(
            plain.cycles, traced.cycles,
            "{variant:?}: tracing changed the cycle count"
        );
        assert_eq!(plain.core_cycles, traced.core_cycles);
        assert_eq!(plain.stall.total(), traced.stall.total());
        assert!(plain.verified && traced.verified);
        assert!(
            !sys.trace_records().is_empty(),
            "{variant:?}: traced run captured no events"
        );
    }
}

/// Captured records are well-formed: timestamps are monotonic (the SoC
/// emits in tick order), stall begin/end events alternate per core, and
/// every end names a cause.
#[test]
fn trace_schema_is_well_formed() {
    let spmv = small_spmv();
    let (_, sys) = spmv.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default())
    });
    let records = sys.trace_records();
    assert!(records.len() > 100, "expected a substantial trace");

    let mut last_ts = 0u64;
    let mut stalled = std::collections::HashMap::new();
    for rec in &records {
        assert!(
            rec.ts.0 >= last_ts,
            "timestamps must be monotonically non-decreasing"
        );
        last_ts = rec.ts.0;
        assert!(!rec.event.name().is_empty());
        match rec.event {
            TraceEvent::CoreStallBegin { core, .. } => {
                let was = stalled.insert(core, true);
                assert_ne!(was, Some(true), "core {core}: nested stall begin");
            }
            TraceEvent::CoreStallEnd { core, .. } => {
                let was = stalled.insert(core, false);
                assert_eq!(was, Some(true), "core {core}: stall end without begin");
            }
            _ => {}
        }
    }
}

/// The Chrome exporter yields a parseable `trace_event` document whose
/// events carry the mandatory fields and land in the expected process
/// lanes.
#[test]
fn chrome_export_parses_and_is_nonempty() {
    let spmv = small_spmv();
    let (_, sys) = spmv.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default())
    });
    let doc = chrome::chrome_trace(&sys.trace_records());
    let text = doc.render();
    let parsed = Json::parse(&text).expect("exported trace must be valid JSON");

    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(events.len() > 100, "expected a substantial trace");
    let mut phases = std::collections::HashSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        phases.insert(ph.to_owned());
        assert!(ev.get("pid").and_then(Json::as_u64).is_some(), "pid field");
        if ph != "M" {
            assert!(ev.get("ts").is_some(), "ts field on non-metadata events");
        }
        if ph == "B" || ph == "E" || ph == "X" || ph == "C" || ph == "i" {
            assert!(
                ev.get("name").and_then(Json::as_str).is_some(),
                "name field"
            );
        }
    }
    // Spans (stalls), completes (fills/MMIO), counters (queues) and
    // process metadata must all be present in a decoupled run.
    for required in ["B", "E", "X", "C", "M"] {
        assert!(phases.contains(required), "missing phase {required}");
    }
}

/// Stall accounting never exceeds wall-clock: each core's attributed
/// stall cycles fit inside its executed cycles, and the snapshot exposes
/// the same totals.
#[test]
fn stall_attribution_is_bounded_and_consistent() {
    let spmv = small_spmv();
    let (_, sys) = spmv.run_observed(Variant::MapleDecoupled, 2, |c| {
        c.with_tracing(TraceConfig::default())
    });
    let rows = sys.stall_rows();
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(
            row.breakdown.total() <= row.core_cycles,
            "{}: attributed {} stall cycles in {} core cycles",
            row.label,
            row.breakdown.total(),
            row.core_cycles
        );
    }
    let snap = sys.metrics_snapshot().to_json();
    let text = snap.render();
    Json::parse(&text).expect("metrics snapshot must render valid JSON");
}

/// A disabled tracer records nothing and costs nothing observable.
#[test]
fn disabled_tracer_captures_nothing() {
    let spmv = small_spmv();
    let (_, sys) = spmv.run_observed(Variant::MapleDecoupled, 2, |c| c);
    assert!(!sys.tracer().is_enabled());
    assert!(sys.trace_records().is_empty());
    assert_eq!(sys.trace_dropped(), 0);
}

/// A trace that overflows its capacity keeps the most recent records and
/// counts every other one as dropped, whichever ring it overflowed.
#[test]
fn small_capacity_counts_every_dropped_record() {
    let spmv = small_spmv();
    let run = |cfg| {
        spmv.run_observed(Variant::MapleDecoupled, 2, |c| c.with_tracing(cfg))
            .1
    };
    let full = run(TraceConfig::default());
    assert_eq!(
        full.trace_dropped(),
        0,
        "the default capacity holds the run"
    );
    let small = run(TraceConfig { capacity: 64 });
    let kept = small.trace_records().len();
    assert_eq!(kept, 64);
    assert_eq!(
        kept as u64 + small.trace_dropped(),
        full.trace_records().len() as u64
    );
}
