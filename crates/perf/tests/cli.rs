//! End-to-end checks of the `maple-perf` binary at smoke scale.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use maple_perf::metrics::{self, MetricDef};
use maple_perf::workloads::{load_slice_spmv, Scale, SpmvShape, Workload};
use maple_soc::system::System;
use maple_trace::Json;
use maple_workloads::harness::alloc_u32;
use maple_workloads::slice::upload_tenant;

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maple-perf"))
        .args(args)
        .output()
        .expect("maple-perf starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The `name value unit` lines of a run's output.
fn metric_lines(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with("rep ") && !l.starts_with('{'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (name, _value) = (f.next()?, f.next()?);
            Some((name.to_string(), f.next().unwrap_or("").to_string()))
        })
        .filter(|(name, _)| name != "ops" && name != "ops_failed")
        .collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn every_workload_passes_at_smoke_scale_untraced_and_traced() {
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = perf(&[
                "--workload",
                w.name(),
                "--scale",
                "smoke",
                "--reps",
                "1",
                "--trace",
                trace,
            ]);
            let text = stdout(&out);
            assert!(out.status.success(), "{} trace {trace}:\n{text}", w.name());
            assert!(text.contains("\nops_failed 0\n"), "{text}");
            let last = Json::parse(text.lines().last().expect("result line")).expect("JSON result");
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
            assert!(last.get("attempted").and_then(Json::as_u64) >= Some(1));
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(doc: &Json, tier: &str) -> BTreeMap<String, String> {
    doc.get(tier)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json_in_both_directions() {
    let doc = benchmark_json();
    for (trace, tier) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perf(&[
            "--workload",
            "flat_spmv_dec",
            "--scale",
            "smoke",
            "--reps",
            "1",
            "--trace",
            trace,
        ]);
        let printed = metric_lines(&stdout(&out));
        let want = declared(&doc, tier);
        assert_eq!(printed, want, "printed vs BENCHMARK.json {tier}");
        assert!(
            printed.values().all(|u| !u.is_empty()),
            "every metric has a unit"
        );
        let last = Json::parse(stdout(&out).lines().last().expect("result")).expect("JSON");
        let Some(Json::Object(members)) = last.get("metrics") else {
            panic!("metrics object")
        };
        let keys: BTreeSet<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, want.keys().map(String::as_str).collect());
    }
    // The catalogue compare judges with is the one BENCHMARK.json declares.
    let entries = |tier: &str| {
        doc.get(tier)
            .and_then(Json::as_array)
            .expect("list")
            .to_vec()
    };
    let check = |defs: &[MetricDef], tier: &str| {
        let list = entries(tier);
        assert_eq!(list.len(), defs.len());
        for (m, d) in list.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.label())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound);
        }
    };
    check(&metrics::END_TO_END, "end_to_end");
    check(&metrics::PER_LAYER, "per_layer");
}

#[test]
fn exact_counters_repeat_across_processes_and_compare_reports_them() {
    let root = fresh_dir("exact_repeat");
    let (a, b) = (root.join("parent"), root.join("change"));
    for dir in [&a, &b] {
        std::fs::create_dir_all(dir).expect("side dir");
        let file = dir.join("fabric.json");
        let out = perf(&[
            "--workload",
            "fabric_1024",
            "--scale",
            "smoke",
            "--reps",
            "2",
            "--seed",
            "7",
            "--out",
            file.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success(), "{}", stdout(&out));
    }
    let exact = |dir: &Path| {
        let doc = Json::parse(&std::fs::read_to_string(dir.join("fabric.json")).expect("out file"))
            .expect("JSON");
        doc.get("exact").cloned().expect("exact counters")
    };
    let (ea, eb) = (exact(&a), exact(&b));
    assert_eq!(ea, eb);
    assert!(ea.get("soc.sim_cycles").and_then(Json::as_f64) > Some(0.0));
    let out = perf(&[
        "compare",
        a.to_str().expect("path"),
        b.to_str().expect("path"),
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(
        text.contains("counters identical over 1 shared seeds"),
        "{text}"
    );
    assert!(text.contains("sim_mcps"), "{text}");
}

#[test]
fn slice_built_spmv_matches_the_reference() {
    for w in [Workload::Fabric1024, Workload::FlatSpmvDec] {
        let cfg = w.soc_config(Scale::Smoke);
        let spmv = SpmvShape::of(w, Scale::Smoke).instance(3);
        let mut sys = System::new(cfg);
        let arrays = upload_tenant(&mut sys, &spmv.a, &spmv.x);
        let y = alloc_u32(&mut sys, spmv.a.nrows);
        load_slice_spmv(&mut sys, &arrays, y, spmv.a.nrows);
        assert!(sys.run(4_000_000).is_finished(), "{}", w.name());
        assert_eq!(
            sys.read_slice_u32(y, spmv.a.nrows),
            spmv.reference(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn bad_command_lines_exit_with_an_error_not_a_panic() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload"],
        &["--workload", "kernel_mix", "--seed", "x"],
        &["--workload", "kernel_mix", "--trace", "2"],
        &["--workload", "kernel_mix", "--reps", "0"],
        &["--workload", "kernel_mix", "--seconds", "-1"],
        &["--workload", "kernel_mix", "--bogus", "1"],
        &["--seed", "3"],
        &["compare", "/nonexistent-a", "/nonexistent-b"],
    ] {
        let out = perf(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("error:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
