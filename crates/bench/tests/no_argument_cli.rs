//! Every harness binary that takes no arguments rejects any argument
//! with a usage line, and a `MAPLE_JOBS` value that is not a positive
//! integer with one line, both with exit code 2 and before it simulates
//! anything or rewrites a committed file (figure sidecars,
//! `BENCH_maple.json`, the README tables).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The binaries and their `CARGO_BIN_EXE_*` paths.
const BINARIES: [(&str, &str); 17] = [
    (
        "ablation_maple_scaling",
        env!("CARGO_BIN_EXE_ablation_maple_scaling"),
    ),
    ("area", env!("CARGO_BIN_EXE_area")),
    ("bench_summary", env!("CARGO_BIN_EXE_bench_summary")),
    ("counters", env!("CARGO_BIN_EXE_counters")),
    ("fig08", env!("CARGO_BIN_EXE_fig08")),
    ("fig09", env!("CARGO_BIN_EXE_fig09")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ("fig14", env!("CARGO_BIN_EXE_fig14")),
    ("fig15", env!("CARGO_BIN_EXE_fig15")),
    ("hops", env!("CARGO_BIN_EXE_hops")),
    ("oracle_grid", env!("CARGO_BIN_EXE_oracle_grid")),
    ("queue_sweep", env!("CARGO_BIN_EXE_queue_sweep")),
    ("serve_check", env!("CARGO_BIN_EXE_serve_check")),
    ("tables", env!("CARGO_BIN_EXE_tables")),
];

/// Contents of every committed file a harness binary may write: the
/// top level of `results/`, `BENCH_maple.json` and `README.md`.
fn committed_outputs(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join("results"))
        .expect("list results/")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.is_file())
        .collect();
    paths.push(root.join("BENCH_maple.json"));
    paths.push(root.join("README.md"));
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).unwrap_or_default();
            (path, bytes)
        })
        .collect()
}

/// Bad invocations — an argument, or a `MAPLE_JOBS` value that is not
/// a positive integer — and the start of the one stderr line each must
/// print (`NAME` stands for the binary).
const BAD: [(Option<&str>, Option<&str>, &str); 4] = [
    (Some("--bogus"), None, "usage: NAME "),
    (None, Some("abc"), "NAME: MAPLE_JOBS="),
    (None, Some("0"), "NAME: MAPLE_JOBS="),
    (None, Some(""), "NAME: MAPLE_JOBS="),
];

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let before = committed_outputs(&root);
    for (name, exe) in BINARIES {
        for (arg, jobs, start) in BAD {
            let mut cmd = Command::new(exe);
            cmd.args(arg);
            if let Some(jobs) = jobs {
                cmd.env("MAPLE_JOBS", jobs);
            }
            let out = cmd.output().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{name} {arg:?} MAPLE_JOBS={jobs:?}");
            assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
            assert!(
                stderr.starts_with(&start.replace("NAME", name)),
                "{case}: {stderr}"
            );
            assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
            assert!(out.stdout.is_empty(), "{case}: no output on a usage error");
        }
    }
    assert!(
        committed_outputs(&root) == before,
        "a usage error must not rewrite a committed file"
    );
}
