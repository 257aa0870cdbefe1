//! Every harness binary that takes no arguments rejects any argument
//! with a usage line, `results` rejects an unknown NAME or flag the same
//! way, and all of them reject a `MAPLE_JOBS` value that is not a
//! positive integer with one line: exit code 2, before the binary
//! simulates anything or writes a file. The binaries write relative to
//! the working directory (`results/`, `BENCH_maple.json`, the README
//! tables), so each runs in an empty one that must stay empty.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// The binaries and their `CARGO_BIN_EXE_*` paths.
const BINARIES: [(&str, &str); 4] = [
    ("bench_summary", env!("CARGO_BIN_EXE_bench_summary")),
    ("oracle_grid", env!("CARGO_BIN_EXE_oracle_grid")),
    ("results", env!("CARGO_BIN_EXE_results")),
    ("serve_check", env!("CARGO_BIN_EXE_serve_check")),
];

/// Bad invocations — an argument (`fig99` names no `results` entry),
/// or a `MAPLE_JOBS` value that is not a positive integer — and the
/// start of the one stderr line each must print (`NAME` stands for the
/// binary).
const BAD: [(Option<&str>, Option<&str>, &str); 5] = [
    (Some("--bogus"), None, "usage: NAME "),
    (Some("fig99"), None, "usage: NAME "),
    (None, Some("abc"), "NAME: MAPLE_JOBS="),
    (None, Some("0"), "NAME: MAPLE_JOBS="),
    (None, Some(""), "NAME: MAPLE_JOBS="),
];

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_argument_cli");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the working directory");
    for (name, exe) in BINARIES {
        for (arg, jobs, start) in BAD {
            let mut cmd = Command::new(exe);
            cmd.args(arg).current_dir(&dir).env_remove("MAPLE_JOBS");
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
            assert!(
                fs::read_dir(&dir).unwrap().next().is_none(),
                "{case}: a usage error must write nothing"
            );
        }
    }
}
