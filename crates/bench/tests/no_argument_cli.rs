//! `results` rejects an unknown NAME or flag with a usage line, and a
//! `MAPLE_JOBS` value that is not a positive integer with one line:
//! exit code 2, before it simulates anything or writes a file. It
//! writes relative to the working directory (`results/`), so it runs in
//! an empty one that must stay empty.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Bad invocations — an argument (`fig99` names no `results` entry),
/// or a `MAPLE_JOBS` value that is not a positive integer — and the
/// start of the one stderr line each must print.
const BAD: [(Option<&str>, Option<&str>, &str); 5] = [
    (Some("--bogus"), None, "usage: results "),
    (Some("fig99"), None, "usage: results "),
    (None, Some("abc"), "results: MAPLE_JOBS="),
    (None, Some("0"), "results: MAPLE_JOBS="),
    (None, Some(""), "results: MAPLE_JOBS="),
];

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no_argument_cli");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the working directory");
    for (arg, jobs, start) in BAD {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_results"));
        cmd.args(arg).current_dir(&dir).env_remove("MAPLE_JOBS");
        if let Some(jobs) = jobs {
            cmd.env("MAPLE_JOBS", jobs);
        }
        let out = cmd.output().expect("spawn results");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("results {arg:?} MAPLE_JOBS={jobs:?}");
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.starts_with(start), "{case}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case}: no output on a usage error");
        assert!(
            fs::read_dir(&dir).unwrap().next().is_none(),
            "{case}: a usage error must write nothing"
        );
    }
}
