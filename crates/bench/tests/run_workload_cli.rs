//! `run_workload` rejects every missing, extra, malformed or unknown
//! argument, every thread count above the largest fabric, and every
//! thread count the kernel does not run the variant on, with usage and
//! exit code 2, before any simulation runs.

use std::process::Command;

fn run_workload(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_workload"))
        .args(args)
        .output()
        .expect("spawn run_workload")
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &[],
        &["spmv"],
        &["spmv", "riscv-s"],
        &["spmv", "riscv-s", "doall", "0"],
        &["spmv", "riscv-s", "doall", "abc"],
        &["spmv", "riscv-s", "doall", "-1"],
        &["spmv", "riscv-s", "doall", "2", "extra"],
        &["--list", "extra"],
        &["nosuchapp", "riscv-s", "doall"],
        &["spmv", "nosuchdataset", "doall"],
        &["spmv", "riscv-s", "nosuchvariant"],
        &["spmv", "riscv-s", "maple-dec", "3"],
        &["spmv", "riscv-s", "maple-lima", "2"],
        &["bfs", "wiki", "doall", "3"],
        // More MAPLE queues than the configuration has.
        &["spmv", "riscv-s", "maple-dec", "18"],
        &["sdhp", "suitesparse", "maple-dec", "18"],
        &["bfs", "wiki", "maple-dec", "16"],
        // More threads than the largest fabric the repository runs.
        &["spmv", "riscv-s", "doall", "4096"],
        &["spmv", "riscv-s", "doall", "5000000000"],
    ];
    for args in cases {
        let out = run_workload(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: run_workload")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no run output on a usage error"
        );
    }
}

#[test]
fn list_prints_the_evaluation_pairs() {
    let out = run_workload(&["--list"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.split_whitespace().eq(["spmv", "riscv-s"])),
        "{stdout}"
    );
}
