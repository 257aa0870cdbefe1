//! `stepper_check` rejects every bad or unknown argument with usage and
//! exit code 2, before any simulation runs.

use std::process::Command;

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let cases: &[&[&str]] = &[
        &["--speedup-floor", "abc"],
        &["--speedup-floor", "0"],
        &["--speedup-floor", "NaN"],
        &["--partitions", "0"],
        &["--partitions", "-1"],
        &["--scale", "100"],
        &["--scale", "0"],
        &["--scale", "2048"],
        &["--scale"],
        &["--bogus"],
        &["--scale", "256", "--bogus"],
        &["--partitions", "4", "extra"],
        // Retired with the partitioned stepper: formerly valid, now unknown.
        &["--partitions", "4"],
        &["--speedup-floor", "1.2"],
        // Retired with the compiled core dispatch path.
        &["--fast-path"],
        &["--fast-path", "--scale", "256"],
    ];
    let retired = ["--partitions", "--speedup-floor", "--fast-path"];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_stepper_check"))
            .args(*args)
            .output()
            .expect("spawn stepper_check");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: stepper_check"),
            "{args:?}: {stderr}"
        );
        assert!(
            retired.iter().all(|flag| !stderr.contains(flag)),
            "{args:?}: usage must not offer retired flags: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no gate output on a usage error"
        );
    }
}
