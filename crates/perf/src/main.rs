//! Command-line front end of the `maple-perf` benchmark.

use std::path::PathBuf;
use std::process::ExitCode;

use maple_perf::bench::{self, Options};
use maple_perf::compare;
use maple_perf::workloads::{Scale, Workload};

const USAGE: &str = "usage: maple-perf --workload NAME [--seed N] [--seconds S] [--reps R] \
[--trace 0|1] [--trace-dir DIR] [--out FILE] [--scale full|smoke]
       maple-perf compare PARENT_DIR CHANGE_DIR
workloads: fabric_1024 flat_spmv_dec kernel_mix serve_mt";

/// Longest run the command line accepts, in seconds.
const MAX_SECONDS: f64 = 3600.0;
/// Most reps the command line accepts.
const MAX_REPS: usize = 10_000;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 0.0f64;
    let mut reps = None;
    let mut trace = false;
    let mut trace_dir = None;
    let mut out = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=MAX_SECONDS).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--reps" => {
                let r: usize = value.parse().map_err(|_| bad())?;
                if !(1..=MAX_REPS).contains(&r) {
                    return Err(bad());
                }
                reps = Some(r);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--scale" => {
                scale = match value {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        reps: reps.unwrap_or_else(|| workload.default_reps()),
        trace: trace || trace_dir.is_some(),
        trace_dir,
        out,
        scale,
    })
}

fn main() -> ExitCode {
    // Lossy, so a non-UTF-8 argument is rejected as a bad value, not a panic.
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    if let [cmd, parent, change] = args.as_slice() {
        if cmd == "compare" {
            return match compare::compare(parent.as_ref(), change.as_ref()) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&opts) {
        Ok(report) => {
            print!("{}", report.render());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
