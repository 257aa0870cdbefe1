//! CI gate for the event-horizon scheduler: one stall-heavy SPMV config
//! runs under both steppers; any divergence in the final cycle count,
//! the run statistics, or the metrics-snapshot JSON fails the build.
//! Doubles as the perf smoke: prints simulated Mcycles per host second
//! for the dense and skipping loops and the resulting speedup.
//!
//! With `--scale N` it instead runs the hierarchical-fabric determinism gate:
//! an `N`-tile clustered SoC (4×4 crossbar clusters, one L2 bank and
//! one MAPLE engine per cluster) under the skipping stepper vs the dense
//! reference, printing only host-independent lines for the cross-worker
//! byte-diff — the scale smoke of `ci.sh`.
//!
//! Any other, extra or malformed argument prints usage and exits 2
//! before any simulation runs.

use maple_bench::scaling::{scale_gate, square_cluster_grid};
use maple_bench::stepper::stall_heavy_comparison;

const USAGE: &str = "usage: stepper_check [--scale TILES]
  TILES    a square number of 16-tile clusters, at most 1024 (16, 64, 144, 256, ..., 1024)";

/// Largest `--scale` the binary accepts: the biggest fabric the repo runs.
const MAX_SCALE_TILES: usize = 1024;

/// The gate one invocation runs.
enum Mode {
    Steppers,
    Scale(usize),
}

/// Parses the command line (program name excluded); `None` for any
/// unknown, missing, extra or out-of-range argument.
fn parse(args: &[String]) -> Option<Mode> {
    match args {
        [] => Some(Mode::Steppers),
        [flag, value] if flag == "--scale" => value
            .parse()
            .ok()
            .filter(|&t| t <= MAX_SCALE_TILES && square_cluster_grid(t).is_some())
            .map(Mode::Scale),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = parse(&args) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match mode {
        Mode::Steppers => stepper_gate(),
        Mode::Scale(tiles) => {
            print_or_fail(scale_gate(0x5CA1E, tiles), "HIERARCHICAL FABRIC DIVERGENCE")
        }
    }
}

/// Prints a gate's host-independent report, or its divergence and exits 1.
fn print_or_fail(result: Result<String, String>, divergence: &str) {
    match result {
        Ok(report) => println!("{report}"),
        Err(msg) => {
            eprintln!("[stepper_check] {divergence}\n{msg}");
            std::process::exit(1);
        }
    }
}

/// The default gate: dense vs skipping on the stall-heavy SPMV; the
/// closing `stepper ok:` line is the host-throughput smoke.
fn stepper_gate() {
    let cmp = stall_heavy_comparison(0x57E9);
    if let Some(msg) = cmp.divergence() {
        eprintln!("[stepper_check] STEPPER DIVERGENCE\n{msg}");
        std::process::exit(1);
    }
    println!(
        "stepper ok: bit-exact at {} cycles; dense {:.2} Mcy/s, skipping {:.2} Mcy/s ({:.1}x)",
        cmp.dense.stats.cycles,
        cmp.dense.mcycles_per_sec(),
        cmp.skipping.mcycles_per_sec(),
        cmp.speedup()
    );
}
