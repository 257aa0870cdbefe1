//! Host-throughput comparison of the two `System` steppers.
//!
//! Runs one stall-heavy configuration — SPMV do-all against the default
//! 300-cycle DRAM, a gather working set far larger than the caches — once
//! under the dense cycle-by-cycle reference loop and once under the
//! event-horizon skipping scheduler, and reports simulated Mcycles per
//! host second for both. The two runs must be bit-exact (same final
//! cycle count, same `RunStats`, same metrics snapshot); [`divergence`]
//! renders any mismatch, and [`stepper_gate`] renders the gate's
//! host-independent lines.
//!
//! [`divergence`]: StepperComparison::divergence

use std::time::Instant;

use maple_sim::hash::Digest;
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::{RunStats, Variant};
use maple_workloads::spmv::Spmv;

/// One timed run of the benchmark config under one stepper.
#[derive(Debug)]
pub struct StepperRun {
    /// Workload statistics (simulated; stepper-independent by contract).
    pub stats: RunStats,
    /// Rendered metrics-snapshot JSON (simulated; stepper-independent).
    pub metrics_json: String,
    /// Host wall-clock of the `System::run` call alone.
    pub wall_seconds: f64,
}

impl StepperRun {
    /// Simulated megacycles per host second.
    #[must_use]
    pub fn mcycles_per_sec(&self) -> f64 {
        self.stats.cycles as f64 / self.wall_seconds / 1.0e6
    }
}

/// The paired measurement: same workload, both steppers.
#[derive(Debug)]
pub struct StepperComparison {
    /// The dense cycle-by-cycle reference loop.
    pub dense: StepperRun,
    /// The event-horizon skipping scheduler (the default stepper).
    pub skipping: StepperRun,
}

impl StepperComparison {
    /// Host-throughput ratio: skipping over dense.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.skipping.mcycles_per_sec() / self.dense.mcycles_per_sec()
    }

    /// `None` when the two runs are bit-exact; otherwise a rendered
    /// description of the first mismatch (final cycle count, run stats,
    /// or metrics snapshot) for the CI gate to print before failing.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        if self.skipping.stats.cycles != self.dense.stats.cycles {
            return Some(format!(
                "final cycle count diverged: skipping={} dense={}",
                self.skipping.stats.cycles, self.dense.stats.cycles
            ));
        }
        if self.skipping.stats != self.dense.stats {
            return Some(format!(
                "run stats diverged:\nskipping: {:?}\ndense:    {:?}",
                self.skipping.stats, self.dense.stats
            ));
        }
        if self.skipping.metrics_json != self.dense.metrics_json {
            return Some("metrics snapshot JSON diverged".into());
        }
        None
    }
}

/// Runs the stall-heavy benchmark config under both steppers: SPMV
/// do-all, 300-cycle DRAM, a working set that misses both cache levels
/// on most gathers; `seed` fixes the instance.
#[must_use]
pub fn stall_heavy_comparison(seed: u64) -> StepperComparison {
    let cols = 64 * 1024;
    let a = uniform_sparse(512, cols, 8, seed);
    let x = dense_vector(cols, seed ^ 0x9);
    let inst = Spmv { a, x };
    let measure = |dense: bool| {
        let t0 = Instant::now();
        let (stats, sys) = inst.run_observed(Variant::Doall, 2, move |c| {
            if dense {
                c.with_dense_stepper()
            } else {
                c
            }
        });
        let wall_seconds = t0.elapsed().as_secs_f64();
        assert!(!stats.hung, "benchmark config must complete");
        StepperRun {
            metrics_json: sys.metrics_snapshot().to_json().render(),
            stats,
            wall_seconds,
        }
    };
    // Dense first: the expensive run up front, the default stepper's
    // time measured on a warmed allocator.
    let dense = measure(true);
    let skipping = measure(false);
    StepperComparison { dense, skipping }
}

/// The stepper gate behind `results stepper_gate`: the stall-heavy
/// comparison rendered as host-independent lines (simulated cycles,
/// verification and a digest of the metrics JSON), so `results --check`
/// byte-diffs it at any worker count. The host throughput of both loops
/// goes to stderr only.
///
/// # Errors
///
/// Returns the rendered divergence when the two steppers are not
/// bit-exact.
pub fn stepper_gate(seed: u64) -> Result<String, String> {
    let cmp = stall_heavy_comparison(seed);
    if let Some(msg) = cmp.divergence() {
        return Err(msg);
    }
    eprintln!(
        "[stepper_gate] dense {:.2} Mcy/s, skipping {:.2} Mcy/s ({:.1}x)",
        cmp.dense.mcycles_per_sec(),
        cmp.skipping.mcycles_per_sec(),
        cmp.speedup()
    );
    let s = &cmp.skipping.stats;
    let mut d = Digest::new(0x57E9);
    d.str(&cmp.skipping.metrics_json);
    Ok(format!(
        "stepper gate: stall-heavy SPMV do-all, 2 cores, dense vs skipping\n\
         simulated cycles: {}\n\
         verified: {}\n\
         metrics digest: {:#018x}\n\
         stepper ok: bit-exact at {} cycles",
        s.cycles,
        s.verified,
        d.finish(),
        s.cycles
    ))
}
