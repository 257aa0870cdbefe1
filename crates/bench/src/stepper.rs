//! Host-throughput comparison of the two `System` steppers.
//!
//! Runs one stall-heavy configuration — SPMV do-all against the default
//! 300-cycle DRAM, a gather working set far larger than the caches — once
//! under the dense cycle-by-cycle reference loop and once under the
//! event-horizon skipping scheduler, and reports simulated Mcycles per
//! host second for both. The two runs must be bit-exact (same final
//! cycle count, same `RunStats`, same metrics snapshot); [`divergence`]
//! renders any mismatch for the CI gate.
//!
//! [`divergence`]: StepperComparison::divergence

use std::time::Instant;

use maple_isa::builder::ProgramBuilder;
use maple_isa::{AluOp, Cond, Program, Reg};
use maple_soc::config::SocConfig;
use maple_soc::system::System;
use maple_trace::metrics::MetricValue;
use maple_workloads::data::{dense_vector, uniform_sparse};
use maple_workloads::harness::{RunStats, Variant};
use maple_workloads::oracle::chaos_schedules;
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

/// Runs the stall-heavy benchmark config under both steppers.
///
/// `rows`/`cols` size the sparse gather (the checked-in default is
/// `stall_heavy_comparison`); `seed` fixes the instance.
#[must_use]
pub fn compare_steppers(rows: usize, cols: usize, seed: u64) -> StepperComparison {
    let a = uniform_sparse(rows, cols, 8, seed);
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

/// The default stall-heavy instance: SPMV do-all, 300-cycle DRAM, a
/// working set that misses both cache levels on most gathers.
#[must_use]
pub fn stall_heavy_comparison(seed: u64) -> StepperComparison {
    compare_steppers(512, 64 * 1024, seed)
}

/// Iterations of the compute-heavy kernel in the checked-in benchmark
/// row ([`fast_path_comparison`]); the CI gate uses a shorter run.
pub const COMPUTE_ITERS: u64 = 10_000;
/// Unrolled ALU slots per loop iteration of the compute-heavy kernel.
const COMPUTE_UNROLL: usize = 64;
/// Cores running the compute-heavy kernel.
const COMPUTE_CORES: usize = 4;

/// Per-core accumulator seed: distinct per core so a cross-core register
/// mixup cannot cancel out in the final comparison.
fn compute_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Builds the compute-heavy kernel: a counted loop whose unrolled body
/// is pure register ALU work (every fourth slot a 3-cycle multiply), so
/// the whole body decodes into one fast-path run terminated only by the
/// back-edge branch. Returns the program and the accumulator register
/// (seeded via `load_program` args, read back for verification).
fn compute_program(iters: u64) -> (Program, Reg) {
    let mut b = ProgramBuilder::new();
    let acc = b.reg("acc");
    let i = b.reg("i");
    let n = b.reg("n");
    let t = b.reg("t");
    b.li(i, 0);
    b.li(n, iters);
    let top = b.here("loop");
    for k in 0..COMPUTE_UNROLL {
        match k % 4 {
            0 => b.mul(acc, acc, 3i64),
            1 => b.add(acc, acc, i),
            2 => b.alu(AluOp::Xor, acc, acc, k as i64),
            _ => {
                b.alu(AluOp::Srl, t, acc, 7i64);
                b.add(acc, acc, t);
            }
        }
    }
    b.addi(i, i, 1);
    b.br(Cond::Ne, i, n, top);
    b.halt();
    (b.build().expect("compute kernel assembles"), acc)
}

/// Host-side mirror of [`compute_program`]: the expected accumulator
/// after `iters` iterations starting from `acc0`. Kept in lockstep with
/// the builder above — both use the same `k % 4` slot schedule.
fn compute_reference(acc0: u64, iters: u64) -> u64 {
    let mut acc = acc0;
    for i in 0..iters {
        for k in 0..COMPUTE_UNROLL {
            match k % 4 {
                0 => acc = acc.wrapping_mul(3),
                1 => acc = acc.wrapping_add(i),
                2 => acc ^= k as u64,
                _ => acc = acc.wrapping_add(acc >> 7),
            }
        }
    }
    acc
}

/// One timed, self-verifying run of the compute-heavy kernel.
///
/// `metrics_json` excludes the per-core `/dispatch/` counters (which
/// legitimately differ between dispatch modes); those are surfaced
/// separately as [`fast_path_runs`] / [`interpreted_ticks`] so callers
/// can both compare snapshots across modes and prove which path ran.
///
/// [`fast_path_runs`]: ComputeRun::fast_path_runs
/// [`interpreted_ticks`]: ComputeRun::interpreted_ticks
#[derive(Debug)]
pub struct ComputeRun {
    /// Final simulated cycle (dispatch-mode- and stepper-invariant).
    pub cycles: u64,
    /// Rendered metrics JSON with `/dispatch/` counters stripped.
    pub metrics_json: String,
    /// Total micro-op runs dispatched via the fast path, all cores.
    pub fast_path_runs: u64,
    /// Total single-instruction interpreter dispatches, all cores.
    pub interpreted_ticks: u64,
    /// Host wall-clock of the `System::run` call alone.
    pub wall_seconds: f64,
}

impl ComputeRun {
    /// Simulated megacycles per host second.
    #[must_use]
    pub fn mcycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds / 1.0e6
    }
}

/// Runs the compute-heavy kernel on four cores (no
/// engines: pure core compute, so the event horizon is governed by the
/// cores alone) under `tune`'s configuration.
///
/// # Panics
///
/// Panics when the run does not finish or any core's final accumulator
/// disagrees with the host-side mirror — architectural correctness is
/// checked on every measurement, not just in the gate.
#[must_use]
pub fn compute_heavy_run(
    seed: u64,
    iters: u64,
    tune: impl FnOnce(SocConfig) -> SocConfig,
) -> ComputeRun {
    let cfg = tune(SocConfig::fpga_prototype()
        .with_cores(COMPUTE_CORES)
        .with_maples(0));
    let mut sys = System::new(cfg);
    let (program, acc) = compute_program(iters);
    for c in 0..COMPUTE_CORES {
        sys.load_program(program.clone(), &[(acc, compute_seed(seed, c))]);
    }
    let t0 = Instant::now();
    let outcome = sys.run(iters.saturating_mul(400).max(1_000_000));
    let wall_seconds = t0.elapsed().as_secs_f64();
    assert!(outcome.is_finished(), "compute kernel must finish");
    for c in 0..COMPUTE_CORES {
        assert_eq!(
            sys.core(c).reg(acc),
            compute_reference(compute_seed(seed, c), iters),
            "core {c} accumulator must match the host mirror"
        );
    }
    let mut snap = sys.metrics_snapshot();
    let (mut runs, mut ticks) = (0u64, 0u64);
    for (name, value) in snap.entries() {
        if let MetricValue::Counter(v) = value {
            if name.ends_with("/dispatch/fast_path_runs") {
                runs += v;
            } else if name.ends_with("/dispatch/interpreted_ticks") {
                ticks += v;
            }
        }
    }
    snap.retain(|name| !name.contains("/dispatch/"));
    ComputeRun {
        cycles: outcome.cycle().0,
        metrics_json: snap.to_json().render(),
        fast_path_runs: runs,
        interpreted_ticks: ticks,
        wall_seconds,
    }
}

/// The paired measurement: same compute-heavy kernel, interpreter-only
/// vs compiled fast-path dispatch, both under the skipping stepper.
#[derive(Debug)]
pub struct FastPathComparison {
    /// Per-instruction interpreter dispatch (`fast_path` off).
    pub interpreted: ComputeRun,
    /// Batched micro-op-run dispatch (`fast_path` on).
    pub fast: ComputeRun,
}

impl FastPathComparison {
    /// Host-throughput ratio: fast path over interpreter.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.fast.mcycles_per_sec() / self.interpreted.mcycles_per_sec()
    }

    /// `None` when the two modes are bit-exact **and** the fast path
    /// demonstrably engaged; otherwise a rendered mismatch description.
    #[must_use]
    pub fn divergence(&self) -> Option<String> {
        if self.fast.cycles != self.interpreted.cycles {
            return Some(format!(
                "final cycle count diverged: fast={} interpreted={}",
                self.fast.cycles, self.interpreted.cycles
            ));
        }
        if self.fast.metrics_json != self.interpreted.metrics_json {
            return Some("metrics snapshot JSON diverged (dispatch counters excluded)".into());
        }
        if self.fast.fast_path_runs == 0 {
            return Some("fast path never dispatched a run on the compute kernel".into());
        }
        None
    }
}

/// Runs the checked-in compute-heavy benchmark row: [`COMPUTE_ITERS`]
/// iterations under the skipping stepper, fast path off then on.
#[must_use]
pub fn fast_path_comparison(seed: u64) -> FastPathComparison {
    // Interpreter first: the expensive run up front, the fast path's
    // time measured on a warmed allocator (mirrors `compare_steppers`).
    let interpreted = compute_heavy_run(seed, COMPUTE_ITERS, |c| c);
    let fast = compute_heavy_run(seed, COMPUTE_ITERS, |c| c.with_fast_path(true));
    FastPathComparison { interpreted, fast }
}

/// One SPMV observation for the fast-path gate: run stats, the
/// dispatch-stripped metrics JSON, and the total fast-path run count.
fn spmv_observed(
    inst: &Spmv,
    tune: impl FnOnce(SocConfig) -> SocConfig,
) -> (RunStats, String, u64) {
    let (stats, sys) = inst.run_observed(Variant::MapleDecoupled, 4, tune);
    let mut snap = sys.metrics_snapshot();
    let mut runs = 0u64;
    for (name, value) in snap.entries() {
        if let MetricValue::Counter(v) = value {
            if name.ends_with("/dispatch/fast_path_runs") {
                runs += v;
            }
        }
    }
    snap.retain(|name| !name.contains("/dispatch/"));
    (stats, snap.to_json().render(), runs)
}

/// The fast-path determinism gate behind `stepper_check --fast-path`,
/// rendered as **host-independent** lines so `ci.sh` can byte-diff the
/// output across `MAPLE_JOBS` values. Three claims are checked:
///
/// 1. On the mixed SPMV MAPLE-decoupled workload (memory queues, MMIO,
///    engines) the fast path is bit-exact with the interpreter — under
///    the skipping stepper, the dense stepper and every recoverable chaos
///    schedule of the fault oracle.
/// 2. On the compute-heavy kernel the fast path is bit-exact and
///    *demonstrably engaged* (a zero run count fails the gate).
/// 3. Dispatch counters themselves are stepper-invariant: the dense
///    fast-path run reports the same run count as skipping.
///
/// # Errors
///
/// Returns the rendered divergence when any pairing is not bit-exact or
/// the fast path never engages.
pub fn fast_path_gate(seed: u64) -> Result<String, String> {
    let a = uniform_sparse(512, 64 * 1024, 8, seed);
    let x = dense_vector(64 * 1024, seed ^ 0x9);
    let inst = Spmv { a, x };
    let base = |c: SocConfig| c.with_maples(2);

    // Claim 1: mixed workload, interpreter reference vs fast-path runs.
    let (ref_stats, ref_json, _) = spmv_observed(&inst, base);
    let (fast_stats, fast_json, fast_runs) =
        spmv_observed(&inst, |c| base(c).with_fast_path(true));
    let (dense_stats, dense_json, dense_runs) =
        spmv_observed(&inst, |c| base(c).with_fast_path(true).with_dense_stepper());
    for (mode, stats, json) in [
        ("skipping", &fast_stats, &fast_json),
        ("dense", &dense_stats, &dense_json),
    ] {
        if *stats != ref_stats {
            return Err(format!(
                "spmv run stats diverged under fast-path {mode}:\nfast:        {stats:?}\n\
                 interpreter: {ref_stats:?}"
            ));
        }
        if *json != ref_json {
            return Err(format!(
                "spmv metrics JSON diverged under fast-path {mode} \
                 (dispatch counters excluded)"
            ));
        }
    }
    if fast_runs == 0 {
        return Err("fast path never dispatched a run on the SPMV workload".into());
    }
    if dense_runs != fast_runs {
        return Err(format!(
            "fast-path run count is not stepper-invariant: dense={dense_runs} skipping={fast_runs}"
        ));
    }

    // Chaos: the fence must split runs identically whether or not the
    // hub actually injects anything — every recoverable schedule.
    let mut chaos_lines = String::new();
    for sched in chaos_schedules(seed).into_iter().filter(|s| !s.must_degrade) {
        let plane = sched.plane;
        let (c_ref, c_ref_json, _) = {
            let plane = plane.clone();
            spmv_observed(&inst, move |c| base(c).with_fault_plane(plane))
        };
        let (c_fast, c_fast_json, _) = spmv_observed(&inst, move |c| {
            base(c).with_fault_plane(plane).with_fast_path(true)
        });
        if c_fast != c_ref {
            return Err(format!(
                "chaos '{}' run stats diverged:\nfast:        {c_fast:?}\ninterpreter: {c_ref:?}",
                sched.name
            ));
        }
        if c_fast_json != c_ref_json {
            return Err(format!(
                "chaos '{}' metrics JSON diverged (dispatch counters excluded)",
                sched.name
            ));
        }
        chaos_lines.push_str(&format!(
            "chaos {}: bit-exact at {} cycles\n",
            sched.name, c_fast.cycles
        ));
    }

    // Claim 2: compute-heavy kernel, shortened for CI latency.
    let iters = 2_000;
    let interp = compute_heavy_run(seed, iters, |c| c);
    let fast = compute_heavy_run(seed, iters, |c| c.with_fast_path(true));
    let cmp = FastPathComparison {
        interpreted: interp,
        fast,
    };
    if let Some(msg) = cmp.divergence() {
        return Err(format!("compute kernel diverged: {msg}"));
    }

    let mut d = maple_fleet::Digest::new(0x5AF7);
    d.str(&fast_json);
    d.str(&cmp.fast.metrics_json);
    Ok(format!(
        "fast-path gate\n\
         spmv cycles: {}\n\
         spmv fast-path runs: {fast_runs}\n\
         {chaos_lines}\
         compute cycles: {}\n\
         compute fast-path runs: {}\n\
         compute interpreted ticks: {}\n\
         metrics digest: {:#018x}\n\
         fast-path ok: bit-exact",
        fast_stats.cycles,
        cmp.fast.cycles,
        cmp.fast.fast_path_runs,
        cmp.fast.interpreted_ticks,
        d.finish()
    ))
}
