//! System-level fault-plane tests: zero-perturbation when the plane is
//! quiescent, bit-exact recovery under a lossy NoC, and a structured hang
//! diagnosis when the plane makes the engine unreachable.

use maple_sim::fault::FaultPlaneConfig;
use maple_sim::RunOutcome;
use maple_soc::compiler::{KernelSpec, ValueOp};
use maple_soc::config::SocConfig;
use maple_soc::system::System;

fn make_data(n: usize, a_len: usize, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut rng = maple_sim::rng::SimRng::seed(seed);
    let a: Vec<u32> = (0..a_len).map(|_| rng.below(1000) as u32).collect();
    let b: Vec<u32> = (0..n).map(|_| rng.below(a_len as u64) as u32).collect();
    let c: Vec<u32> = (0..n).map(|_| rng.below(100) as u32).collect();
    (a, b, c)
}

fn host_reference(a: &[u32], b: &[u32], c: &[u32]) -> Vec<u32> {
    b.iter()
        .zip(c)
        .map(|(&bi, &ci)| a[bi as usize].wrapping_mul(ci))
        .collect()
}

/// Runs the MAPLE-decoupled pair kernel on `cfg`; returns the outcome,
/// the result vector and the system for stats inspection.
fn run_pair(cfg: SocConfig, n: usize, seed: u64) -> (RunOutcome, Vec<u32>, Vec<u32>, System) {
    let spec = KernelSpec {
        with_stream: true,
        op: ValueOp::Mul,
        with_store: true,
    };
    let (a, b, c) = make_data(n, 1024, seed);
    let expected = host_reference(&a, &b, &c);
    let mut sys = System::new(cfg);
    let maple_va = sys.map_maple(0);
    let va_a = sys.alloc((a.len() * 4) as u64);
    let va_b = sys.alloc((b.len() * 4) as u64);
    let va_c = sys.alloc((c.len() * 4) as u64);
    let va_r = sys.alloc((b.len() * 4) as u64);
    sys.write_slice_u32(va_a, &a);
    sys.write_slice_u32(va_b, &b);
    sys.write_slice_u32(va_c, &c);
    let pair = spec.gen_maple_pair(0);
    sys.load_program(
        pair.access,
        &[
            (pair.access_args.a, va_a.0),
            (pair.access_args.b, va_b.0),
            (pair.access_args.n, b.len() as u64),
            (pair.access_maple, maple_va.0),
        ],
    );
    sys.load_program(
        pair.execute,
        &[
            (pair.execute_args.c, va_c.0),
            (pair.execute_args.res, va_r.0),
            (pair.execute_args.n, b.len() as u64),
            (pair.execute_maple, maple_va.0),
        ],
    );
    let out = sys.run(5_000_000);
    let got = sys.read_slice_u32(va_r, b.len());
    (out, got, expected, sys)
}

#[test]
fn quiescent_plane_is_cycle_identical_to_no_plane() {
    // Acceptance criterion: with the plane disabled the fault machinery
    // is zero-cost. A plane with every rate at zero and no scheduled
    // events must not perturb timing either (no RNG draw ever happens),
    // so both runs finish at the SAME cycle with the same results.
    let (out_off, got_off, expected, _) = run_pair(SocConfig::fpga_prototype(), 128, 7);
    let quiescent = FaultPlaneConfig::new(0xDEAD_BEEF);
    let (out_on, got_on, _, sys) = run_pair(
        SocConfig::fpga_prototype().with_fault_plane(quiescent),
        128,
        7,
    );
    assert!(out_off.is_finished() && out_on.is_finished());
    assert_eq!(got_off, expected);
    assert_eq!(got_on, expected);
    assert_eq!(
        out_off.cycle(),
        out_on.cycle(),
        "quiescent fault plane must be cycle-exact with no plane at all"
    );
    let stats = sys.chaos_stats().expect("plane installed");
    assert_eq!(stats.mmio_timeouts.get(), 0);
    assert_eq!(sys.mesh_stats().dropped.get(), 0);
}

#[test]
fn lossy_noc_recovers_bit_exact() {
    // 2% drop + occasional delay on MAPLE traffic: the engine fetch
    // watchdog and the core MMIO watchdog must recover every lost
    // transaction, completing bit-exact with visible retry counters.
    let plane = FaultPlaneConfig::new(42)
        .with_noc_drop(0.02)
        .with_noc_delay(0.02, 200);
    let (out, got, expected, sys) =
        run_pair(SocConfig::fpga_prototype().with_fault_plane(plane), 128, 3);
    assert!(out.is_finished(), "run must recover: {out:?}");
    assert_eq!(got, expected, "bit-exact despite dropped packets");
    assert!(
        sys.mesh_stats().dropped.get() > 0,
        "schedule actually struck"
    );
    let engine = sys.engine(0).stats();
    let chaos = sys.chaos_stats().unwrap();
    assert!(
        engine.fetch_retries.get() + chaos.mmio_retries.get() > 0,
        "at least one lost transaction was retried"
    );
    assert!(!sys.engine_retired(0), "no poison under a recoverable rate");
}

#[test]
fn lossy_noc_replay_is_deterministic() {
    // Same seed → bit-identical chaos run, including final cycle count.
    let mk = || {
        FaultPlaneConfig::new(42)
            .with_noc_drop(0.02)
            .with_noc_delay(0.02, 200)
    };
    let (out1, got1, _, sys1) = run_pair(SocConfig::fpga_prototype().with_fault_plane(mk()), 96, 5);
    let (out2, got2, _, sys2) = run_pair(SocConfig::fpga_prototype().with_fault_plane(mk()), 96, 5);
    assert_eq!(out1, out2, "same seed, same outcome and cycle");
    assert_eq!(got1, got2);
    assert_eq!(
        sys1.mesh_stats().dropped.get(),
        sys2.mesh_stats().dropped.get()
    );
    assert_eq!(
        sys1.engine(0).stats().fetch_retries.get(),
        sys2.engine(0).stats().fetch_retries.get()
    );
}

#[test]
fn ack_blackout_yields_hang_diagnosis_not_timeout() {
    // Acceptance criterion: 100% MMIO ack loss is deliberately
    // unrecoverable. The run must end with a structured HangDiagnosis
    // (poisoned engine visible) well before the cycle budget — never a
    // bare timeout, never a panic.
    let plane = FaultPlaneConfig::new(9).with_mmio_ack_loss(1.0);
    let (out, _, _, sys) = run_pair(SocConfig::fpga_prototype().with_fault_plane(plane), 64, 11);
    assert!(!out.is_finished());
    let d = out.diagnosis().expect("structured diagnosis, not TimedOut");
    assert!(d.any_poisoned(), "engine reported poisoned:\n{d}");
    assert!(
        d.at.0 < 5_000_000,
        "watchdog exhaustion must abort early, not burn the budget"
    );
    assert!(sys.engine_retired(0), "driver retired the instance");
    let chaos = sys.chaos_stats().unwrap();
    assert!(chaos.mmio_timeouts.get() > 0);
    assert_eq!(chaos.engines_poisoned.get(), 1);
    assert!(sys.engine(0).stats().acks_dropped.get() > 0);
}

#[test]
fn mid_run_reset_is_injected_and_counted() {
    // A scheduled engine RESET mid-run: the run either still completes
    // bit-exact (reset before any state was live) or fails safely into
    // a diagnosis; in both cases the injection is visible in counters
    // and nothing panics.
    let plane = FaultPlaneConfig::new(3).with_engine_reset_at(5_000, 0);
    let (out, got, expected, sys) =
        run_pair(SocConfig::fpga_prototype().with_fault_plane(plane), 256, 13);
    let chaos = sys.chaos_stats().unwrap();
    assert_eq!(chaos.resets_injected.get(), 1, "reset delivered");
    if out.is_finished() {
        assert_eq!(got, expected, "a finished chaos run must be bit-exact");
    } else {
        assert!(out.diagnosis().is_some(), "failure carries a diagnosis");
    }
}
