//! Deterministic, seeded fault injection ("chaos plane").
//!
//! A [`FaultPlaneConfig`] describes *what* can go wrong and how often; the
//! timing models own per-site [`FaultSchedule`]s derived from it. Every
//! schedule carries its own [`SimRng`] stream, seeded from the plane seed
//! xor a per-site salt, so
//!
//! - a chaos run replays bit-for-bit from one `u64` seed, and
//! - draws at one site never perturb another site's schedule.
//!
//! The plane is strictly opt-in: components hold an `Option` of their
//! schedule and a fault-free run performs no RNG draws and no timing
//! perturbation at all (zero-cost when off).
//!
//! Sites modelled here:
//!
//! | site            | effect                                              |
//! |-----------------|-----------------------------------------------------|
//! | NoC drop        | an injected packet vanishes in the network          |
//! | NoC delay       | an injected packet is held for extra cycles         |
//! | DRAM spike      | one DRAM access takes `spike_cycles` longer         |
//! | MMIO ack loss   | an engine response/ack is dropped at the source     |
//! | engine RESET    | a scheduled mid-run `RESET` of a MAPLE instance     |
//! | TLB shootdown   | a randomly-timed shootdown of an engine TLB entry   |
//!
//! Recovery knobs (watchdog timeout / bounded retries with exponential
//! backoff) live in [`WatchdogConfig`] and are shared by the engine's
//! memory-fetch watchdog and the uncore's core-MMIO watchdog.

use crate::rng::SimRng;
use crate::stats::Counter;
use crate::Cycle;

/// Per-site seed salts (arbitrary odd constants; xor-ed into the plane
/// seed so each site gets an independent deterministic stream).
const SALT_NOC_DROP: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_NOC_DELAY: u64 = 0xBF58_476D_1CE4_E5B9;
const SALT_DRAM: u64 = 0x94D0_49BB_1331_11EB;
const SALT_ACK: u64 = 0xD6E8_FEB8_6659_FD93;
const SALT_SHOOTDOWN: u64 = 0xA076_1D64_78BD_642F;
const SALT_XBAR_DROP: u64 = 0xC2B2_AE3D_27D4_EB4F;
const SALT_XBAR_DELAY: u64 = 0x1656_67B1_9E37_79F9;
/// Per-bank DRAM streams for banks > 0; bank 0 keeps the historical
/// [`SALT_DRAM`] stream so single-bank configs replay unchanged.
const SALT_DRAM_BANK: u64 = 0x2545_F491_4F6C_DD1D;

/// Watchdog / retry policy for one class of transactions.
///
/// A transaction that has been outstanding longer than
/// `timeout << retries_so_far` cycles (exponential backoff) is re-issued;
/// after `max_retries` re-issues the transaction is declared poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Base timeout before the first re-issue, in cycles. Must comfortably
    /// exceed the worst-case legitimate round trip (DRAM + NoC + queueing).
    pub timeout: u64,
    /// Bounded number of re-issues before the transaction is poisoned.
    pub max_retries: u32,
}

impl WatchdogConfig {
    /// Deadline for a transaction issued at `issued` that has already been
    /// retried `retries` times (exponential backoff, saturating).
    #[must_use]
    pub fn deadline(&self, issued: Cycle, retries: u32) -> Cycle {
        let shift = retries.min(16);
        issued.plus(self.timeout.saturating_mul(1u64 << shift))
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            timeout: 20_000,
            max_retries: 3,
        }
    }
}

/// Complete description of a chaos run: one seed plus per-site rates and
/// scheduled events. Everything a run needs to replay bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlaneConfig {
    /// Master seed; each site derives its own stream from it.
    pub seed: u64,
    /// Probability that a fault-eligible NoC packet is dropped.
    pub noc_drop_rate: f64,
    /// Probability that a fault-eligible NoC packet is delayed.
    pub noc_delay_rate: f64,
    /// Extra cycles added to a delayed NoC packet.
    pub noc_delay_cycles: u64,
    /// Probability that a DRAM access suffers a latency spike.
    pub dram_spike_rate: f64,
    /// Extra cycles added to a spiked DRAM access.
    pub dram_spike_cycles: u64,
    /// Probability that an engine response (data or ack) is lost at the
    /// source. `1.0` makes every MAPLE transaction unrecoverable.
    pub mmio_ack_loss: f64,
    /// Probability that a fault-eligible packet is dropped at its
    /// cluster crossbar (clustered fabrics only; flat meshes have no
    /// crossbar site).
    pub xbar_drop_rate: f64,
    /// Probability that a fault-eligible packet is delayed at its
    /// cluster crossbar.
    pub xbar_delay_rate: f64,
    /// Extra cycles added to a crossbar-delayed packet.
    pub xbar_delay_cycles: u64,
    /// Scheduled mid-run engine `RESET`s: `(cycle, engine index)`.
    pub engine_resets: Vec<(u64, usize)>,
    /// Number of randomly-timed engine TLB shootdowns to inject.
    pub tlb_shootdowns: u32,
    /// Window `[0, shootdown_window)` the shootdown times are drawn from.
    pub shootdown_window: u64,
    /// Watchdog policy for engine memory fetches.
    pub engine_watchdog: WatchdogConfig,
    /// Watchdog policy for core-issued MMIO transactions.
    pub mmio_watchdog: WatchdogConfig,
}

impl FaultPlaneConfig {
    /// A quiescent plane: no faults, default watchdogs. Useful as a base
    /// for builder-style chaining and as the "plane on, rates zero"
    /// zero-perturbation check.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlaneConfig {
            seed,
            noc_drop_rate: 0.0,
            noc_delay_rate: 0.0,
            noc_delay_cycles: 0,
            dram_spike_rate: 0.0,
            dram_spike_cycles: 0,
            mmio_ack_loss: 0.0,
            xbar_drop_rate: 0.0,
            xbar_delay_rate: 0.0,
            xbar_delay_cycles: 0,
            engine_resets: Vec::new(),
            tlb_shootdowns: 0,
            shootdown_window: 0,
            engine_watchdog: WatchdogConfig {
                timeout: 4_000,
                max_retries: 3,
            },
            mmio_watchdog: WatchdogConfig::default(),
        }
    }

    /// Drops fault-eligible NoC packets with probability `rate`.
    #[must_use]
    pub fn with_noc_drop(mut self, rate: f64) -> Self {
        self.noc_drop_rate = rate;
        self
    }

    /// Delays fault-eligible NoC packets by `cycles` with probability
    /// `rate`.
    #[must_use]
    pub fn with_noc_delay(mut self, rate: f64, cycles: u64) -> Self {
        self.noc_delay_rate = rate;
        self.noc_delay_cycles = cycles;
        self
    }

    /// Adds `cycles` to DRAM accesses with probability `rate`.
    #[must_use]
    pub fn with_dram_spikes(mut self, rate: f64, cycles: u64) -> Self {
        self.dram_spike_rate = rate;
        self.dram_spike_cycles = cycles;
        self
    }

    /// Loses engine responses/acks with probability `rate`.
    #[must_use]
    pub fn with_mmio_ack_loss(mut self, rate: f64) -> Self {
        self.mmio_ack_loss = rate;
        self
    }

    /// Drops fault-eligible packets at their cluster crossbar with
    /// probability `rate` (no effect on flat fabrics).
    #[must_use]
    pub fn with_xbar_drop(mut self, rate: f64) -> Self {
        self.xbar_drop_rate = rate;
        self
    }

    /// Delays fault-eligible packets by `cycles` at their cluster
    /// crossbar with probability `rate` (no effect on flat fabrics).
    #[must_use]
    pub fn with_xbar_delay(mut self, rate: f64, cycles: u64) -> Self {
        self.xbar_delay_rate = rate;
        self.xbar_delay_cycles = cycles;
        self
    }

    /// Schedules a `RESET` of engine `engine` at `cycle`.
    #[must_use]
    pub fn with_engine_reset_at(mut self, cycle: u64, engine: usize) -> Self {
        self.engine_resets.push((cycle, engine));
        self
    }

    /// Injects `count` engine TLB shootdowns at random cycles in
    /// `[0, window)`.
    #[must_use]
    pub fn with_tlb_shootdowns(mut self, count: u32, window: u64) -> Self {
        self.tlb_shootdowns = count;
        self.shootdown_window = window;
        self
    }

    /// The NoC packet-drop schedule for this plane.
    #[must_use]
    pub fn noc_drop_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(self.noc_drop_rate, 0, self.seed ^ SALT_NOC_DROP)
    }

    /// The NoC extra-delay schedule for this plane.
    #[must_use]
    pub fn noc_delay_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(
            self.noc_delay_rate,
            self.noc_delay_cycles,
            self.seed ^ SALT_NOC_DELAY,
        )
    }

    /// The DRAM latency-spike schedule for this plane.
    #[must_use]
    pub fn dram_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(
            self.dram_spike_rate,
            self.dram_spike_cycles,
            self.seed ^ SALT_DRAM,
        )
    }

    /// The crossbar packet-drop schedule for this plane (clustered
    /// fabrics only; flat meshes never construct it, so existing chaos
    /// streams replay unchanged).
    #[must_use]
    pub fn xbar_drop_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(self.xbar_drop_rate, 0, self.seed ^ SALT_XBAR_DROP)
    }

    /// The crossbar extra-delay schedule for this plane.
    #[must_use]
    pub fn xbar_delay_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(
            self.xbar_delay_rate,
            self.xbar_delay_cycles,
            self.seed ^ SALT_XBAR_DELAY,
        )
    }

    /// The DRAM latency-spike schedule for L2 bank `bank`. Bank 0 *is*
    /// the historical [`FaultPlaneConfig::dram_schedule`] stream, so a
    /// single-bank (flat) memory system replays bit-for-bit; higher
    /// banks get independent salted streams.
    #[must_use]
    pub fn dram_bank_schedule(&self, bank: usize) -> FaultSchedule {
        if bank == 0 {
            return self.dram_schedule();
        }
        FaultSchedule::new(
            self.dram_spike_rate,
            self.dram_spike_cycles,
            self.seed ^ SALT_DRAM ^ (bank as u64).wrapping_mul(SALT_DRAM_BANK),
        )
    }

    /// The MMIO ack-loss schedule for engine `site`. Each engine gets an
    /// independent stream so strikes stay uncorrelated across instances.
    #[must_use]
    pub fn ack_loss_schedule(&self, site: u64) -> FaultSchedule {
        FaultSchedule::new(
            self.mmio_ack_loss,
            0,
            self.seed ^ SALT_ACK ^ site.wrapping_mul(0xFF51_AFD7_ED55_8CCD),
        )
    }

    /// Draws the shootdown event times (sorted, deterministic in the
    /// seed). The second element of the returned pairs is a raw random
    /// word the injector maps onto a target page.
    #[must_use]
    pub fn shootdown_events(&self) -> Vec<(u64, u64)> {
        let mut rng = SimRng::seed(self.seed ^ SALT_SHOOTDOWN);
        let mut events: Vec<(u64, u64)> = (0..self.tlb_shootdowns)
            .map(|_| {
                let at = if self.shootdown_window == 0 {
                    0
                } else {
                    rng.below(self.shootdown_window)
                };
                (at, rng.next_u64())
            })
            .collect();
        events.sort_unstable();
        events
    }
}

/// A single fault site's schedule: a Bernoulli strike rate, a magnitude
/// (extra cycles, where applicable) and a private RNG stream.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    rate: f64,
    magnitude: u64,
    rng: SimRng,
    /// How many times this site struck.
    pub struck: Counter,
}

impl FaultSchedule {
    /// A schedule striking with probability `rate`; `magnitude` is the
    /// site-specific effect size (e.g. extra cycles).
    #[must_use]
    pub fn new(rate: f64, magnitude: u64, seed: u64) -> Self {
        FaultSchedule {
            rate,
            magnitude,
            rng: SimRng::seed(seed),
            struck: Counter::new(),
        }
    }

    /// Draws the next event: `true` when the fault strikes. A zero rate
    /// never strikes and never consumes randomness, so a rate-zero
    /// schedule is observationally identical to no schedule at all.
    pub fn strike(&mut self) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        if self.rng.chance(self.rate) {
            self.struck.inc();
            true
        } else {
            false
        }
    }

    /// The effect magnitude (extra cycles) of this site.
    #[must_use]
    pub fn magnitude(&self) -> u64 {
        self.magnitude
    }
}

/// Why a core was not making progress when a hang was diagnosed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreHang {
    /// Core index.
    pub core: usize,
    /// Coarse core state at diagnosis time (`"running"`, `"waiting-mem"`,
    /// `"halted"`, `"faulted"`).
    pub state: &'static str,
    /// Unacknowledged MMIO stores still outstanding.
    pub mmio_unacked: usize,
}

/// One engine's outstanding work when a hang was diagnosed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineHang {
    /// Engine index.
    pub engine: usize,
    /// Current occupancy of each hardware queue.
    pub queue_occupancy: Vec<usize>,
    /// Outstanding memory fetches (requests with no response yet).
    pub outstanding_fetches: usize,
    /// Buffered produce operations not yet accepted into a queue.
    pub pending_produces: usize,
    /// Buffered consume operations not yet satisfied.
    pub pending_consumes: usize,
    /// Whether the engine was marked poisoned (retries exhausted).
    pub poisoned: bool,
}

/// Structured snapshot of why a run stopped making progress: taken when a
/// cycle budget expires or when an engine is poisoned, instead of a bare
/// timeout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HangDiagnosis {
    /// Cycle at which the diagnosis was taken.
    pub at: Cycle,
    /// Per-core stall reasons.
    pub cores: Vec<CoreHang>,
    /// Per-engine outstanding state.
    pub engines: Vec<EngineHang>,
    /// The page fault that ended the run, when the OS could not service
    /// it (an address outside any lazy region, with no fault plane).
    pub unserviceable: Option<UnserviceableFault>,
}

/// A page fault the OS could not service: the faulting address lies
/// outside every lazily-mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnserviceableFault {
    /// The faulted component kind (`"core"` or `"MAPLE"`).
    pub component: &'static str,
    /// The component's index.
    pub index: usize,
    /// The faulting virtual address.
    pub vaddr: u64,
}

impl std::fmt::Display for UnserviceableFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} faulted outside any lazy region at va:{:#x}",
            self.component, self.index, self.vaddr
        )
    }
}

impl HangDiagnosis {
    /// Whether any engine in the snapshot was poisoned.
    #[must_use]
    pub fn any_poisoned(&self) -> bool {
        self.engines.iter().any(|e| e.poisoned)
    }
}

impl std::fmt::Display for HangDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "hang diagnosis at {}", self.at)?;
        if let Some(fault) = &self.unserviceable {
            writeln!(f, "  {fault}")?;
        }
        for c in &self.cores {
            writeln!(
                f,
                "  core {}: {} ({} unacked MMIO stores)",
                c.core, c.state, c.mmio_unacked
            )?;
        }
        for e in &self.engines {
            writeln!(
                f,
                "  maple {}: queues {:?}, {} outstanding fetches, {} pending produces, {} pending consumes{}",
                e.engine,
                e.queue_occupancy,
                e.outstanding_fetches,
                e.pending_produces,
                e.pending_consumes,
                if e.poisoned { ", POISONED" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_from_one_seed() {
        let cfg = FaultPlaneConfig::new(42)
            .with_noc_drop(0.25)
            .with_noc_delay(0.5, 100)
            .with_dram_spikes(0.1, 400)
            .with_mmio_ack_loss(0.05)
            .with_tlb_shootdowns(8, 1_000_000);
        let mut a = cfg.noc_drop_schedule();
        let mut b = cfg.noc_drop_schedule();
        let seq_a: Vec<bool> = (0..256).map(|_| a.strike()).collect();
        let seq_b: Vec<bool> = (0..256).map(|_| b.strike()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same strikes");
        assert_eq!(a.struck.get(), b.struck.get());
        assert!(a.struck.get() > 0, "25% over 256 draws must strike");

        assert_eq!(cfg.shootdown_events(), cfg.shootdown_events());
        assert_eq!(cfg.shootdown_events().len(), 8);
        assert!(cfg.shootdown_events().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sites_are_independent_streams() {
        let cfg = FaultPlaneConfig::new(7)
            .with_noc_drop(0.5)
            .with_noc_delay(0.5, 10);
        let mut drop = cfg.noc_drop_schedule();
        let mut delay = cfg.noc_delay_schedule();
        let a: Vec<bool> = (0..64).map(|_| drop.strike()).collect();
        let b: Vec<bool> = (0..64).map(|_| delay.strike()).collect();
        assert_ne!(a, b, "per-site salts give distinct streams");
    }

    #[test]
    fn zero_rate_never_strikes_or_draws() {
        let mut s = FaultSchedule::new(0.0, 99, 1);
        let pristine = s.rng.clone();
        for _ in 0..100 {
            assert!(!s.strike());
        }
        assert_eq!(s.rng, pristine, "zero-rate schedule must not draw");
        assert_eq!(s.struck.get(), 0);
    }

    #[test]
    fn dram_bank_zero_is_the_historical_stream() {
        let cfg = FaultPlaneConfig::new(11).with_dram_spikes(0.5, 300);
        let mut flat = cfg.dram_schedule();
        let mut bank0 = cfg.dram_bank_schedule(0);
        let a: Vec<bool> = (0..128).map(|_| flat.strike()).collect();
        let b: Vec<bool> = (0..128).map(|_| bank0.strike()).collect();
        assert_eq!(a, b, "bank 0 must replay the single-bank stream");

        let mut bank1 = cfg.dram_bank_schedule(1);
        let mut bank2 = cfg.dram_bank_schedule(2);
        let c: Vec<bool> = (0..128).map(|_| bank1.strike()).collect();
        let d: Vec<bool> = (0..128).map(|_| bank2.strike()).collect();
        assert_ne!(a, c, "bank 1 gets its own stream");
        assert_ne!(c, d, "banks are pairwise independent");
    }

    #[test]
    fn xbar_sites_are_independent_of_noc_sites() {
        let cfg = FaultPlaneConfig::new(7)
            .with_noc_drop(0.5)
            .with_xbar_drop(0.5)
            .with_xbar_delay(0.5, 10);
        let mut noc = cfg.noc_drop_schedule();
        let mut xd = cfg.xbar_drop_schedule();
        let mut xl = cfg.xbar_delay_schedule();
        let a: Vec<bool> = (0..64).map(|_| noc.strike()).collect();
        let b: Vec<bool> = (0..64).map(|_| xd.strike()).collect();
        let c: Vec<bool> = (0..64).map(|_| xl.strike()).collect();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(xl.magnitude(), 10);
    }

    #[test]
    fn watchdog_backoff_is_exponential_and_saturating() {
        let w = WatchdogConfig {
            timeout: 100,
            max_retries: 3,
        };
        assert_eq!(w.deadline(Cycle(0), 0), Cycle(100));
        assert_eq!(w.deadline(Cycle(50), 1), Cycle(250));
        assert_eq!(w.deadline(Cycle(0), 2), Cycle(400));
        assert_eq!(w.deadline(Cycle(u64::MAX), 40), Cycle(u64::MAX));
    }

    #[test]
    fn hang_diagnosis_formats_and_reports_poison() {
        let d = HangDiagnosis {
            at: Cycle(123),
            cores: vec![CoreHang {
                core: 0,
                state: "waiting-mem",
                mmio_unacked: 2,
            }],
            engines: vec![EngineHang {
                engine: 0,
                queue_occupancy: vec![3, 0],
                outstanding_fetches: 1,
                pending_produces: 0,
                pending_consumes: 4,
                poisoned: true,
            }],
            unserviceable: Some(UnserviceableFault {
                component: "core",
                index: 0,
                vaddr: 0x4004_0000,
            }),
        };
        assert!(d.any_poisoned());
        let text = d.to_string();
        assert!(text.contains("cycle 123"));
        assert!(text.contains("POISONED"));
        assert!(text.contains("waiting-mem"));
        assert!(text.contains("core 0 faulted outside any lazy region at va:0x40040000"));
    }
}
