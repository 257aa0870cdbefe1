//! Cycle-level simulation kernel for the MAPLE manycore SoC model.
//!
//! This crate provides the shared infrastructure every timing model in the
//! workspace builds on:
//!
//! - [`Cycle`]: a newtype over the global cycle count with saturating
//!   arithmetic helpers.
//! - [`link::Link`] and [`link::DelayQueue`]: latency-annotated message
//!   channels used to connect components (cores, caches, NoC routers, MAPLE
//!   pipelines) without shared mutable ownership.
//! - [`stats`]: counters and log-scale histograms used for the performance
//!   counters the paper reads out (load counts, load latencies, queue
//!   occupancy).
//! - [`rng`]: a deterministic, seedable random-number source so every
//!   experiment is reproducible bit-for-bit.
//! - [`Horizon`]: the fold the event-horizon scheduler is built on. Every
//!   timing component has an inherent `next_event` (earliest cycle at
//!   which ticking it could act); the driver folds the answers into a
//!   [`Horizon`] and fast-forwards the clock across provably-quiescent
//!   gaps.
//! - [`worklist::Worklist`]: the index set activity-driven loops visit in
//!   ascending order, so per-cycle cost tracks work, not component count.
//! - [`hash::FxHashMap`]: the fast deterministic hasher for hot-path maps,
//!   and [`hash::Digest`], the stable content digest behind the gates'
//!   `metrics digest` lines.
//! - [`par::par_map`]: the ordered parallel map every experiment matrix
//!   runs on (worker count from `MAPLE_JOBS`), bit-identical at any
//!   worker count.
//!
//! # Example
//!
//! ```
//! use maple_sim::{Cycle, link::Link};
//!
//! let mut link: Link<&str> = Link::new(3); // three-cycle latency
//! link.send(Cycle(10), "hello");
//! assert_eq!(link.recv(Cycle(12)), None); // not yet delivered
//! assert_eq!(link.recv(Cycle(13)), Some("hello"));
//! ```

#![deny(missing_docs)]

pub mod fault;
pub mod hash;
pub mod link;
pub mod par;
pub mod rng;
pub mod stats;
pub mod worklist;

pub use fault::HangDiagnosis;

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in core clock cycles.
///
/// All components in the SoC share a single clock domain (as the FPGA
/// prototype in the paper does, at 60 MHz). `Cycle` is ordered and supports
/// the small amount of arithmetic timing models need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle, i.e. the beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the cycle `n` cycles after `self`, saturating on overflow.
    #[must_use]
    pub fn plus(self, n: u64) -> Cycle {
        Cycle(self.0.saturating_add(n))
    }

    /// Returns the number of cycles elapsed since `earlier`.
    ///
    /// Returns zero when `earlier` is in the future, which makes it safe to
    /// use with out-of-order bookkeeping.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        self.plus(rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        *self = self.plus(rhs);
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.since(rhs)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

/// Accumulator folding per-component `next_event` answers into the
/// scheduler's horizon: the earliest cycle any component may act.
///
/// The contract that makes quiescence skipping bit-exact: a component's
/// `next_event` may be conservatively **early** (the driver ticks a
/// component that then does nothing — wasted host work, still correct)
/// but must never be **late** (a skipped cycle in which the component
/// would have acted diverges from the dense reference). `None` means the
/// component is quiescent until external input arrives.
///
/// Identity is "no event", so a fold over zero components yields a
/// fully-quiescent horizon and the driver can jump straight to its budget.
/// The fold is a plain `u64` minimum with `u64::MAX` meaning "no event":
/// runs end at their cycle budget, so no real event sits at `u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Horizon(u64);

impl Default for Horizon {
    fn default() -> Self {
        Horizon::IDLE
    }
}

impl Horizon {
    /// A horizon with no events observed yet.
    pub const IDLE: Horizon = Horizon(u64::MAX);

    /// Folds one component's `next_event` answer into the horizon.
    pub fn observe(&mut self, event: Option<Cycle>) {
        self.fold(event.map_or(u64::MAX, |c| c.0));
    }

    /// Folds a definite event at `cycle` into the horizon.
    pub fn at(&mut self, cycle: Cycle) {
        self.fold(cycle.0);
    }

    /// Folds a raw due cycle, `u64::MAX` meaning "no event".
    fn fold(&mut self, due: u64) {
        self.0 = self.0.min(due);
    }

    /// The earliest observed event, or `None` when every component was
    /// quiescent.
    #[must_use]
    pub fn earliest(self) -> Option<Cycle> {
        (self.0 != u64::MAX).then_some(Cycle(self.0))
    }
}

/// Outcome of a simulation run (`System::run` in `maple-soc`).
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The completion condition was met at the contained cycle.
    Finished(Cycle),
    /// The run stopped without completing and the driver captured a
    /// structured snapshot of the stuck state (cycle-budget expiry with
    /// outstanding work, or a poisoned engine). Carries the cycle inside
    /// the diagnosis.
    Hung(Box<HangDiagnosis>),
}

impl RunOutcome {
    /// The cycle at which the run stopped, regardless of outcome.
    #[must_use]
    pub fn cycle(&self) -> Cycle {
        match self {
            RunOutcome::Finished(c) => *c,
            RunOutcome::Hung(d) => d.at,
        }
    }

    /// Whether the run completed before the budget expired.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        matches!(self, RunOutcome::Finished(_))
    }

    /// The hang diagnosis, when the driver captured one.
    #[must_use]
    pub fn diagnosis(&self) -> Option<&HangDiagnosis> {
        match self {
            RunOutcome::Hung(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(10);
        assert_eq!(c.plus(5), Cycle(15));
        assert_eq!(c + 5, Cycle(15));
        assert_eq!(Cycle(15).since(c), 5);
        assert_eq!(Cycle(15) - c, 5);
        assert_eq!(c.since(Cycle(15)), 0, "never negative");
    }

    #[test]
    fn cycle_saturates() {
        assert_eq!(Cycle(u64::MAX).plus(1), Cycle(u64::MAX));
    }

    #[test]
    fn cycle_display_and_order() {
        assert_eq!(Cycle(3).to_string(), "cycle 3");
        assert!(Cycle(3) < Cycle(4));
        let mut c = Cycle(1);
        c += 2;
        assert_eq!(c, Cycle(3));
    }

    #[test]
    fn cycle_from_u64() {
        assert_eq!(Cycle::from(9), Cycle(9));
    }

    #[test]
    fn horizon_folds_the_minimum_and_ignores_absent_events() {
        let mut h = Horizon::default();
        assert_eq!(h, Horizon::IDLE);
        h.observe(None);
        assert_eq!(h.earliest(), None);
        h.observe(Some(Cycle(40)));
        h.fold(u64::MAX);
        h.at(Cycle(25));
        h.observe(None);
        h.fold(30);
        assert_eq!(h.earliest(), Some(Cycle(25)));
    }
}
