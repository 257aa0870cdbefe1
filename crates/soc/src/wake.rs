//! Wake sets: which components of one kind tick this cycle.
//!
//! Most components have nothing due on most cycles — an Access core
//! waiting for the engine's queue to drain, an engine waiting for a fill,
//! an L2 bank between DRAM completions. A [`WakeSet`] ticks a component
//! only on a cycle where it is *due*: its own `next_event` has come up,
//! a delivery arrived for it, or a hub command targets it.
//!
//! The cycles in between are exactly those on which a dense tick would
//! only have bumped the stall counters the component's `skip` catches up
//! in bulk, so they are accounted lazily. `acct[i]` is the first cycle
//! component `i` has not been accounted for; whatever touches the
//! component at `now` first applies `skip(now - acct[i])`. The skip must
//! come first because its increments depend on the state the touch is
//! about to change.
//!
//! The dense reference stepper uses the same sets with every component
//! due on every cycle, so both steppers run one code path.

use maple_sim::Cycle;

/// Due cycles and lazy-accounting marks for one kind of component.
#[derive(Debug)]
pub(crate) struct WakeSet {
    /// First cycle not yet accounted, per component.
    acct: Vec<u64>,
    /// Next cycle each component must tick; `u64::MAX` while only a
    /// delivery or a command can wake it.
    due: Vec<u64>,
    /// Every component is due every cycle (the dense reference).
    dense: bool,
    /// Components due this cycle, ascending; rebuilt by
    /// [`WakeSet::collect`].
    due_now: Vec<usize>,
    /// Minimum `due` over the components *not* in `due_now`.
    asleep_min: u64,
}

impl WakeSet {
    /// `n` components, all accounted up to `now` and due at `now` (the
    /// first cycle of a run ticks everything, as the dense loop would).
    pub fn new(n: usize, now: Cycle, dense: bool) -> Self {
        WakeSet {
            acct: vec![now.0; n],
            due: vec![now.0; n],
            dense,
            due_now: Vec::with_capacity(n),
            asleep_min: u64::MAX,
        }
    }

    /// Marks component `i` due at `now`, first bringing its accounting
    /// up to `now` through `skip(cycles)` (called only when it is
    /// behind). Call before touching the component.
    pub fn wake(&mut self, i: usize, now: Cycle, skip: impl FnOnce(u64)) {
        let gap = now.0 - self.acct[i];
        if gap > 0 {
            skip(gap);
            self.acct[i] = now.0;
        }
        self.due[i] = now.0;
    }

    /// Makes component `i` due no later than `next()`, for a touch that
    /// needs no accounting and need not tick it at once (an L2 bank
    /// accepting a request). `next` is not called in a dense set.
    pub fn wake_by(&mut self, i: usize, next: impl FnOnce() -> Option<Cycle>) {
        if self.dense {
            return;
        }
        if let Some(at) = next() {
            self.due[i] = self.due[i].min(at.0);
            self.asleep_min = self.asleep_min.min(at.0);
        }
    }

    /// Rebuilds the list of components due at `now`.
    pub fn collect(&mut self, now: Cycle) {
        self.due_now.clear();
        self.asleep_min = u64::MAX;
        if self.dense {
            self.due_now.extend(0..self.due.len());
            return;
        }
        for (i, &due) in self.due.iter().enumerate() {
            if due <= now.0 {
                self.due_now.push(i);
            } else {
                self.asleep_min = self.asleep_min.min(due);
            }
        }
    }

    /// The components due this cycle, ascending.
    pub fn due_now(&self) -> &[usize] {
        &self.due_now
    }

    /// Records that component `i` ticked at `now`; `next` (its
    /// `next_event(now + 1)`, not called in a dense set) says when it is
    /// due again.
    pub fn settle(&mut self, i: usize, now: Cycle, next: impl FnOnce() -> Option<Cycle>) {
        self.acct[i] = now.0 + 1;
        if !self.dense {
            self.due[i] = next().map_or(u64::MAX, |c| c.0);
        }
    }

    /// Earliest cycle any component is due, once this cycle's due
    /// components have settled; `u64::MAX` when every one waits for a
    /// delivery or a command, and in a dense set, which skips nothing.
    pub fn horizon(&self) -> u64 {
        if self.dense {
            return u64::MAX;
        }
        self.due_now
            .iter()
            .map(|&i| self.due[i])
            .fold(self.asleep_min, u64::min)
    }

    /// Brings every component's accounting up to `now`, calling
    /// `skip(i, cycles)` for each one that is behind.
    pub fn flush(&mut self, now: Cycle, mut skip: impl FnMut(usize, u64)) {
        for (i, acct) in self.acct.iter_mut().enumerate() {
            if *acct < now.0 {
                skip(i, now.0 - *acct);
                *acct = now.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeping_components_owe_their_gap_on_wake() {
        let mut ws = WakeSet::new(3, Cycle(10), false);
        ws.collect(Cycle(10));
        assert_eq!(ws.due_now(), &[0, 1, 2], "a run's first cycle ticks all");
        ws.settle(0, Cycle(10), || Some(Cycle(11)));
        ws.settle(1, Cycle(10), || Some(Cycle(20)));
        ws.settle(2, Cycle(10), || None);
        assert_eq!(ws.horizon(), 11);

        ws.collect(Cycle(11));
        assert_eq!(ws.due_now(), &[0]);
        ws.settle(0, Cycle(11), || None);
        assert_eq!(ws.horizon(), 20);

        // A delivery at 15 wakes component 2, which owes 11..15.
        let mut owed = 0;
        ws.wake(2, Cycle(15), |n| owed += n);
        assert_eq!(owed, 4);
        ws.collect(Cycle(15));
        assert_eq!(ws.due_now(), &[2]);
        ws.wake(2, Cycle(15), |_| panic!("already accounted"));
        ws.settle(2, Cycle(15), || None);

        let mut owed = Vec::new();
        ws.flush(Cycle(30), |i, n| owed.push((i, n)));
        assert_eq!(owed, vec![(0, 18), (1, 19), (2, 14)]);
    }

    #[test]
    fn wake_by_only_moves_a_due_cycle_earlier() {
        let mut ws = WakeSet::new(2, Cycle(0), false);
        ws.collect(Cycle(0));
        ws.settle(0, Cycle(0), || Some(Cycle(50)));
        ws.settle(1, Cycle(0), || None);
        ws.wake_by(1, || Some(Cycle(30)));
        ws.wake_by(0, || Some(Cycle(70)));
        assert_eq!(ws.horizon(), 30);
        ws.collect(Cycle(30));
        assert_eq!(ws.due_now(), &[1]);
        assert_eq!(ws.horizon(), 30, "not yet settled");
    }

    #[test]
    fn dense_sets_tick_everything_and_never_ask() {
        let mut ws = WakeSet::new(2, Cycle(0), true);
        for now in 0..3 {
            ws.collect(Cycle(now));
            assert_eq!(ws.due_now(), &[0, 1]);
            for i in 0..2 {
                ws.wake(i, Cycle(now), |_| panic!("dense sets never owe"));
                ws.settle(i, Cycle(now), || unreachable!("dense sets never ask"));
            }
        }
        ws.wake_by(0, || unreachable!("dense sets never ask"));
        assert_eq!(ws.horizon(), u64::MAX);
    }
}
