//! An index set that activity-driven steppers visit in ascending order.
//!
//! A fabric or hub loop that used to scan every router or tile each
//! cycle keeps a [`Worklist`] of the indices that hold work instead, and
//! visits only those. Ascending order matters whenever one visit can
//! affect a later one (a credit check against a neighbour's buffer, the
//! order of fault-RNG draws), so [`Worklist::drain_sorted`] hands the
//! set back sorted: the visit sequence is the dense scan's sequence with
//! the idle indices left out.
//!
//! ```
//! use maple_sim::worklist::Worklist;
//!
//! let mut wl = Worklist::new(8);
//! wl.insert(5);
//! wl.insert(2);
//! wl.insert(5); // already listed: no duplicate
//! let mut visit = Vec::new();
//! wl.drain_sorted(&mut visit);
//! assert_eq!(visit, [2, 5]);
//! assert!(wl.as_slice().is_empty());
//! ```

/// A set of indices in `0..n`, drained in ascending order.
///
/// Insertion is O(1) and idempotent; draining costs a sort of the listed
/// indices only, never a pass over all `n`.
#[derive(Debug)]
pub struct Worklist {
    listed: Vec<bool>,
    items: Vec<usize>,
}

impl Worklist {
    /// An empty worklist over indices `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Worklist {
            listed: vec![false; n],
            items: Vec::new(),
        }
    }

    /// Lists index `i` (no-op when it is already listed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert(&mut self, i: usize) {
        if !self.listed[i] {
            self.listed[i] = true;
            self.items.push(i);
        }
    }

    /// The listed indices, in no particular order.
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.items
    }

    /// Empties the worklist into `into` (cleared first) in ascending
    /// order. Reusing `into` across calls keeps the drain
    /// allocation-free; indices inserted while the caller walks `into`
    /// are listed afresh for the next drain.
    pub fn drain_sorted(&mut self, into: &mut Vec<usize>) {
        into.clear();
        std::mem::swap(into, &mut self.items);
        into.sort_unstable();
        for &i in into.iter() {
            self.listed[i] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reinsertion_during_a_walk_lists_for_the_next_drain() {
        let mut wl = Worklist::new(4);
        wl.insert(3);
        wl.insert(0);
        let mut visit = Vec::new();
        wl.drain_sorted(&mut visit);
        assert_eq!(visit, [0, 3]);
        for &i in &visit {
            wl.insert(i);
        }
        wl.insert(1);
        wl.drain_sorted(&mut visit);
        assert_eq!(visit, [0, 1, 3]);
    }
}
