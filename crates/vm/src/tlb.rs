//! Translation lookaside buffers.
//!
//! Both the Ariane cores and each MAPLE engine carry a 16-entry fully
//! associative TLB (Section 3.5 / Table 2). The model uses true LRU and
//! supports the shootdown path: the MAPLE Linux driver registers an MMU
//! notifier whose callbacks invalidate engine-side entries before the
//! kernel reuses a page.

use maple_mem::phys::PAddr;

use crate::addr::VirtPage;
use crate::page_table::PageFlags;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The virtual page.
    pub vpn: VirtPage,
    /// Base of the mapped physical frame.
    pub frame: PAddr,
    /// Page attributes.
    pub flags: PageFlags,
}

/// A fully-associative TLB with true-LRU replacement.
///
/// # Example
///
/// ```
/// use maple_mem::phys::PAddr;
/// use maple_vm::page_table::PageFlags;
/// use maple_vm::tlb::Tlb;
/// use maple_vm::VirtPage;
///
/// let mut tlb = Tlb::new(16);
/// tlb.insert(VirtPage(4), PAddr(0x8000), PageFlags::rw());
/// assert!(tlb.lookup(VirtPage(4)).is_some());
/// tlb.shootdown(VirtPage(4));
/// assert!(tlb.lookup(VirtPage(4)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, TlbEntry)>, // (lru stamp, entry)
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries (paper: 16).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a virtual page, updating recency and hit/miss counters.
    pub fn lookup(&mut self, vpn: VirtPage) -> Option<TlbEntry> {
        self.clock += 1;
        let clock = self.clock;
        for (stamp, e) in &mut self.entries {
            if e.vpn == vpn {
                *stamp = clock;
                self.hits += 1;
                return Some(*e);
            }
        }
        self.misses += 1;
        None
    }

    /// Performs `n` back-to-back lookups of one page in O(entries): the
    /// clock, the hit/miss counters and the entry's recency end exactly
    /// as `n` calls to [`Tlb::lookup`] would leave them. Used to account
    /// for a sleeping requester that would have retried the same
    /// translation every cycle.
    pub fn lookup_n(&mut self, vpn: VirtPage, n: u64) -> Option<TlbEntry> {
        if n == 0 {
            return self.probe(vpn);
        }
        self.clock += n;
        let clock = self.clock;
        for (stamp, e) in &mut self.entries {
            if e.vpn == vpn {
                *stamp = clock;
                self.hits += n;
                return Some(*e);
            }
        }
        self.misses += n;
        None
    }

    /// Probes without counting or touching recency.
    #[must_use]
    pub fn probe(&self, vpn: VirtPage) -> Option<TlbEntry> {
        self.entries
            .iter()
            .find(|(_, e)| e.vpn == vpn)
            .map(|(_, e)| *e)
    }

    /// Inserts (or refreshes) a translation, evicting LRU when full.
    pub fn insert(&mut self, vpn: VirtPage, frame: PAddr, flags: PageFlags) {
        self.clock += 1;
        let entry = TlbEntry { vpn, frame, flags };
        if let Some((stamp, e)) = self.entries.iter_mut().find(|(_, e)| e.vpn == vpn) {
            *stamp = self.clock;
            *e = entry;
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(i, _)| i)
                .expect("full TLB is non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((self.clock, entry));
    }

    /// Removes a translation (shootdown); returns whether one existed.
    pub fn shootdown(&mut self, vpn: VirtPage) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(_, e)| e.vpn != vpn);
        self.entries.len() != before
    }

    /// Drops all translations (full flush / context switch).
    pub fn flush_all(&mut self) {
        self.entries.clear();
    }

    /// Resident entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw() -> PageFlags {
        PageFlags::rw()
    }

    #[test]
    fn insert_lookup_hit_counts() {
        let mut t = Tlb::new(4);
        t.insert(VirtPage(1), PAddr(0x1000), rw());
        assert!(t.lookup(VirtPage(1)).is_some());
        assert!(t.lookup(VirtPage(2)).is_none());
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.insert(VirtPage(1), PAddr(0x1000), rw());
        t.insert(VirtPage(2), PAddr(0x2000), rw());
        // Touch 1 so 2 becomes LRU.
        assert!(t.lookup(VirtPage(1)).is_some());
        t.insert(VirtPage(3), PAddr(0x3000), rw());
        assert!(t.probe(VirtPage(1)).is_some());
        assert!(t.probe(VirtPage(2)).is_none(), "LRU entry evicted");
        assert!(t.probe(VirtPage(3)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(2);
        t.insert(VirtPage(1), PAddr(0x1000), rw());
        t.insert(VirtPage(1), PAddr(0x9000), PageFlags::ro());
        assert_eq!(t.len(), 1);
        let e = t.probe(VirtPage(1)).unwrap();
        assert_eq!(e.frame, PAddr(0x9000));
        assert!(!e.flags.write);
    }

    #[test]
    fn lookup_n_matches_n_lookups() {
        let mut bulk = Tlb::new(2);
        bulk.insert(VirtPage(1), PAddr(0x1000), rw());
        bulk.insert(VirtPage(2), PAddr(0x2000), rw());
        let mut single = bulk.clone();
        for vpn in [1, 9] {
            assert_eq!(bulk.lookup_n(VirtPage(vpn), 5).is_some(), vpn == 1);
            for _ in 0..5 {
                single.lookup(VirtPage(vpn));
            }
            assert_eq!(format!("{bulk:?}"), format!("{single:?}"));
        }
        // Page 1 is now the most recent, so inserting evicts page 2.
        bulk.insert(VirtPage(3), PAddr(0x3000), rw());
        assert!(bulk.probe(VirtPage(1)).is_some());
        assert!(bulk.probe(VirtPage(2)).is_none());
    }

    #[test]
    fn shootdown_removes_entry() {
        let mut t = Tlb::new(4);
        t.insert(VirtPage(7), PAddr(0x7000), rw());
        assert!(t.shootdown(VirtPage(7)));
        assert!(!t.shootdown(VirtPage(7)));
        assert!(t.lookup(VirtPage(7)).is_none());
    }

    #[test]
    fn flush_all() {
        let mut t = Tlb::new(4);
        for i in 0..4 {
            t.insert(VirtPage(i), PAddr(i * 0x1000), rw());
        }
        assert_eq!(t.len(), 4);
        t.flush_all();
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut t = Tlb::new(16);
        for i in 0..100 {
            t.insert(VirtPage(i), PAddr(i * 0x1000), rw());
        }
        assert_eq!(t.len(), 16);
        // The 16 most recent survive.
        for i in 84..100 {
            assert!(t.probe(VirtPage(i)).is_some(), "page {i} should survive");
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }
}
