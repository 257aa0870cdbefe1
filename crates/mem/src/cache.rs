//! Set-associative tag arrays with true-LRU replacement.
//!
//! Both L1 and L2 use [`CacheArray`] for their timing state. Because data
//! lives in the functional backing store ([`crate::phys::PhysMem`]), the
//! array tracks presence and recency only — exactly what determines
//! hit/miss timing.

use crate::phys::{PAddr, LINE_SIZE};

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (fixed at 64 across the SoC).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry; line size defaults to 64 B.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` divides evenly into `ways` sets of 64-byte
    /// lines and the set count is a power of two.
    #[must_use]
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        let g = CacheGeometry {
            size_bytes,
            ways,
            line_bytes: LINE_SIZE,
        };
        assert!(
            g.sets() > 0 && g.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        g
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    tag: u64,
    valid: bool,
    /// Higher is more recently used.
    lru: u64,
}

/// A tag-only set-associative cache model.
///
/// # Example
///
/// ```
/// use maple_mem::cache::{CacheArray, CacheGeometry};
/// use maple_mem::phys::PAddr;
///
/// let mut c = CacheArray::new(CacheGeometry::new(8 * 1024, 4));
/// assert!(!c.probe(PAddr(0x1000)));
/// c.fill(PAddr(0x1000));
/// assert!(c.probe(PAddr(0x1000)));
/// assert!(c.probe(PAddr(0x103f)), "same line hits");
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    geo: CacheGeometry,
    ways: Vec<Way>,
    clock: u64,
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache.
    #[must_use]
    pub fn new(geo: CacheGeometry) -> Self {
        CacheArray {
            geo,
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    lru: 0
                };
                geo.sets() * geo.ways
            ],
            clock: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geo
    }

    fn set_index(&self, addr: PAddr) -> usize {
        ((addr.0 / self.geo.line_bytes) as usize) & (self.geo.sets() - 1)
    }

    fn tag(&self, addr: PAddr) -> u64 {
        addr.0 / self.geo.line_bytes / self.geo.sets() as u64
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geo.ways;
        base..base + self.geo.ways
    }

    /// Whether the line containing `addr` is present, without touching LRU.
    #[must_use]
    pub fn probe(&self, addr: PAddr) -> bool {
        let tag = self.tag(addr);
        self.ways[self.set_range(self.set_index(addr))]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Looks up `addr`; on a hit, updates recency and returns `true`.
    pub fn access(&mut self, addr: PAddr) -> bool {
        let tag = self.tag(addr);
        let range = self.set_range(self.set_index(addr));
        self.clock += 1;
        let clock = self.clock;
        for w in &mut self.ways[range] {
            if w.valid && w.tag == tag {
                w.lru = clock;
                return true;
            }
        }
        false
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    ///
    /// Returns the base address of the evicted line, if a valid line was
    /// displaced. Idempotent when the line is already present (refreshes
    /// recency, evicts nothing).
    pub fn fill(&mut self, addr: PAddr) -> Option<PAddr> {
        let tag = self.tag(addr);
        let set = self.set_index(addr);
        let range = self.set_range(set);
        self.clock += 1;
        let clock = self.clock;

        // Already present: refresh.
        for w in &mut self.ways[range.clone()] {
            if w.valid && w.tag == tag {
                w.lru = clock;
                return None;
            }
        }
        // Free way?
        for w in &mut self.ways[range.clone()] {
            if !w.valid {
                *w = Way {
                    tag,
                    valid: true,
                    lru: clock,
                };
                return None;
            }
        }
        // Evict LRU.
        let victim_idx = range
            .clone()
            .min_by_key(|&i| self.ways[i].lru)
            .expect("non-empty set");
        let victim = self.ways[victim_idx];
        self.ways[victim_idx] = Way {
            tag,
            valid: true,
            lru: clock,
        };
        let evicted_line = (victim.tag * self.geo.sets() as u64 + set as u64) * self.geo.line_bytes;
        Some(PAddr(evicted_line))
    }

    /// Invalidates the line containing `addr` if present; returns whether a
    /// line was dropped.
    pub fn invalidate(&mut self, addr: PAddr) -> bool {
        let tag = self.tag(addr);
        let range = self.set_range(self.set_index(addr));
        for w in &mut self.ways[range] {
            if w.valid && w.tag == tag {
                w.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates every line (e.g. at process teardown).
    pub fn flush_all(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        // 4 sets × 2 ways × 64 B = 512 B.
        CacheArray::new(CacheGeometry::new(512, 2))
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::new(8 * 1024, 4).sets(), 32);
        assert_eq!(CacheGeometry::new(64 * 1024, 8).sets(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_pow2_sets() {
        let _ = CacheGeometry::new(3 * 64 * 2, 2); // 3 sets
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let a = PAddr(0x1000);
        assert!(!c.access(a));
        assert_eq!(c.fill(a), None);
        assert!(c.access(a));
        assert!(c.access(PAddr(0x103f)), "same line");
        assert!(!c.access(PAddr(0x1040)), "next line misses");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small(); // 2 ways per set; lines mapping to set 0: stride 4*64=256
        let line = |i: u64| PAddr(i * 256);
        c.fill(line(0));
        c.fill(line(1));
        // Touch line 0 so line 1 is LRU.
        assert!(c.access(line(0)));
        let evicted = c.fill(line(2)).expect("must evict");
        assert_eq!(evicted, line(1).line_base());
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(1)));
        assert!(c.probe(line(2)));
    }

    #[test]
    fn fill_is_idempotent() {
        let mut c = small();
        let a = PAddr(0x2000);
        assert_eq!(c.fill(a), None);
        assert_eq!(c.fill(a), None);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small();
        c.fill(PAddr(0));
        c.fill(PAddr(64));
        assert!(c.invalidate(PAddr(0)));
        assert!(!c.invalidate(PAddr(0)), "second invalidate is a no-op");
        assert_eq!(c.resident_lines(), 1);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        // 4 sets: lines 0..4 map to different sets.
        for i in 0..4u64 {
            c.fill(PAddr(i * 64));
        }
        for i in 0..4u64 {
            assert!(c.probe(PAddr(i * 64)));
        }
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn eviction_returns_correct_base() {
        let mut c = small();
        // Fill set 1 (addresses with set index 1): stride 256, offset 64.
        let line = |i: u64| PAddr(64 + i * 256);
        c.fill(line(0));
        c.fill(line(1));
        let ev = c.fill(line(2)).unwrap();
        assert_eq!(ev, line(0), "LRU way in set 1 evicted with right address");
    }
}
