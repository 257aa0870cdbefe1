//! DROPLET-style memory-side dependent prefetcher.
//!
//! Basak et al. (HPCA'19) place a data-aware prefetcher at the memory
//! controller: when a demand fetch brings in a cache line of the *index*
//! array of a graph workload, the prefetcher decodes the indices in that
//! line and prefetches the dependent *data* lines. The model here does the
//! same at the shared L2: [`DropletPrefetcher::observe`] watches demand
//! `ReadLine` traffic, and once the observed line's data would have
//! arrived from DRAM, decodes its indices and emits `PrefetchLine`
//! requests for `A[B[i]]`.

use maple_mem::msg::{MemReq, MemReqKind};
use maple_mem::phys::{PAddr, PhysMem, LINE_SIZE};
use maple_noc::Coord;
use maple_sim::link::DelayQueue;
use maple_sim::stats::Counter;
use maple_sim::Cycle;

/// One indirect pattern the prefetcher is programmed to watch
/// (physical-address ranges; the driver translates at configuration time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectWatch {
    /// Start of the index array `B` (inclusive).
    pub b_start: PAddr,
    /// End of the index array `B` (exclusive).
    pub b_end: PAddr,
    /// Element size of `B` in bytes (4 or 8).
    pub b_elem: u8,
    /// Base of the data array `A`.
    pub a_base: PAddr,
    /// Element size of `A` in bytes.
    pub a_elem: u8,
}

/// Prefetcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct DropletConfig {
    /// Cycles between observing the demand fetch and issuing dependent
    /// prefetches (decode happens when the line returns from DRAM).
    pub decode_delay: u64,
    /// Maximum dependent prefetches issued per observed line.
    pub max_per_line: usize,
}

impl Default for DropletConfig {
    fn default() -> Self {
        DropletConfig {
            decode_delay: 300,
            max_per_line: 16,
        }
    }
}

/// Prefetcher statistics.
#[derive(Debug, Clone, Default)]
pub struct DropletStats {
    /// Index lines observed.
    pub observed_lines: Counter,
    /// Dependent prefetches issued.
    pub prefetches: Counter,
}

/// The prefetcher component; owned by the L2 tile.
#[derive(Debug)]
pub struct DropletPrefetcher {
    cfg: DropletConfig,
    watches: Vec<IndirectWatch>,
    pending: DelayQueue<(PAddr, usize)>,
    stats: DropletStats,
}

impl DropletPrefetcher {
    /// Creates a prefetcher with no watches programmed.
    #[must_use]
    pub fn new(cfg: DropletConfig) -> Self {
        DropletPrefetcher {
            cfg,
            watches: Vec::new(),
            pending: DelayQueue::new(),
            stats: DropletStats::default(),
        }
    }

    /// Programs an indirect pattern (driver-side, per workload).
    pub fn add_watch(&mut self, watch: IndirectWatch) {
        assert!(
            matches!(watch.b_elem, 4 | 8),
            "index element size must be 4 or 8"
        );
        self.watches.push(watch);
    }

    /// Removes all watches.
    pub fn clear_watches(&mut self) {
        self.watches.clear();
    }

    /// Observes a request arriving at the L2. Demand line fetches within a
    /// watched index range schedule a decode.
    pub fn observe(&mut self, now: Cycle, req: &MemReq) {
        if !matches!(req.kind, MemReqKind::ReadLine) {
            return;
        }
        let line = req.addr.line_base();
        for (i, w) in self.watches.iter().enumerate() {
            if line.0 >= w.b_start.0 && line.0 < w.b_end.0 {
                self.stats.observed_lines.inc();
                self.pending.send(now, self.cfg.decode_delay, (line, i));
                break;
            }
        }
    }

    /// Emits due dependent prefetches (to be fed into the L2 as
    /// `PrefetchLine` requests). Reads the index values from the backing
    /// store — by the time the decode fires, the demand line has arrived.
    pub fn tick(&mut self, now: Cycle, mem: &PhysMem) -> Vec<MemReq> {
        let mut out = Vec::new();
        while let Some((line, widx)) = self.pending.recv(now) {
            let w = self.watches[widx];
            let elem = u64::from(w.b_elem);
            let start = line.0.max(w.b_start.0);
            let end = (line.0 + LINE_SIZE).min(w.b_end.0);
            let mut issued = 0;
            let mut idx = start;
            let mut last_target: Option<PAddr> = None;
            while idx + elem <= end && issued < self.cfg.max_per_line {
                let b = mem.read_uint(PAddr(idx), w.b_elem);
                let target = PAddr(w.a_base.0 + b * u64::from(w.a_elem)).line_base();
                if last_target != Some(target) {
                    self.stats.prefetches.inc();
                    out.push(MemReq {
                        id: 0,
                        addr: target,
                        kind: MemReqKind::PrefetchLine,
                        reply_to: Coord::default(),
                    });
                    last_target = Some(target);
                    issued += 1;
                }
                idx += elem;
            }
        }
        out
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> &DropletStats {
        &self.stats
    }

    /// Earliest cycle at or after `now` at which ticking the prefetcher
    /// could emit work: the deadline of the oldest scheduled decode.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.pending.next_deadline().map(|d| d.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch() -> IndirectWatch {
        IndirectWatch {
            b_start: PAddr(0x1000),
            b_end: PAddr(0x1100),
            b_elem: 4,
            a_base: PAddr(0x8000),
            a_elem: 4,
        }
    }

    fn read_line(addr: u64) -> MemReq {
        MemReq {
            id: 1,
            addr: PAddr(addr),
            kind: MemReqKind::ReadLine,
            reply_to: Coord::default(),
        }
    }

    #[test]
    fn observes_only_watched_demand_lines() {
        let mut d = DropletPrefetcher::new(DropletConfig::default());
        d.add_watch(watch());
        let mem = PhysMem::new();
        d.observe(Cycle(0), &read_line(0x1000));
        d.observe(Cycle(0), &read_line(0x5000)); // outside
        d.observe(
            Cycle(0),
            &MemReq {
                kind: MemReqKind::ReadWord { size: 4 },
                ..read_line(0x1000)
            },
        ); // not a line fetch
        assert_eq!(d.stats().observed_lines.get(), 1);
        let _ = mem;
    }

    #[test]
    fn issues_dependent_prefetches_after_delay() {
        let mut d = DropletPrefetcher::new(DropletConfig {
            decode_delay: 10,
            max_per_line: 16,
        });
        d.add_watch(watch());
        let mut mem = PhysMem::new();
        // Indices 5, 5, 99 in the first line: dedup adjacent duplicates.
        mem.write_u32(PAddr(0x1000), 5);
        mem.write_u32(PAddr(0x1004), 5);
        mem.write_u32(PAddr(0x1008), 99);
        d.observe(Cycle(0), &read_line(0x1000));
        assert!(d.tick(Cycle(9), &mem).is_empty(), "decode not due yet");
        let reqs = d.tick(Cycle(10), &mem);
        assert!(!reqs.is_empty());
        let targets: Vec<u64> = reqs.iter().map(|r| r.addr.0).collect();
        assert!(targets.contains(&PAddr(0x8000 + 5 * 4).line_base().0));
        assert!(targets.contains(&PAddr(0x8000 + 99 * 4).line_base().0));
        assert!(reqs.iter().all(|r| r.kind == MemReqKind::PrefetchLine));
    }

    #[test]
    fn respects_per_line_budget() {
        let mut d = DropletPrefetcher::new(DropletConfig {
            decode_delay: 0,
            max_per_line: 2,
        });
        d.add_watch(watch());
        let mut mem = PhysMem::new();
        for i in 0..16u64 {
            mem.write_u32(PAddr(0x1000 + i * 4), (i * 100) as u32);
        }
        d.observe(Cycle(0), &read_line(0x1000));
        let reqs = d.tick(Cycle(0), &mem);
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn clamps_to_watch_bounds() {
        let mut d = DropletPrefetcher::new(DropletConfig {
            decode_delay: 0,
            max_per_line: 64,
        });
        // Watch covers only half a line.
        d.add_watch(IndirectWatch {
            b_start: PAddr(0x1000),
            b_end: PAddr(0x1020),
            b_elem: 8,
            a_base: PAddr(0x8000),
            a_elem: 8,
        });
        let mut mem = PhysMem::new();
        for i in 0..8u64 {
            mem.write_u64(PAddr(0x1000 + i * 8), i * 1000);
        }
        d.observe(Cycle(0), &read_line(0x1000));
        let reqs = d.tick(Cycle(0), &mem);
        assert_eq!(reqs.len(), 4, "only indices inside the watch decoded");
    }

    #[test]
    #[should_panic(expected = "4 or 8")]
    fn bad_elem_size_rejected() {
        let mut d = DropletPrefetcher::new(DropletConfig::default());
        d.add_watch(IndirectWatch {
            b_start: PAddr(0),
            b_end: PAddr(64),
            b_elem: 3,
            a_base: PAddr(0x8000),
            a_elem: 4,
        });
    }
}
