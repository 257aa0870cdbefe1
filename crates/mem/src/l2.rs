//! The shared L2 (last-level cache) and its memory controller.
//!
//! One tile of the SoC hosts the shared L2 (64 KB 8-way, 30-cycle access in
//! the paper's configurations) with the DRAM channel behind it. All
//! cacheable traffic, volatile word reads, and atomics are serialized here;
//! MAPLE's non-coherent loads (`ReadWordDram`/`ReadLineDram`) bypass the
//! tag array and go straight to the DRAM queue, and speculative prefetches
//! (`PrefetchLine`) install lines without generating responses — the two
//! paths Section 3.6 of the paper describes.

use maple_noc::Coord;
use maple_sim::hash::FxHashMap;
use maple_sim::link::DelayQueue;
use maple_sim::stats::Counter;
use maple_sim::Cycle;

use crate::cache::{CacheArray, CacheGeometry};
use crate::dram::{Dram, DramConfig};
use crate::msg::{MemReq, MemReqKind, MemResp, ServedBy};
use crate::phys::{PAddr, PhysMem};

/// Shared-L2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity in bytes (paper: 64 KB).
    pub size_bytes: u64,
    /// Associativity (paper: 8).
    pub ways: usize,
    /// Access (hit) latency in cycles (paper: 30).
    pub latency: u64,
    /// Decode latency for DRAM-direct requests that skip the tag lookup.
    pub uncached_decode_latency: u64,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            size_bytes: 64 * 1024,
            ways: 8,
            latency: 30,
            uncached_decode_latency: 4,
        }
    }
}

/// A response ready to be injected into the NoC by the host tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutboundResp {
    /// Destination tile.
    pub dst: Coord,
    /// The response message.
    pub resp: MemResp,
    /// NoC flits for this response (9 for line fills, 2 for words).
    pub flits: u8,
}

/// L2 statistics.
#[derive(Debug, Clone, Default)]
pub struct L2Stats {
    /// Requests whose tag lookup hit.
    pub hits: Counter,
    /// Requests whose tag lookup missed.
    pub misses: Counter,
    /// Lines fetched from DRAM.
    pub dram_fetches: Counter,
    /// Prefetch lines installed.
    pub prefetch_fills: Counter,
    /// Write-through messages absorbed.
    pub writes: Counter,
}

#[derive(Debug)]
enum DramToken {
    /// Demand line fill; waiters are in `line_mshrs`.
    LineFill { line: PAddr },
    /// Word read that missed: fill the line and answer with data.
    WordFill { req: MemReq },
    /// Atomic that missed: fill, execute, answer with the old value.
    AmoFill { req: MemReq },
    /// Non-coherent word read: answer, never fill.
    DirectWord { req: MemReq },
    /// Non-coherent line read: answer (line-sized), never fill.
    DirectLine { req: MemReq },
    /// Speculative prefetch: fill, no answer.
    PrefetchFill { line: PAddr },
}

/// The shared L2 + memory controller component.
#[derive(Debug)]
pub struct SharedL2 {
    cfg: L2Config,
    tags: CacheArray,
    stage: DelayQueue<MemReq>,
    dram: Dram<DramToken>,
    line_mshrs: FxHashMap<PAddr, Vec<MemReq>>,
    out: Vec<OutboundResp>,
    stats: L2Stats,
}

impl SharedL2 {
    /// Creates an empty L2 with the given cache and DRAM configurations.
    #[must_use]
    pub fn new(cfg: L2Config, dram_cfg: DramConfig) -> Self {
        SharedL2 {
            cfg,
            tags: CacheArray::new(CacheGeometry::new(cfg.size_bytes, cfg.ways)),
            stage: DelayQueue::new(),
            dram: Dram::new(dram_cfg),
            line_mshrs: FxHashMap::default(),
            out: Vec::new(),
            stats: L2Stats::default(),
        }
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> L2Config {
        self.cfg
    }

    /// Accepts a request from the NoC; it completes its tag-pipeline stage
    /// after the configured latency.
    pub fn accept(&mut self, now: Cycle, req: MemReq) {
        let latency = match req.kind {
            MemReqKind::ReadWordDram { .. } | MemReqKind::ReadLineDram => {
                self.cfg.uncached_decode_latency
            }
            _ => self.cfg.latency,
        };
        self.stage.send(now, latency, req);
    }

    /// Advances the pipeline and the DRAM channel one cycle.
    pub fn tick(&mut self, now: Cycle, mem: &mut PhysMem) {
        while let Some(req) = self.stage.recv(now) {
            self.handle(now, req, mem);
        }
        self.dram.tick(now);
        while let Some(token) = self.dram.pop_completed(now) {
            self.complete(token, mem);
        }
    }

    fn respond(
        out: &mut Vec<OutboundResp>,
        req: &MemReq,
        data: u64,
        is_line: bool,
        served_by: ServedBy,
    ) {
        out.push(OutboundResp {
            dst: req.reply_to,
            resp: MemResp {
                id: req.id,
                data,
                served_by,
            },
            flits: MemResp::flits(is_line),
        });
    }

    fn handle(&mut self, now: Cycle, req: MemReq, mem: &mut PhysMem) {
        match req.kind {
            MemReqKind::ReadLine => {
                let line = req.addr.line_base();
                if self.tags.access(line) {
                    self.stats.hits.inc();
                    Self::respond(&mut self.out, &req, 0, true, ServedBy::L2);
                    return;
                }
                self.stats.misses.inc();
                let waiters = self.line_mshrs.entry(line).or_default();
                waiters.push(req);
                if waiters.len() == 1 {
                    self.stats.dram_fetches.inc();
                    self.dram.request(now, DramToken::LineFill { line });
                }
            }
            MemReqKind::ReadWord { size } => {
                if self.tags.access(req.addr) {
                    self.stats.hits.inc();
                    let data = mem.read_uint(req.addr, size);
                    Self::respond(&mut self.out, &req, data, false, ServedBy::L2);
                } else {
                    self.stats.misses.inc();
                    self.stats.dram_fetches.inc();
                    self.dram.request(now, DramToken::WordFill { req });
                }
            }
            MemReqKind::ReadWordDram { .. } => {
                self.dram.request(now, DramToken::DirectWord { req });
            }
            MemReqKind::ReadLineDram => {
                self.dram.request(now, DramToken::DirectLine { req });
            }
            MemReqKind::Write { ack, .. } => {
                debug_assert!(!ack, "MMIO writes must be routed to devices, not L2");
                self.stats.writes.inc();
                if self.tags.probe(req.addr) {
                    self.tags.access(req.addr);
                }
            }
            MemReqKind::Amo {
                kind,
                size,
                operand,
            } => {
                if self.tags.access(req.addr) {
                    self.stats.hits.inc();
                    let old = mem.amo(req.addr, size, kind, operand);
                    Self::respond(&mut self.out, &req, old, false, ServedBy::L2);
                } else {
                    self.stats.misses.inc();
                    self.stats.dram_fetches.inc();
                    self.dram.request(now, DramToken::AmoFill { req });
                }
            }
            MemReqKind::PrefetchLine => {
                let line = req.addr.line_base();
                if self.tags.probe(line) || self.line_mshrs.contains_key(&line) {
                    return; // already resident or being fetched
                }
                self.stats.dram_fetches.inc();
                self.dram.request(now, DramToken::PrefetchFill { line });
            }
        }
    }

    fn complete(&mut self, token: DramToken, mem: &mut PhysMem) {
        match token {
            DramToken::LineFill { line } => {
                self.tags.fill(line);
                for req in self.line_mshrs.remove(&line).unwrap_or_default() {
                    Self::respond(&mut self.out, &req, 0, true, ServedBy::Dram);
                }
            }
            DramToken::WordFill { req } => {
                self.tags.fill(req.addr.line_base());
                let size = match req.kind {
                    MemReqKind::ReadWord { size } => size,
                    _ => unreachable!("WordFill originates from ReadWord"),
                };
                let data = mem.read_uint(req.addr, size);
                Self::respond(&mut self.out, &req, data, false, ServedBy::Dram);
            }
            DramToken::AmoFill { req } => {
                self.tags.fill(req.addr.line_base());
                let MemReqKind::Amo {
                    kind,
                    size,
                    operand,
                } = req.kind
                else {
                    unreachable!("AmoFill originates from Amo");
                };
                let old = mem.amo(req.addr, size, kind, operand);
                Self::respond(&mut self.out, &req, old, false, ServedBy::Dram);
            }
            DramToken::DirectWord { req } => {
                let size = match req.kind {
                    MemReqKind::ReadWordDram { size } => size,
                    _ => unreachable!("DirectWord originates from ReadWordDram"),
                };
                let data = mem.read_uint(req.addr, size);
                Self::respond(&mut self.out, &req, data, false, ServedBy::DramDirect);
            }
            DramToken::DirectLine { req } => {
                Self::respond(&mut self.out, &req, 0, true, ServedBy::DramDirect);
            }
            DramToken::PrefetchFill { line } => {
                self.stats.prefetch_fills.inc();
                self.tags.fill(line);
            }
        }
    }

    /// Earliest cycle at or after `now` at which ticking the L2 could have
    /// an observable effect, for the event-horizon scheduler.
    ///
    /// Ready outbound responses pin the horizon to `now` (the host tile
    /// drains them every stepped cycle); otherwise the next tag-stage
    /// completion or DRAM event bounds it. MSHR waiters need no separate
    /// term: they were created by a DRAM fetch whose completion is already
    /// in the DRAM horizon.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = maple_sim::Horizon::IDLE;
        if !self.out.is_empty() {
            h.at(now);
        }
        h.observe(self.stage.next_deadline().map(|d| d.max(now)));
        h.observe(self.dram.next_event(now));
        h.earliest()
    }

    /// Pops one response ready for NoC injection.
    pub fn pop_outgoing(&mut self) -> Option<OutboundResp> {
        if self.out.is_empty() {
            None
        } else {
            Some(self.out.remove(0))
        }
    }

    /// Whether the component holds no in-flight work.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.stage.is_empty()
            && self.dram.is_idle()
            && self.line_mshrs.is_empty()
            && self.out.is_empty()
    }

    /// Whether a line is resident (for tests and DROPLET snooping).
    #[must_use]
    pub fn contains_line(&self, addr: PAddr) -> bool {
        self.tags.probe(addr)
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Installs the fault plane's DRAM latency-spike schedule on the
    /// backing channel.
    pub fn set_dram_fault(&mut self, fault: maple_sim::fault::FaultSchedule) {
        self.dram.set_fault(fault);
    }

    /// Installs an observability tracer on the backing DRAM channel.
    pub fn set_tracer(&mut self, tracer: maple_trace::Tracer) {
        self.dram.set_tracer(tracer);
    }

    /// Statistics of the backing DRAM channel (spike counts live here).
    #[must_use]
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        self.dram.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> (SharedL2, PhysMem) {
        (
            SharedL2::new(L2Config::default(), DramConfig::default()),
            PhysMem::new(),
        )
    }

    fn drive(l2: &mut SharedL2, mem: &mut PhysMem, from: u64, to: u64) -> Vec<(u64, OutboundResp)> {
        let mut got = Vec::new();
        for c in from..to {
            l2.tick(Cycle(c), mem);
            while let Some(r) = l2.pop_outgoing() {
                got.push((c, r));
            }
        }
        got
    }

    fn read_line_req(id: u64, addr: u64) -> MemReq {
        MemReq {
            id,
            addr: PAddr(addr),
            kind: MemReqKind::ReadLine,
            reply_to: Coord::new(1, 0),
        }
    }

    #[test]
    fn line_miss_costs_l2_plus_dram() {
        let (mut l2, mut mem) = l2();
        l2.accept(Cycle(0), read_line_req(1, 0x1000));
        let got = drive(&mut l2, &mut mem, 0, 400);
        assert_eq!(got.len(), 1);
        let (when, resp) = &got[0];
        // 30 (tag stage) + 300 (DRAM) = 330.
        assert_eq!(*when, 330);
        assert_eq!(resp.resp.id, 1);
        assert_eq!(resp.flits, 9);
        assert_eq!(l2.stats().misses.get(), 1);
        assert!(l2.is_idle());
    }

    #[test]
    fn line_hit_costs_l2_latency() {
        let (mut l2, mut mem) = l2();
        l2.accept(Cycle(0), read_line_req(1, 0x1000));
        drive(&mut l2, &mut mem, 0, 400);
        l2.accept(Cycle(400), read_line_req(2, 0x1000));
        let got = drive(&mut l2, &mut mem, 400, 500);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 430, "hit = 30-cycle stage only");
        assert_eq!(l2.stats().hits.get(), 1);
    }

    #[test]
    fn mshr_merges_same_line() {
        let (mut l2, mut mem) = l2();
        l2.accept(Cycle(0), read_line_req(1, 0x2000));
        l2.accept(Cycle(1), read_line_req(2, 0x2010));
        let got = drive(&mut l2, &mut mem, 0, 400);
        assert_eq!(got.len(), 2, "both requesters answered");
        assert_eq!(l2.stats().dram_fetches.get(), 1, "one DRAM fetch");
    }

    #[test]
    fn word_read_hit_and_miss() {
        let (mut l2, mut mem) = l2();
        mem.write_u64(PAddr(0x3000), 99);
        let word = MemReq {
            id: 5,
            addr: PAddr(0x3000),
            kind: MemReqKind::ReadWord { size: 8 },
            reply_to: Coord::new(0, 0),
        };
        l2.accept(Cycle(0), word);
        let got = drive(&mut l2, &mut mem, 0, 400);
        assert_eq!(got[0].0, 330, "miss goes to DRAM");
        assert_eq!(got[0].1.resp.data, 99);
        // Second read now hits in L2 (line was filled).
        l2.accept(Cycle(400), MemReq { id: 6, ..word });
        let got = drive(&mut l2, &mut mem, 400, 500);
        assert_eq!(got[0].0, 430);
        assert_eq!(got[0].1.resp.data, 99);
    }

    #[test]
    fn dram_direct_word_skips_tags() {
        let (mut l2, mut mem) = l2();
        mem.write_u64(PAddr(0x4000), 7);
        let req = MemReq {
            id: 1,
            addr: PAddr(0x4000),
            kind: MemReqKind::ReadWordDram { size: 8 },
            reply_to: Coord::new(0, 0),
        };
        l2.accept(Cycle(0), req);
        let got = drive(&mut l2, &mut mem, 0, 400);
        // 4 (decode) + 300 = 304.
        assert_eq!(got[0].0, 304);
        assert_eq!(got[0].1.resp.data, 7);
        assert!(!l2.contains_line(PAddr(0x4000)), "non-coherent: no fill");
    }

    #[test]
    fn dram_direct_line() {
        let (mut l2, mut mem) = l2();
        let req = MemReq {
            id: 1,
            addr: PAddr(0x9000),
            kind: MemReqKind::ReadLineDram,
            reply_to: Coord::new(0, 0),
        };
        l2.accept(Cycle(0), req);
        let got = drive(&mut l2, &mut mem, 0, 400);
        assert_eq!(got[0].1.flits, 9);
        assert!(!l2.contains_line(PAddr(0x9000)));
    }

    #[test]
    fn amo_executes_at_l2() {
        use crate::phys::AmoKind;
        let (mut l2, mut mem) = l2();
        mem.write_u64(PAddr(0x5000), 10);
        let amo = MemReq {
            id: 1,
            addr: PAddr(0x5000),
            kind: MemReqKind::Amo {
                kind: AmoKind::Add,
                size: 8,
                operand: 3,
            },
            reply_to: Coord::new(0, 0),
        };
        l2.accept(Cycle(0), amo);
        let got = drive(&mut l2, &mut mem, 0, 400);
        assert_eq!(got[0].1.resp.data, 10, "old value returned");
        assert_eq!(mem.read_u64(PAddr(0x5000)), 13);
        // Second AMO hits (line filled by the first) and is fast.
        l2.accept(Cycle(400), MemReq { id: 2, ..amo });
        let got = drive(&mut l2, &mut mem, 400, 500);
        assert_eq!(got[0].0, 430);
        assert_eq!(got[0].1.resp.data, 13);
        assert_eq!(mem.read_u64(PAddr(0x5000)), 16);
    }

    #[test]
    fn amos_serialize_in_arrival_order() {
        use crate::phys::AmoKind;
        let (mut l2, mut mem) = l2();
        // Two fetch-adds from different tiles: each must see a distinct old
        // value (atomicity), totalling 2.
        for id in 0..2 {
            l2.accept(
                Cycle(id),
                MemReq {
                    id,
                    addr: PAddr(0x6000),
                    kind: MemReqKind::Amo {
                        kind: AmoKind::Add,
                        size: 8,
                        operand: 1,
                    },
                    reply_to: Coord::new(0, 0),
                },
            );
        }
        let got = drive(&mut l2, &mut mem, 0, 800);
        let olds: Vec<u64> = got.iter().map(|(_, r)| r.resp.data).collect();
        assert_eq!(olds.len(), 2);
        assert_ne!(olds[0], olds[1], "each AMO sees a unique old value");
        assert_eq!(mem.read_u64(PAddr(0x6000)), 2);
    }

    #[test]
    fn prefetch_installs_silently() {
        let (mut l2, mut mem) = l2();
        let pf = MemReq {
            id: 1,
            addr: PAddr(0x7000),
            kind: MemReqKind::PrefetchLine,
            reply_to: Coord::new(0, 0),
        };
        l2.accept(Cycle(0), pf);
        let got = drive(&mut l2, &mut mem, 0, 400);
        assert!(got.is_empty(), "prefetch generates no response");
        assert!(l2.contains_line(PAddr(0x7000)));
        assert_eq!(l2.stats().prefetch_fills.get(), 1);
        // Duplicate prefetch is dropped.
        l2.accept(Cycle(400), pf);
        drive(&mut l2, &mut mem, 400, 800);
        assert_eq!(l2.stats().dram_fetches.get(), 1);
    }

    #[test]
    fn write_through_updates_recency_only() {
        let (mut l2, mut mem) = l2();
        let w = MemReq {
            id: 1,
            addr: PAddr(0x8000),
            kind: MemReqKind::Write {
                size: 8,
                data: 5,
                ack: false,
            },
            reply_to: Coord::new(0, 0),
        };
        l2.accept(Cycle(0), w);
        let got = drive(&mut l2, &mut mem, 0, 100);
        assert!(got.is_empty());
        assert_eq!(l2.stats().writes.get(), 1);
        assert!(!l2.contains_line(PAddr(0x8000)), "no write-allocate");
    }
}
